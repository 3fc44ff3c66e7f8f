package sabre

import (
	"math"
	"reflect"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/schedule"
	"codar/internal/workloads"
)

// TestMapperReuse: one mapper placing, routing and streaming
// circuit after circuit, across devices of different sizes, gives every
// run a fresh mapper's bytes. Before the last step, every epoch counter is
// set near math.MaxInt32 and must restart with its stamps at the next
// load.
func TestMapperReuse(t *testing.T) {
	tokyo, sycamore := arch.IBMQ20Tokyo(), arch.SycamoreQ54()
	steps := []struct {
		dev *arch.Device
		c   *circuit.Circuit
	}{
		{tokyo, workloads.Random(16, 1200, 45, 1)},
		{sycamore, workloads.Random(40, 1000, 45, 2)},
		{tokyo, workloads.Random(12, 700, 45, 3)},
		{tokyo, workloads.Random(16, 1200, 45, 4)},
	}
	var x Mapper
	for i, st := range steps {
		m := &x.m
		if i == len(steps)-1 {
			m.visitEpoch, m.edgeEpoch, m.incEpoch, m.hEpoch = math.MaxInt32-1, math.MaxInt32-1, math.MaxInt32-1, math.MaxInt32-1
		}
		a := circuit.Assemble(st.c)
		wantLayout, err := InitialLayoutAssembled(a, st.dev, 7, Options{})
		if err != nil {
			t.Fatal(err)
		}
		layout, err := x.InitialLayoutAssembled(a, st.dev, 7, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !layout.Equal(wantLayout) {
			t.Fatalf("step %d: the reused mapper placed differently", i)
		}
		if i == len(steps)-1 {
			for name, epoch := range map[string]int32{"visit": m.visitEpoch, "edge": m.edgeEpoch, "inc": m.incEpoch, "h": m.hEpoch} {
				if epoch < 0 || epoch > int32(2*len(st.c.Gates)) {
					t.Fatalf("step %d: %s epoch %d did not restart at load", i, name, epoch)
				}
			}
		}
		fresh, err := RemapAssembled(a, st.dev, layout, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Circuit.Clone()
		got, err := x.RemapAssembled(a, st.dev, layout, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Circuit.Equal(want) || got.Circuit.NumClbits != want.NumClbits || !got.FinalLayout.Equal(fresh.FinalLayout) {
			t.Fatalf("step %d: the reused mapper routed differently", i)
		}
		var streamed []circuit.Gate
		sink := schedule.FuncSink(func(chunk []schedule.ScheduledGate) error {
			for _, g := range chunk {
				streamed = append(streamed, g.Gate.Clone())
			}
			return nil
		})
		if _, err := x.RemapStream(circuit.NewSliceSource(st.c), st.dev, layout, Options{}, sink); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, want.Gates) {
			t.Fatalf("step %d: the reused mapper's stream differs from a fresh batch run", i)
		}
	}
}

package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/schedule"
	"codar/internal/workloads"
)

// newRemapper builds the engine of one batch run over a pre-built
// assembly, as RemapAssembled does.
func newRemapper(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, opts Options) *remapper {
	r := newEngine(a.Circ.NumQubits, dev, initial, opts)
	r.loadBatch(a)
	return r
}

// newEngine returns a fresh engine after reset, with no gates loaded.
func newEngine(numLogical int, dev *arch.Device, initial *arch.Layout, opts Options) *remapper {
	r := new(remapper)
	r.reset(numLogical, dev, initial, opts)
	return r
}

// collect returns a sink that appends copies of every flushed gate to *dst.
func collect(dst *[]schedule.ScheduledGate) schedule.Sink {
	return schedule.FuncSink(func(chunk []schedule.ScheduledGate) error {
		for _, g := range chunk {
			g.Gate = g.Gate.Clone()
			*dst = append(*dst, g)
		}
		return nil
	})
}

// cloneSchedule copies a result's timed view out of the engine's memory.
func cloneSchedule(res *Result) []schedule.ScheduledGate {
	gates := res.Schedule().Gates
	for i := range gates {
		gates[i].Gate = gates[i].Gate.Clone()
	}
	return gates
}

// TestEngineReuse: one engine mapping circuit after circuit, across
// devices of different sizes and between batch and stream runs, gives
// every run a fresh engine's bytes, and the candidate search's edge
// stamps follow the device. Before the last step, the engine's epoch is
// set near math.MaxInt32 and must restart with its stamps at the next
// load.
func TestEngineReuse(t *testing.T) {
	tokyo, sycamore := arch.IBMQ20Tokyo(), arch.SycamoreQ54()
	steps := []struct {
		dev  *arch.Device
		c    *circuit.Circuit
		opts Options
	}{
		{tokyo, workloads.Random(16, 1500, 45, 1), Options{}},
		{sycamore, workloads.Random(40, 1200, 45, 2), Options{}},
		{tokyo, workloads.Random(12, 800, 45, 3), Options{Lookahead: -1}},
		{tokyo, workloads.Random(16, 1500, 45, 4), Options{}},
	}
	var e Engine
	for i, st := range steps {
		if i == len(steps)-1 {
			e.r.edgeEpoch = math.MaxInt32 - 1
		}
		fresh, err := Remap(st.c, st.dev, nil, st.opts)
		if err != nil {
			t.Fatal(err)
		}
		want := cloneSchedule(fresh)
		got, err := e.RemapAssembled(circuit.Assemble(st.c), st.dev, nil, st.opts)
		if err != nil {
			t.Fatal(err)
		}
		kept := cloneSchedule(got)
		if !reflect.DeepEqual(kept, want) || got.SwapCount != fresh.SwapCount || !got.FinalLayout.Equal(fresh.FinalLayout) {
			t.Fatalf("step %d: the reused engine's batch run differs from a fresh engine's", i)
		}
		if len(e.r.edgeStamp) != len(st.dev.Edges) || e.r.edgeEpoch > 2*int32(got.Cycles) {
			t.Fatalf("step %d: edge stamps %d for %d edges, epoch %d after %d cycles", i, len(e.r.edgeStamp), len(st.dev.Edges), e.r.edgeEpoch, got.Cycles)
		}
		var streamed []schedule.ScheduledGate
		if _, err := e.RemapStream(circuit.NewSliceSource(st.c), st.dev, nil, st.opts, collect(&streamed)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, want) {
			t.Fatalf("step %d: the reused engine's stream differs from a fresh batch run", i)
		}
	}
}

// TestLockOverflowIsAnError: a lock end past the last packable cycle ends
// the run with ErrLockOverflow, in batch and stream, instead of wrapping
// the lock queue. The limit is lowered so a short circuit reaches it.
func TestLockOverflowIsAnError(t *testing.T) {
	defer func(limit int) { maxLockEnd = limit }(maxLockEnd)
	maxLockEnd = 300
	dev := arch.IBMQ20Tokyo()
	c := workloads.Random(16, 2000, 45, 5)
	if _, err := Remap(c, dev, nil, Options{}); !errors.Is(err, ErrLockOverflow) {
		t.Fatalf("batch run past the limit: err = %v, want ErrLockOverflow", err)
	}
	discard := schedule.FuncSink(func([]schedule.ScheduledGate) error { return nil })
	if _, err := RemapStream(circuit.NewSliceSource(c), dev, nil, Options{}, discard); !errors.Is(err, ErrLockOverflow) {
		t.Fatalf("stream past the limit: err = %v, want ErrLockOverflow", err)
	}
	short := workloads.Random(8, 40, 45, 5)
	res, err := Remap(short, dev, nil, Options{})
	if err != nil || res.Makespan > maxLockEnd {
		t.Fatalf("run within the limit: makespan %v, err %v", res, err)
	}
}

package compile_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/circuit"
	"codar/internal/compile"
	"codar/internal/core"
	"codar/internal/experiments"
	"codar/internal/interrupt"
	"codar/internal/placement"
	"codar/internal/qasm"
	"codar/internal/schedule"
	"codar/internal/workloads"
)

// checkMetrics compares a result's measurements with the reference
// implementations over its output circuit.
func checkMetrics(t *testing.T, what string, r *compile.Result, dev *arch.Device) {
	t.Helper()
	if r.Gates != len(r.Circuit.Gates) || r.Depth != r.Circuit.Depth() || r.WeightedDepth != schedule.WeightedDepth(r.Circuit, dev.Durations) {
		t.Errorf("%s: meter gates/depth/weighted depth %d/%d/%d, reference %d/%d/%d", what,
			r.Gates, r.Depth, r.WeightedDepth,
			len(r.Circuit.Gates), r.Circuit.Depth(), schedule.WeightedDepth(r.Circuit, dev.Durations))
	}
}

// TestMeterMatchesReferenceOnFig8Matrix: over every Fig 8 device-circuit
// pair, the meter's count, depth and weighted depth of both mappers'
// outputs equal len(Gates), Circuit.Depth and schedule.WeightedDepth.
func TestMeterMatchesReferenceOnFig8Matrix(t *testing.T) {
	for _, dev := range arch.EvaluationDevices() {
		eligible := experiments.EligibleSuite(dev)
		results := make([]*compile.Result, len(eligible))
		err := experiments.RunBatch(len(eligible), 0, func(i int) (err error) {
			results[i], err = compile.Run(eligible[i].Circuit(), dev, compile.Spec{
				Algorithm: compile.Codar,
				Placement: placement.MethodSabreReverse,
				Seed:      experiments.Seed,
				Baseline:  true,
			})
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		for i, res := range results {
			checkMetrics(t, dev.Name+"/"+eligible[i].Name+"/codar", res, dev)
			checkMetrics(t, dev.Name+"/"+eligible[i].Name+"/sabre", res.Baseline, dev)
		}
	}
}

// TestMeterCountsBarriersAsNoLayer: a barrier synchronises its qubits but
// adds no depth layer and no time, exactly as Circuit.Depth and the ASAP
// scheduler treat it.
func TestMeterCountsBarriersAsNoLayer(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := circuit.New(dev.NumQubits)
	c.H(0).CX(0, 1).Barrier(0, 1, 2).X(2).Measure(2, 0).Barrier().T(5)
	c.NumClbits = 1
	m, err := compile.Measure(c, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Gates != c.Len() || m.Depth != c.Depth() || m.WeightedDepth != schedule.WeightedDepth(c, dev.Durations) || m.ESP != nil {
		t.Fatalf("Measure = %+v, want gates %d depth %d weighted depth %d and no ESP",
			m, c.Len(), c.Depth(), schedule.WeightedDepth(c, dev.Durations))
	}
}

// TestMeasureESPFromOneSchedule: with a snapshot, the ESP is the
// snapshot's estimate over the output's ASAP schedule, whose makespan is
// the metered weighted depth.
func TestMeasureESPFromOneSchedule(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	snap := calib.Synthetic(dev, 1)
	b, err := workloads.ByName("qft_10")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Run(b.Circuit(), dev, compile.Spec{
		Algorithm: compile.Codar, Placement: placement.MethodSabreReverse, Seed: 1,
		Baseline: true, Snapshot: snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*compile.Result{res, res.Baseline} {
		sched := schedule.ASAP(r.Circuit, dev.Durations)
		want, err := snap.Success(sched, dev)
		if err != nil {
			t.Fatal(err)
		}
		if r.ESP == nil || *r.ESP != want || r.WeightedDepth != sched.Makespan {
			t.Fatalf("ESP %v, weighted depth %d; want %v, %d", r.ESP, r.WeightedDepth, want, sched.Makespan)
		}
	}
}

// TestStreamEqualsRunUnderTrivialRule: under the trivial placement,
// Stream over an incrementally parsed source, Run through a sink and Run
// whole give the same gates (the sinks the same chunks) and the same
// summaries, for both routers.
func TestStreamEqualsRunUnderTrivialRule(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	src := qasm.Write(workloads.Random(16, 3000, 45, 5))
	src = strings.Replace(src, "qreg q[16];\n", "qreg q[16];\ncreg c[2];\n", 1) + "barrier q[0],q[3];\nmeasure q[3] -> c[1];\n"
	parsed, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.Decompose(parsed)
	for _, algo := range []compile.Algorithm{compile.Codar, compile.Sabre} {
		spec := compile.Spec{Algorithm: algo, Placement: placement.MethodTrivial}
		whole, err := compile.Run(c, dev, spec)
		if err != nil {
			t.Fatal(err)
		}

		var viaRun, viaStream schedule.Collector
		spec.Sink = &viaRun
		ran, err := compile.Run(c, dev, spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := qasm.NewStream(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		spec.Sink = &viaStream
		streamed, err := compile.Stream(circuit.NewDecomposeSource(st), dev, spec)
		if err != nil {
			t.Fatal(err)
		}

		if viaRun.Chunks < 2 || viaRun.Chunks != viaStream.Chunks || len(viaRun.Gates) != len(viaStream.Gates) {
			t.Fatalf("%s: Run flushed %d gates in %d chunks, Stream %d in %d", algo,
				len(viaRun.Gates), viaRun.Chunks, len(viaStream.Gates), viaStream.Chunks)
		}
		for i, g := range viaRun.Gates {
			h := viaStream.Gates[i]
			if !g.Gate.Equal(h.Gate) || g.Start != h.Start || g.Duration != h.Duration || !g.Gate.Equal(whole.Circuit.Gates[i]) {
				t.Fatalf("%s: gate %d: Run sink %v, Stream sink %v, whole %v", algo, i, g, h, whole.Circuit.Gates[i])
			}
		}
		for _, r := range []*compile.Result{ran, streamed} {
			if r.Circuit != nil || r.Metrics.Gates != whole.Gates || r.Depth != whole.Depth ||
				r.WeightedDepth != whole.WeightedDepth || r.Swaps != whole.Swaps || r.Chunks != viaRun.Chunks ||
				!r.InitialLayout.Equal(whole.InitialLayout) || !r.FinalLayout.Equal(whole.FinalLayout) {
				t.Fatalf("%s: summary %+v, whole %+v", algo, r, whole)
			}
		}
		checkMetrics(t, string(algo), whole, dev)
	}
}

// TestErrorsNameTheStage: a pipeline failure says which stage failed and
// keeps the mapper's sentinel reachable.
func TestErrorsNameTheStage(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := workloads.Random(8, 200, 45, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		spec  compile.Spec
		stage string
	}{
		{compile.Spec{Algorithm: compile.Codar, Placement: placement.MethodSabreReverse, Ctx: ctx}, compile.StageLayout},
		{compile.Spec{Algorithm: compile.Codar, Placement: placement.MethodTrivial, Ctx: ctx}, "codar"},
		{compile.Spec{Algorithm: compile.Sabre, Placement: placement.MethodTrivial, Ctx: ctx}, "sabre"},
	} {
		_, err := compile.Run(c, dev, tc.spec)
		var ce *compile.Error
		if !errors.As(err, &ce) || ce.Stage != tc.stage || !errors.Is(err, interrupt.ErrCanceled) {
			t.Errorf("%s/%s: err = %v, want a canceled %q stage error", tc.spec.Algorithm, tc.spec.Placement, err, tc.stage)
		}
	}

	sink := &schedule.Collector{}
	for name, run := range map[string]func() error{
		"unknown algorithm": func() error {
			_, err := compile.Run(c, dev, compile.Spec{Algorithm: "astar", Placement: placement.MethodTrivial})
			return err
		},
		"stream without the trivial rule": func() error {
			_, err := compile.Stream(circuit.NewSliceSource(c), dev, compile.Spec{Algorithm: compile.Codar, Placement: placement.MethodSabreReverse, Sink: sink})
			return err
		},
		"stream without a sink": func() error {
			_, err := compile.Stream(circuit.NewSliceSource(c), dev, compile.Spec{Algorithm: compile.Codar, Placement: placement.MethodTrivial})
			return err
		},
	} {
		if err := run(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSpecRejectsCodarOwnedFields: Ctx, Cost and DepthBound set in
// Spec.Codar would be overwritten by the Spec's own, so Run and Stream
// refuse each of them alone with an error that names the field to use.
func TestSpecRejectsCodarOwnedFields(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := workloads.Random(6, 60, 45, 1)
	cm, err := arch.NewCostModel(dev, make([]float64, len(dev.Edges)))
	if err != nil {
		t.Fatal(err)
	}
	for field, codar := range map[string]core.Options{
		"Ctx":        {Ctx: context.Background()},
		"Cost":       {Cost: cm},
		"DepthBound": {DepthBound: &arch.DepthBound{}},
	} {
		spec := compile.Spec{Algorithm: compile.Codar, Placement: placement.MethodTrivial, Codar: codar}
		want := "set Spec." + field + " instead"
		if _, err := compile.Run(c, dev, spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run with Codar.%s: err = %v, want %q", field, err, want)
		}
		spec.Sink = &schedule.Collector{}
		if _, err := compile.Stream(circuit.NewSliceSource(c), dev, spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Stream with Codar.%s: err = %v, want %q", field, err, want)
		}
	}
}

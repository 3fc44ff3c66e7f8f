package compile_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/compile"
	"codar/internal/experiments"
	"codar/internal/placement"
	"codar/internal/qasm"
	"codar/internal/schedule"
	"codar/internal/testutil"
	"codar/internal/workloads"
)

// request is one compile as a codard worker runs it: QASM source, device
// and spec, with a chunk sink when stream is set.
type request struct {
	src    string
	dev    *arch.Device
	spec   compile.Spec
	stream bool
}

// serviceSpec is the spec of a sync miss: CODAR from SABRE's reverse
// traversal, with the baseline.
func serviceSpec() compile.Spec {
	return compile.Spec{Algorithm: compile.Codar, Placement: placement.MethodSabreReverse, Seed: experiments.Seed, Baseline: true}
}

// outcome renders everything a response carries of one compile: the
// mapped text (whole, or the stream's chunks) and the measurements of
// both routers.
func outcome(r *compile.Result, text string) string {
	s := fmt.Sprintf("%s\n%d gates, depth %d, weighted %d, %d swaps, %d chunks, layouts %v %v",
		text, r.Gates, r.Depth, r.WeightedDepth, r.Swaps, r.Chunks, r.InitialLayout, r.FinalLayout)
	if b := r.Baseline; b != nil {
		s += fmt.Sprintf("\nbaseline %d gates, depth %d, weighted %d, %d swaps", b.Gates, b.Depth, b.WeightedDepth, b.Swaps)
	}
	return s
}

// run compiles rq on w, or on fresh memory when w is nil, and renders it.
func (rq request) run(t *testing.T, w *compile.Worker) string {
	t.Helper()
	return outcome(rq.compile(t, w))
}

// compile compiles rq on w, or on fresh memory when w is nil, and returns
// the result with its rendered text, whole or chunk by chunk.
func (rq request) compile(t *testing.T, w *compile.Worker) (*compile.Result, string) {
	t.Helper()
	spec := rq.spec
	var chunks strings.Builder
	if rq.stream {
		spec.Sink = schedule.FuncSink(func(chunk []schedule.ScheduledGate) error {
			for _, g := range chunk {
				chunks.Write(qasm.AppendGate(nil, g.Gate))
			}
			return nil
		})
	}
	var res *compile.Result
	var text string
	if w == nil {
		parsed, err := qasm.Parse(rq.src)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = compile.Run(circuit.Decompose(parsed), rq.dev, spec); err != nil {
			t.Fatal(err)
		}
		if !rq.stream {
			text = qasm.Write(res.Circuit)
		}
	} else {
		c, err := w.Parse(rq.src)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = w.Run(c, rq.dev, spec); err != nil {
			t.Fatal(err)
		}
		if !rq.stream {
			text = string(w.Write(res.Circuit))
		}
	}
	return res, text + chunks.String()
}

// requests is a mix of what codard sends one worker: sync misses on
// devices of different sizes, a SABRE request, a stream, and a request
// with user-defined gates and parameters.
func requests() []request {
	tokyo, sycamore := arch.IBMQ20Tokyo(), arch.SycamoreQ54()
	sabreSpec := serviceSpec()
	sabreSpec.Algorithm = compile.Sabre
	streamSpec := serviceSpec()
	streamSpec.Baseline = false
	return []request{
		{src: qasm.Write(workloads.Random(16, 900, 45, 1)), dev: tokyo, spec: serviceSpec()},
		{src: qasm.Write(workloads.Random(40, 700, 45, 2)), dev: sycamore, spec: serviceSpec()},
		{src: qasm.Write(workloads.Random(10, 300, 45, 3)), dev: tokyo, spec: sabreSpec},
		{src: qasm.Write(workloads.Random(16, 4000, 45, 4)), dev: tokyo, spec: streamSpec, stream: true},
		{src: customQASM, dev: tokyo, spec: serviceSpec()},
		{src: qasm.Write(workloads.Random(14, 500, 45, 5)), dev: tokyo, spec: serviceSpec()},
	}
}

// customQASM exercises the parser's definitions, parameters and
// measurements, and the lowering of compound gates.
const customQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg a[3];
qreg b[4];
creg c[7];
gate twist(theta) x, y { cx x, y; rz(theta/2) y; cx x, y; }
h a[0];
ccx a[0], a[1], b[2];
twist(pi/3) a[2], b[3];
cp(0.25) b[0], a[1];
swap b[1], a[0];
measure a[0] -> c[0];
measure a[2] -> c[2];
measure b[3] -> c[6];
`

// TestWorkerMatchesFreshContext: one worker serving a mix of requests back
// to back, from Tokyo to Sycamore and back, gives every request the bytes
// of a fresh context, and what a result holds besides its circuit (its
// layouts and measurements, the baseline's included) keeps its bytes
// while the worker serves the later requests.
func TestWorkerMatchesFreshContext(t *testing.T) {
	var w compile.Worker
	rqs := requests()
	want := make([]string, len(rqs))
	results := make([]*compile.Result, len(rqs))
	texts := make([]string, len(rqs))
	for i, rq := range rqs {
		want[i] = rq.run(t, nil)
		results[i], texts[i] = rq.compile(t, &w)
		if outcome(results[i], texts[i]) != want[i] {
			t.Fatalf("request %d on a reused worker differs from a fresh context", i)
		}
	}
	for i := range rqs {
		if outcome(results[i], texts[i]) != want[i] {
			t.Fatalf("result %d changed after later requests on its worker", i)
		}
	}
}

// TestWorkerAfterFailedCompile: a worker whose compile was canceled mid
// stream, abandoned on its depth bound mid run or panicked in its sink, or
// whose input failed to parse midway, gives the next request a fresh
// context's bytes.
func TestWorkerAfterFailedCompile(t *testing.T) {
	tokyo := arch.IBMQ20Tokyo()
	big := qasm.Write(workloads.Random(16, 6000, 45, 8))
	next := requests()[0]
	want := next.run(t, nil)
	failures := []struct {
		name string
		run  func(w *compile.Worker) error
	}{
		{"canceled", func(w *compile.Worker) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			spec := serviceSpec()
			spec.Baseline, spec.Ctx = false, ctx
			spec.Sink = schedule.FuncSink(func([]schedule.ScheduledGate) error { cancel(); return nil })
			c, err := w.Parse(big)
			if err != nil {
				return err
			}
			_, err = w.Run(c, tokyo, spec)
			return err
		}},
		{"abandoned", func(w *compile.Worker) error {
			bound := &arch.DepthBound{}
			bound.Tighten(10)
			spec := serviceSpec()
			spec.DepthBound = bound
			c, err := w.Parse(big)
			if err != nil {
				return err
			}
			_, err = w.Run(c, tokyo, spec)
			return err
		}},
		{"panicked", func(w *compile.Worker) (err error) {
			defer func() {
				if rec := recover(); rec != nil {
					err = fmt.Errorf("panic: %v", rec)
				}
			}()
			spec := serviceSpec()
			spec.Baseline = false
			spec.Sink = schedule.FuncSink(func([]schedule.ScheduledGate) error { panic("sink failed") })
			c, err := w.Parse(big)
			if err != nil {
				return err
			}
			_, err = w.Run(c, tokyo, spec)
			return err
		}},
		{"rejected", func(w *compile.Worker) error {
			// After a compile with gate definitions, two inputs that fail
			// midway, after a definition's use and after thousands of
			// gates, as codard's 400s do.
			requests()[4].run(t, w)
			if _, err := w.Parse(customQASM + "twist(pi) a[0];\n"); err == nil {
				return nil
			}
			_, err := w.Parse(big + "cx q[0], q[;\n")
			return err
		}},
	}
	for _, f := range failures {
		var w compile.Worker
		if err := f.run(&w); err == nil {
			t.Fatalf("%s: the failing compile succeeded", f.name)
		}
		if got := next.run(t, &w); got != want {
			t.Fatalf("the compile after a %s one differs from a fresh context", f.name)
		}
	}
	var w compile.Worker
	err := failures[0].run(&w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled compile: err = %v, want context.Canceled", err)
	}
}

// TestWorkerDropsLargeBuffers: a worker keeps the memory of circuits up to
// compile.RetainGates gates, and a call that grows its memory past the
// retention caps leaves it holding nothing: the live heap a worker adds is
// within measurement noise of zero after compiling and rendering a
// 200,000-gate circuit, and after parsing the same gates with a bad last
// line, a short program behind a comment full of statement ends (which
// the parser reserves gates for) or barriers over a 65,536-qubit register.
// Nor does a worker keep the source it parsed.
func TestWorkerDropsLargeBuffers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs heap figures")
	}
	dev := arch.IBMQ20Tokyo()
	atCap := qasm.Write(workloads.Random(16, compile.RetainGates, 45, 1))
	huge := qasm.Write(workloads.Random(16, 200_000, 45, 2))
	short := qasm.Write(workloads.Random(4, 20, 45, 3))
	// retained returns the live heap a fresh worker holds after parsing
	// src and, when run is set, compiling and rendering it.
	retained := func(src string, run bool) int64 {
		w := new(compile.Worker)
		before := heapAfterGC()
		c, err := w.Parse(src)
		if run {
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(c, dev, serviceSpec())
			if err != nil {
				t.Fatal(err)
			}
			_ = w.Write(res.Circuit)
		}
		after := heapAfterGC()
		// The source stays live, so the figure is the worker's alone.
		runtime.KeepAlive(src)
		if (request{src: atCap, dev: dev, spec: serviceSpec()}).run(t, w) == "" {
			t.Fatal("worker unusable after the call")
		}
		return int64(after) - int64(before)
	}
	capped := retained(atCap, true)
	t.Logf("a worker retains %d B after a %d-gate circuit", capped, compile.RetainGates)
	if capped < 1<<20 {
		t.Fatalf("a worker retains %d B after a circuit at the cap; the test no longer sees reuse", capped)
	}
	for _, tc := range []struct {
		name string
		src  string
		run  bool
	}{
		{"a 200,000-gate circuit", huge, true},
		{"200,000 gates and a bad last line", huge + "cx q[0], q[;\n", false},
		{"a short program behind 4 MiB of ';' in a comment", short + "// " + strings.Repeat(";", 4<<20) + "\n", false},
		{"barriers over a 65,536-qubit register", "OPENQASM 2.0;\nqreg q[65536];\n" + strings.Repeat("barrier q;\n", 8), false},
	} {
		dropped := retained(tc.src, tc.run)
		t.Logf("a worker retains %d B after %s", dropped, tc.name)
		if dropped > 1<<16 {
			t.Errorf("a worker retains %d B after %s, want none of its memory", dropped, tc.name)
		}
	}

	var w compile.Worker
	before := heapAfterGC()
	func() {
		if _, err := w.Parse("// " + strings.Repeat("x", 8<<20) + "\n" + short); err != nil {
			t.Fatal(err)
		}
	}()
	kept := int64(heapAfterGC()) - int64(before)
	runtime.KeepAlive(&w)
	if kept > 1<<20 {
		t.Errorf("a worker retains %d B after parsing a short program behind an 8 MiB comment; it keeps the source", kept)
	}
}

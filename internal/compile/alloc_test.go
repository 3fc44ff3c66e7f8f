package compile_test

import (
	"runtime"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/compile"
	"codar/internal/experiments"
	"codar/internal/placement"
	"codar/internal/qasm"
	"codar/internal/testutil"
)

// batchAllocLimit bounds the bytes a batch compile allocates per input
// gate on Tokyo's Fig 8 suite, each circuit on a fresh context. The figure
// repeats exactly from run to run (590.3 when the bound was set, 562.5
// since the context shares one SABRE mapper), so the bound sits about 10%
// above it.
const batchAllocLimit = 650

// reusedAllocLimit bounds the same sweep on one reused Worker. It reads
// 21.9, nearly all of it the rendered output, and the bound sits about 10%
// above that.
const reusedAllocLimit = 24

// TestBatchCompileAllocs guards the batch path's allocation: every Tokyo
// Fig 8 circuit through parse, lowering, a compile (CODAR from SABRE's
// reverse-traversal placement, with the SABRE baseline) and rendering,
// measured after one warm pass. The fresh sweep runs qasm.Parse,
// circuit.Decompose, compile.Run and qasm.Write, each on fresh memory; the
// reused sweep runs the same stages on one Worker, as a codard worker-pool
// slot does.
func TestBatchCompileAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs allocation counts")
	}
	dev := arch.IBMQ20Tokyo()
	var srcs []string
	gates := 0
	for _, b := range experiments.EligibleSuite(dev) {
		c := b.Circuit()
		srcs = append(srcs, qasm.Write(c))
		gates += len(c.Gates)
	}
	spec := compile.Spec{
		Algorithm: compile.Codar,
		Placement: placement.MethodSabreReverse,
		Seed:      experiments.Seed,
		Baseline:  true,
	}
	fresh := func(src string) {
		parsed, err := qasm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := compile.Run(circuit.Decompose(parsed), dev, spec)
		if err != nil {
			t.Fatal(err)
		}
		_ = qasm.Write(res.Circuit)
	}
	var w compile.Worker
	reused := func(src string) {
		c, err := w.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Run(c, dev, spec)
		if err != nil {
			t.Fatal(err)
		}
		_ = string(w.Write(res.Circuit))
	}
	// TotalAlloc is process-wide: one P keeps OS-thread starts out of it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sweep := range []struct {
		name  string
		run   func(string)
		limit float64
	}{{"fresh", fresh, batchAllocLimit}, {"reused", reused, reusedAllocLimit}} {
		all := func() {
			for _, src := range srcs {
				sweep.run(src)
			}
		}
		all()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		all()
		runtime.ReadMemStats(&after)
		perGate := float64(after.TotalAlloc-before.TotalAlloc) / float64(gates)
		t.Logf("%s: %d circuits, %d gates: %.1f B/gate", sweep.name, len(srcs), gates, perGate)
		if perGate > sweep.limit {
			t.Errorf("a %s batch compile allocated %.1f B per input gate, want <= %.0f", sweep.name, perGate, sweep.limit)
		}
	}
}

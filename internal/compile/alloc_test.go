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
// gate on Tokyo's Fig 8 suite. The figure repeats exactly from run to run
// (590.3 when the bound was set), so the bound sits about 10% above it.
const batchAllocLimit = 650

// TestBatchCompileAllocs guards the batch path's allocation: every Tokyo
// Fig 8 circuit through qasm.Parse, circuit.Decompose, compile.Run (CODAR
// from SABRE's reverse-traversal placement, with the SABRE baseline) and
// qasm.Write, measured after one warm pass.
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
	sweep := func() {
		for _, src := range srcs {
			parsed, err := qasm.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := compile.Run(circuit.Decompose(parsed), dev, compile.Spec{
				Algorithm: compile.Codar,
				Placement: placement.MethodSabreReverse,
				Seed:      experiments.Seed,
				Baseline:  true,
			})
			if err != nil {
				t.Fatal(err)
			}
			_ = qasm.Write(res.Circuit)
		}
	}
	// TotalAlloc is process-wide: one P keeps OS-thread starts out of it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	perGate := float64(after.TotalAlloc-before.TotalAlloc) / float64(gates)
	t.Logf("%d circuits, %d gates: %.1f B/gate", len(srcs), gates, perGate)
	if perGate > batchAllocLimit {
		t.Fatalf("a batch compile allocated %.1f B per input gate, want <= %d", perGate, batchAllocLimit)
	}
}

package compile_test

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/compile"
	"codar/internal/placement"
	"codar/internal/qasm"
	"codar/internal/schedule"
	"codar/internal/testutil"
	"codar/internal/workloads"
)

// streamHeapCeiling is the absolute bound on the live heap while the
// 1M-gate workload streams: about 8x the measured ~4 MB peak, and well
// under the ~73 MB the batch path's input alone occupies. Any O(gates)
// buffer in the streaming pipeline blows through it.
const streamHeapCeiling = 32 << 20

// heapAfterGC forces a collection and returns the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamMillionGateMemoryGuard streams a seeded 1M-gate random
// circuit from a file through the codar -stream path (qasm.NewStream,
// circuit.NewDecomposeSource, compile.Stream: CODAR from the trivial
// placement on Tokyo) and samples the live heap at every chunk. The peak
// over the pre-run floor must stay under streamHeapCeiling and at least
// 10x below what the batch path holds just to parse and lower the same
// file. The output's gate, SWAP and chunk counts are pinned too.
//
// The source is a file, not an in-memory string: a resident 20 MB source
// would raise the GC target, and with it the sampled peak.
func TestStreamMillionGateMemoryGuard(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race inflates the heap and runs the 1M gates too slowly")
	}
	path := filepath.Join(t.TempDir(), "random_16_1m.qasm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := io.WriteString(f, qasm.Write(workloads.Random(16, 1_000_000, 45, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	st, err := qasm.NewStream(f)
	if err != nil {
		t.Fatal(err)
	}

	floor := heapAfterGC()
	var (
		ms   runtime.MemStats
		peak uint64
	)
	sink := schedule.FuncSink(func([]schedule.ScheduledGate) error {
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
		return nil
	})
	res, err := compile.Stream(circuit.NewDecomposeSource(st), arch.IBMQ20Tokyo(), compile.Spec{
		Algorithm: compile.Codar,
		Placement: placement.MethodTrivial,
		Sink:      sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	peak -= min(peak, floor)

	// Batch-input residency: what any whole-circuit mapper holds before
	// its first routing decision.
	before := heapAfterGC()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := qasm.Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.Decompose(parsed)
	resident := heapAfterGC() - before
	runtime.KeepAlive(c)

	t.Logf("mapped %d gates (%d swaps) in %d chunks; stream peak %.2f MB, batch resident %.2f MB",
		res.Gates, res.Swaps, res.Chunks, float64(peak)/(1<<20), float64(resident)/(1<<20))
	if res.Gates != 1_389_381 || res.Swaps != 389_381 || res.Chunks != 977 {
		t.Errorf("streamed %d gates, %d swaps in %d chunks; want 1389381, 389381 in 977", res.Gates, res.Swaps, res.Chunks)
	}
	if peak > streamHeapCeiling {
		t.Errorf("stream peak heap %.2f MB exceeds the %d MB ceiling: residency scales with gate count",
			float64(peak)/(1<<20), streamHeapCeiling>>20)
	}
	if resident < 10*peak {
		t.Errorf("stream peak %.2f MB is not 10x below the batch input's %.2f MB",
			float64(peak)/(1<<20), float64(resident)/(1<<20))
	}
}

package core

import (
	"runtime"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/schedule"
	"codar/internal/testutil"
	"codar/internal/workloads"
)

// TestRemapStreamMarginalAllocation guards the streaming engine's
// allocation per gate: one engine serves the whole stream and re-indexes
// its window into the previous epoch's memory, so past set-up an extra
// gate costs (almost) no allocation. The figure is the difference of two
// runs over prefixes of one circuit, 100k and 50k gates, per extra gate,
// so the set-up cost cancels.
func TestRemapStreamMarginalAllocation(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs allocation counts")
	}
	const half, full = 50_000, 100_000
	c := workloads.Random(16, full, 45, 7)
	dev := arch.IBMQ20Tokyo()
	discard := schedule.FuncSink(func([]schedule.ScheduledGate) error { return nil })
	allocated := func(gates int) uint64 {
		prefix := &circuit.Circuit{NumQubits: c.NumQubits, Gates: c.Gates[:gates]}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RemapStream(circuit.NewSliceSource(prefix), dev, nil, Options{}, discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	a50, a100 := allocated(half), allocated(full)
	perGate := (float64(a100) - float64(a50)) / (full - half)
	t.Logf("TotalAlloc %d B at 50k gates, %d B at 100k: %.2f B per extra gate", a50, a100, perGate)
	if perGate > 87 {
		t.Fatalf("RemapStream allocates %.1f B per extra gate, want <= 87", perGate)
	}
}

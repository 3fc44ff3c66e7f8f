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

// TestRemapStreamFlushReusesChunk guards the stream's flush path: every
// flush renders the settled prefix into one chunk buffer, sized from the
// engine's output buffer at the first flush, and settling the prefix
// reuses the output's memory, so after the first flush a flush allocates
// nothing. It checks both halves: a whole stream's chunks all share the
// first chunk's backing array, and a steady emit-flush-settle cycle
// allocates nothing.
func TestRemapStreamFlushReusesChunk(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs allocation counts")
	}
	dev := arch.IBMQ20Tokyo()
	var first *schedule.ScheduledGate
	flushes, moved := 0, 0
	sink := schedule.FuncSink(func(chunk []schedule.ScheduledGate) error {
		if p := &chunk[:1][0]; first == nil {
			first = p
		} else if p != first {
			moved++
		}
		flushes++
		return nil
	})
	c := workloads.Random(16, 100_000, 45, 7)
	if _, err := RemapStream(circuit.NewSliceSource(c), dev, nil, Options{}, sink); err != nil {
		t.Fatal(err)
	}
	if flushes < 2 || moved > 0 {
		t.Fatalf("%d of %d flushes rendered into a new chunk buffer, want 0 of at least 2", moved, flushes)
	}

	r := newEngine(dev.NumQubits, dev, arch.NewTrivialLayout(dev.NumQubits, dev.NumQubits), Options{})
	discard := schedule.FuncSink(func([]schedule.ScheduledGate) error { return nil })
	start := 0
	cycle := func() {
		for i := 0; i < 300; i++ {
			qs := r.arena.Take(2)
			qs[0], qs[1] = i%dev.NumQubits, (i+1)%dev.NumQubits
			r.emit(circuit.Gate{Op: circuit.OpCX, Qubits: qs}, start+i/2, 2)
		}
		start += 150
		cut := len(r.out) - 100
		if err := r.flush(discard, cut); err != nil {
			t.Fatal(err)
		}
		r.settle(cut)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("an emit-flush-settle cycle after the first allocated %.1f times, want 0", allocs)
	}
}

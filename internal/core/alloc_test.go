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

// streamAllocLimit bounds the bytes RemapStream allocates per input gate
// over the long stream of TestRemapStreamAllocs. The figure repeats
// exactly from run to run (5.22 when the bound was set, nearly all of it
// the engine's set-up), so the bound sits about 10% above it, and a rise
// of one byte per gate crosses it.
const streamAllocLimit = 5.8

// TestRemapStreamAllocs guards the streaming engine's allocation per gate:
// one fresh engine, as codar -stream runs it, over a 200,000-gate stream
// on Tokyo. One engine serves the whole stream and re-indexes its window
// into the previous epoch's memory, so the figure is the engine's set-up
// spread over the stream plus what each gate costs, and a per-gate rise
// moves it by its full size.
func TestRemapStreamAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs allocation counts")
	}
	const gates = 200_000
	c := workloads.Random(16, gates, 45, 7)
	dev := arch.IBMQ20Tokyo()
	discard := schedule.FuncSink(func([]schedule.ScheduledGate) error { return nil })
	stream := func() {
		if _, err := RemapStream(circuit.NewSliceSource(c), dev, nil, Options{}, discard); err != nil {
			t.Fatal(err)
		}
	}
	// TotalAlloc is process-wide: one P keeps OS-thread starts out of it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stream()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream()
	runtime.ReadMemStats(&after)
	perGate := float64(after.TotalAlloc-before.TotalAlloc) / gates
	t.Logf("%d gates: %d B, %.2f B/gate", gates, after.TotalAlloc-before.TotalAlloc, perGate)
	if perGate > streamAllocLimit {
		t.Fatalf("RemapStream allocated %.2f B per input gate, want <= %.1f", perGate, streamAllocLimit)
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

package core

import (
	"context"
	"testing"
	"time"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/schedule"
	"codar/internal/testutil"
)

// readAheadSource feeds c through a source that is not a SliceSource, so
// the window reads it ahead on its producer goroutine (GOMAXPROCS > 1).
func readAheadSource(c *circuit.Circuit) circuit.Source {
	return circuit.NewDecomposeSource(circuit.NewSliceSource(c))
}

// runStream maps c through RemapStream, reading ahead, with a collecting
// sink.
func runStream(t *testing.T, c *circuit.Circuit, dev *arch.Device, initial *arch.Layout, opts Options) (*StreamResult, *schedule.Collector) {
	t.Helper()
	var col schedule.Collector
	res, err := RemapStream(readAheadSource(c), dev, initial, opts, &col)
	if err != nil {
		t.Fatalf("RemapStream: %v", err)
	}
	return res, &col
}

// checkStreamEqualsBatch is the core differential property: the
// concatenation of the streamed chunks is byte-identical to the batch
// schedule, and the run statistics match.
func checkStreamEqualsBatch(t *testing.T, c *circuit.Circuit, dev *arch.Device, opts Options) {
	t.Helper()
	want, err := Remap(c, dev, nil, opts)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	res, col := runStream(t, c, dev, nil, opts)
	if len(col.Gates) != len(want.Schedule.Gates) {
		t.Fatalf("streamed %d scheduled gates, batch %d", len(col.Gates), len(want.Schedule.Gates))
	}
	for i := range col.Gates {
		g, w := col.Gates[i], want.Schedule.Gates[i]
		if g.Start != w.Start || g.Duration != w.Duration || !g.Gate.Equal(w.Gate) {
			t.Fatalf("scheduled gate %d: stream {%v %d %d}, batch {%v %d %d}",
				i, g.Gate, g.Start, g.Duration, w.Gate, w.Start, w.Duration)
		}
	}
	if res.Gates != len(want.Schedule.Gates) {
		t.Errorf("StreamResult.Gates = %d, want %d", res.Gates, len(want.Schedule.Gates))
	}
	if res.Makespan != want.Makespan || res.SwapCount != want.SwapCount ||
		res.Cycles != want.Cycles || res.ForcedSwaps != want.ForcedSwaps ||
		res.DirectRoutes != want.DirectRoutes {
		t.Errorf("stats: stream {mk %d sw %d cy %d f %d r %d}, batch {mk %d sw %d cy %d f %d r %d}",
			res.Makespan, res.SwapCount, res.Cycles, res.ForcedSwaps, res.DirectRoutes,
			want.Makespan, want.SwapCount, want.Cycles, want.ForcedSwaps, want.DirectRoutes)
	}
	if !res.InitialLayout.Equal(want.InitialLayout) || !res.FinalLayout.Equal(want.FinalLayout) {
		t.Errorf("layout mismatch between stream and batch")
	}
}

// TestRemapStreamEqualsRemap sweeps random circuits (large enough to force
// several window refills) across the property devices, a small window and
// the dependency front.
func TestRemapStreamEqualsRemap(t *testing.T) {
	devices := propDevices()
	for seed := int64(1); seed <= 5; seed++ {
		dev := devices[int(seed)%len(devices)]
		c := randCircuit(seed, dev.NumQubits, 3000)
		checkStreamEqualsBatch(t, c, dev, Options{})
		checkStreamEqualsBatch(t, c, dev, Options{Window: 16, Lookahead: 4})
		checkStreamEqualsBatch(t, c, dev, Options{DisableCommutativity: true})
	}
}

// TestRemapStreamMultiEpoch pins that large inputs actually stream: more
// than one chunk is flushed and the window refills several times.
func TestRemapStreamMultiEpoch(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := randCircuit(7, dev.NumQubits, 6000)
	res, col := runStream(t, c, dev, nil, Options{})
	if col.Chunks < 2 {
		t.Fatalf("6000-gate run flushed %d chunks, want streaming (>= 2)", col.Chunks)
	}
	if res.Chunks != col.Chunks {
		t.Fatalf("StreamResult.Chunks = %d, sink saw %d", res.Chunks, col.Chunks)
	}
	if got := len(col.Gates); got < 6000 {
		t.Fatalf("streamed %d gates, want >= input size", got)
	}
}

// TestRemapStreamSmallInput pins the degenerate paths: inputs smaller than
// one refill batch, and the empty stream.
func TestRemapStreamSmallInput(t *testing.T) {
	dev := arch.Linear(4)
	checkStreamEqualsBatch(t, randCircuit(3, 4, 40), dev, Options{})

	empty := circuit.New(3)
	res, col := runStream(t, empty, dev, nil, Options{})
	if res.Gates != 0 || col.Chunks != 0 || res.Makespan != 0 {
		t.Fatalf("empty stream: gates %d chunks %d makespan %d, want zeros", res.Gates, col.Chunks, res.Makespan)
	}
}

// TestRemapStreamValidation mirrors the batch entry checks on the stream
// entry point.
func TestRemapStreamValidation(t *testing.T) {
	dev := arch.Linear(3)
	big := circuit.New(5)
	var col schedule.Collector
	if _, err := RemapStream(circuit.NewSliceSource(big), dev, nil, Options{}, &col); err == nil {
		t.Fatal("want error for 5-qubit stream on 3-qubit device")
	}
	c := circuit.New(3)
	c.CCX(0, 1, 2) // compound: the stream path must reject unlowered gates
	if _, err := RemapStream(circuit.NewSliceSource(c), dev, nil, Options{}, &col); err == nil {
		t.Fatal("want error for unlowered stream")
	}
	wrong := arch.NewTrivialLayout(2, 3)
	if _, err := RemapStream(circuit.NewSliceSource(circuit.New(3)), dev, wrong, Options{}, &col); err == nil {
		t.Fatal("want error for mis-shaped layout")
	}
}

// TestRemapStreamCancel pins cancellation mid-stream: a context canceled
// after the first flush surfaces ErrCanceled, stops the run, and strands
// no goroutine — the window's read-ahead producer has exited before
// RemapStream returns.
func TestRemapStreamCancel(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	dev := arch.IBMQ20Tokyo()
	c := randCircuit(11, dev.NumQubits, 6000)
	ctx, cancel := context.WithCancel(context.Background())
	flushed := 0
	sink := schedule.FuncSink(func(chunk []schedule.ScheduledGate) error {
		flushed++
		cancel()
		return nil
	})
	_, err := RemapStream(readAheadSource(c), dev, nil, Options{Ctx: ctx}, sink)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if flushed == 0 {
		t.Fatal("cancel fired before any flush; test needs a larger input")
	}
}

// Window-boundary adversaries: circuits engineered so that the commutative
// front is widest — or a dependency chain is longest — exactly when the
// window refills, the configurations where evicting a still-commutable
// gate or executing a chain tail early would diverge from batch.

// sharedControlRuns emits rounds of CX(0,t) over every target: all gates
// in a round commute pairwise, so the front holds the whole round while
// the window turns over beneath it.
func sharedControlRuns(n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for len(c.Gates) < gates {
		for t := 1; t < n && len(c.Gates) < gates; t++ {
			c.CX(0, t)
		}
	}
	return c
}

// longRangeChain emits one long CX dependency chain wrapping around the
// device: every gate depends on its predecessor, so each refill boundary
// lands on a chain tail.
func longRangeChain(n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	q := 0
	for len(c.Gates) < gates {
		c.CX(q, (q+1)%n)
		q = (q + 1) % n
	}
	return c
}

// singleQubitRuns emits long barrier-free rz runs (mutually commutable) on
// one qubit, punctuated by a CX that serialises against the whole run.
func singleQubitRuns(n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for len(c.Gates) < gates {
		for i := 0; i < 64 && len(c.Gates) < gates; i++ {
			c.RZ(float64(len(c.Gates)%7)*0.1, 0)
		}
		if len(c.Gates) < gates {
			c.CX(0, 1)
		}
	}
	return c
}

// TestRemapStreamWindowBoundaries runs the adversaries — each sized for
// several window refills — through the full differential check under the
// default, tight-window and commutativity-off configurations.
func TestRemapStreamWindowBoundaries(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	circuits := map[string]*circuit.Circuit{
		"shared-control": sharedControlRuns(dev.NumQubits, 3000),
		"long-chain":     longRangeChain(dev.NumQubits, 3000),
		"rz-runs":        singleQubitRuns(dev.NumQubits, 3000),
	}
	for name, c := range circuits {
		c := c
		t.Run(name, func(t *testing.T) {
			checkStreamEqualsBatch(t, c, dev, Options{})
			checkStreamEqualsBatch(t, c, dev, Options{Window: 16, Lookahead: 4})
			checkStreamEqualsBatch(t, c, dev, Options{DisableCommutativity: true})
		})
	}
}

// TestRemapStreamDeterministicFlush pins the chunking itself: for a fixed
// input and options, two runs flush identical chunk-size sequences — the
// flush points are a function of the stream, not of timing — and reading
// the source ahead does not move them.
func TestRemapStreamDeterministicFlush(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := randCircuit(13, dev.NumQubits, 6000)
	sizes := func(src circuit.Source) []int {
		var out []int
		sink := schedule.FuncSink(func(chunk []schedule.ScheduledGate) error {
			out = append(out, len(chunk))
			return nil
		})
		if _, err := RemapStream(src, dev, nil, Options{}, sink); err != nil {
			t.Fatalf("RemapStream: %v", err)
		}
		return out
	}
	a, b := sizes(readAheadSource(c)), sizes(readAheadSource(c))
	if len(a) < 2 {
		t.Fatalf("6000-gate run flushed %d chunks, want streaming", len(a))
	}
	for _, other := range [][]int{b, sizes(circuit.NewSliceSource(c))} {
		if len(a) != len(other) {
			t.Fatalf("chunk counts differ across runs: %d vs %d", len(a), len(other))
		}
		for i := range a {
			if a[i] != other[i] {
				t.Fatalf("chunk %d: %d gates then %d gates", i, a[i], other[i])
			}
		}
	}
}

// TestRemapStreamDrainedAtEOF: with a one-gate window and no look-ahead
// the engine starves only on an empty buffer, so a stream whose length is
// a multiple of the refill batch ends with an epoch that finds the buffer
// drained and the source exhausted. That epoch must end the run (the
// engine carries its starved flag from the previous epoch) and the output
// must still equal batch.
func TestRemapStreamDrainedAtEOF(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	opts := Options{Window: 1, Lookahead: -1}
	c := randCircuit(5, dev.NumQubits, 2*streamBatch(opts))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RemapStream(circuit.NewSliceSource(c), dev, nil, opts, schedule.FuncSink(func([]schedule.ScheduledGate) error { return nil }))
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("RemapStream did not return after the source was exhausted")
	}
	checkStreamEqualsBatch(t, c, dev, opts)
}

// TestSettleMovesCarryOutOfTheArena: after a flush, the unflushed carry
// moves to the front of the schedule buffer and its qubits survive the
// rewound arena being written again — including a carry gate whose slice
// sat at the start of the block, exactly where the next Take lands.
func TestSettleMovesCarryOutOfTheArena(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	r := newEngine(4, dev, arch.NewTrivialLayout(4, dev.NumQubits), Options{})
	emit := func(start, a, b int) {
		qs := r.arena.Take(2)
		qs[0], qs[1] = a, b
		r.emit(schedule.ScheduledGate{Gate: circuit.Gate{Op: circuit.OpSwap, Qubits: qs}, Start: start, Duration: 6})
	}
	emit(9, 0, 1) // scheduled into the future first, as directRoute does
	emit(1, 2, 3)
	emit(2, 4, 5)
	emit(7, 6, 7)
	want := []schedule.ScheduledGate{r.out[2], r.out[3]}
	for i := range want {
		want[i].Gate = want[i].Gate.Clone()
	}
	r.settle(2)
	for i := 0; i < 16; i++ {
		qs := r.arena.Take(2)
		qs[0], qs[1] = -1, -1
	}
	if len(r.out) != len(want) {
		t.Fatalf("carry has %d gates, want %d", len(r.out), len(want))
	}
	for i := range want {
		if g := r.out[i]; g.Start != want[i].Start || !g.Gate.Equal(want[i].Gate) {
			t.Fatalf("carry gate %d = %v at %d, want %v at %d", i, g.Gate, g.Start, want[i].Gate, want[i].Start)
		}
	}
}

package sabre

import (
	"context"
	"testing"

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

// checkStreamEqualsBatch is the SABRE differential property: the
// concatenated chunk gate values equal the batch result circuit, the times
// equal the ASAP recurrence over that circuit, and the run statistics and
// layouts match.
func checkStreamEqualsBatch(t *testing.T, c *circuit.Circuit, dev *arch.Device, initial *arch.Layout, opts Options) {
	t.Helper()
	want, err := Remap(c, dev, initial, opts)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	var col schedule.Collector
	res, err := RemapStream(readAheadSource(c), dev, initial, opts, &col)
	if err != nil {
		t.Fatalf("RemapStream: %v", err)
	}
	if len(col.Gates) != len(want.Circuit.Gates) {
		t.Fatalf("streamed %d gates, batch %d", len(col.Gates), len(want.Circuit.Gates))
	}
	avail := make([]int, dev.NumQubits)
	for i := range col.Gates {
		g, w := col.Gates[i], want.Circuit.Gates[i]
		if !g.Gate.Equal(w) {
			t.Fatalf("gate %d: stream %v, batch %v", i, g.Gate, w)
		}
		start := 0
		for _, q := range w.Qubits {
			if avail[q] > start {
				start = avail[q]
			}
		}
		dur := dev.Durations.Of(w.Op)
		for _, q := range w.Qubits {
			avail[q] = start + dur
		}
		if g.Start != start || g.Duration != dur {
			t.Fatalf("gate %d times: stream (%d,%d), ASAP (%d,%d)", i, g.Start, g.Duration, start, dur)
		}
	}
	if res.SwapCount != want.SwapCount {
		t.Errorf("SwapCount: stream %d, batch %d", res.SwapCount, want.SwapCount)
	}
	if res.NumClbits != want.Circuit.NumClbits {
		t.Errorf("NumClbits: stream %d, batch %d", res.NumClbits, want.Circuit.NumClbits)
	}
	if !res.InitialLayout.Equal(want.InitialLayout) || !res.FinalLayout.Equal(want.FinalLayout) {
		t.Errorf("layout mismatch between stream and batch")
	}
}

// TestRemapStreamEqualsRemap sweeps random circuits large enough to force
// several refills, across devices.
func TestRemapStreamEqualsRemap(t *testing.T) {
	devices := []*arch.Device{
		arch.Linear(6),
		arch.Ring(7),
		arch.Grid("g33", 3, 3),
		arch.IBMQ5(),
		arch.IBMQ20Tokyo(),
	}
	for seed := int64(1); seed <= 5; seed++ {
		dev := devices[int(seed)%len(devices)]
		c := randCircuit(seed, dev.NumQubits, 3000)
		checkStreamEqualsBatch(t, c, dev, nil, Options{})
	}
}

// TestRemapStreamSeededLayout pins the streaming path under a non-trivial
// initial layout — the configuration the service and CLI use.
func TestRemapStreamSeededLayout(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := randCircuit(9, dev.NumQubits, 2500)
	initial, err := InitialLayout(c, dev, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamEqualsBatch(t, c, dev, initial, Options{})
}

// TestRemapStreamQFT pins a structured (all-to-all) workload, whose long
// dependency chains exercise the chain-tail starvation rules hard.
func TestRemapStreamQFT(t *testing.T) {
	dev := arch.Grid("g34", 3, 4)
	checkStreamEqualsBatch(t, qftLike(12), dev, nil, Options{})
}

// TestRemapStreamMultiEpoch pins that large inputs actually stream.
func TestRemapStreamMultiEpoch(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := randCircuit(7, dev.NumQubits, 6000)
	var col schedule.Collector
	if _, err := RemapStream(circuit.NewSliceSource(c), dev, nil, Options{}, &col); err != nil {
		t.Fatal(err)
	}
	if col.Chunks < 2 {
		t.Fatalf("6000-gate run flushed %d chunks, want streaming (>= 2)", col.Chunks)
	}
}

// TestRemapStreamLateQubit pins the untouched-qubit rule: a circuit whose
// last declared qubit first appears beyond several refill batches must
// still map byte-identically (the buffer grows to cover the gap).
func TestRemapStreamLateQubit(t *testing.T) {
	dev := arch.Grid("g33", 3, 3)
	c := circuit.New(9)
	s := uint64(99)
	next := func(mod int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(mod))
	}
	for i := 0; i < 4000; i++ { // qubit 8 untouched for four batches
		a, b := next(8), next(8)
		if a == b {
			b = (b + 1) % 8
		}
		c.CX(a, b)
	}
	c.H(8)
	c.CX(8, next(8))
	checkStreamEqualsBatch(t, c, dev, nil, Options{})
}

// TestRemapStreamSmallInput pins sub-batch inputs and the empty stream.
func TestRemapStreamSmallInput(t *testing.T) {
	dev := arch.Linear(4)
	checkStreamEqualsBatch(t, randCircuit(3, 4, 40), dev, nil, Options{})

	var col schedule.Collector
	res, err := RemapStream(circuit.NewSliceSource(circuit.New(3)), dev, nil, Options{}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gates != 0 || col.Chunks != 0 {
		t.Fatalf("empty stream: gates %d chunks %d, want zeros", res.Gates, col.Chunks)
	}
}

// TestRemapStreamMeasure pins classical-bit growth through the stream path.
func TestRemapStreamMeasure(t *testing.T) {
	dev := arch.Linear(3)
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.Measure(0, 0)
	c.Measure(1, 1)
	c.Measure(2, 2)
	checkStreamEqualsBatch(t, c, dev, nil, Options{})
}

// TestRemapStreamWindowBoundaries runs the window-eviction adversaries
// (mirroring the core suite): shared-control CX rounds keep the DAG front
// maximally wide across refills, one long dependency chain puts a chain
// tail at every refill boundary (starvation rule 2's worst case), and
// barrier-free single-qubit runs stack mutually-commutable gates on one
// qubit. Each must map byte-identically to batch.
func TestRemapStreamWindowBoundaries(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	n := dev.NumQubits
	circuits := map[string]*circuit.Circuit{}

	shared := circuit.New(n)
	for len(shared.Gates) < 3000 {
		for q := 1; q < n && len(shared.Gates) < 3000; q++ {
			shared.CX(0, q)
		}
	}
	circuits["shared-control"] = shared

	chain := circuit.New(n)
	for q := 0; len(chain.Gates) < 3000; q = (q + 1) % n {
		chain.CX(q, (q+1)%n)
	}
	circuits["long-chain"] = chain

	runs := circuit.New(n)
	for len(runs.Gates) < 3000 {
		for i := 0; i < 64 && len(runs.Gates) < 3000; i++ {
			runs.RZ(float64(len(runs.Gates)%7)*0.1, 0)
		}
		if len(runs.Gates) < 3000 {
			runs.CX(0, 1)
		}
	}
	circuits["rz-runs"] = runs

	for name, c := range circuits {
		c := c
		t.Run(name, func(t *testing.T) {
			checkStreamEqualsBatch(t, c, dev, nil, Options{})
		})
	}
}

// TestRemapStreamDeterministicFlush pins the chunking: for a fixed input
// and options, two runs flush identical chunk-size sequences, and reading
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

// TestRemapStreamCancel pins cancellation mid-stream on the SABRE path: a
// context canceled after the first flush surfaces an error, stops the run,
// and strands no goroutine — the window's read-ahead producer has exited
// before RemapStream returns.
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

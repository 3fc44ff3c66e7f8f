package core

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"codar/internal/arch"
	"codar/internal/circuit"
)

// frontierRows is the option grid the front-equivalence properties sweep:
// default engine, ablations and small windows, since each changes which
// fronts the engine is queried for, and a deadlock streak of 1.
func frontierRows() []row {
	return []row{
		{opts: Options{}},
		{opts: Options{DisableCommutativity: true}},
		{opts: Options{Window: 1}},
		{opts: Options{Window: 7}},
		{opts: Options{Window: 64}},
		{opts: Options{Lookahead: -1}},
		{opts: Options{Lookahead: 3}},
		{opts: Options{DisableHfine: true}},
		{streak: 1},
	}
}

// TestIncrementalFrontMatchesNaiveEveryCycle drives full remapping runs on
// randomized circuits and devices with every reference observing, and
// additionally checks every front the incremental engine returns against
// the independent circuit.CommutativeFront implementation applied to the
// materialised remaining sequence.
func TestIncrementalFrontMatchesNaiveEveryCycle(t *testing.T) {
	devices := propDevices()
	for oi, rw := range frontierRows() {
		opts := rw.opts
		for seed := int64(0); seed < 12; seed++ {
			dev := devices[int(seed)%len(devices)]
			qubits := dev.NumQubits
			if qubits > 7 {
				qubits = 7
			}
			c := randCircuit(seed*31+int64(oi), qubits, 70)
			r, err := newStreakRemapper(c, dev, nil, opts, rw.streak)
			if err != nil {
				t.Fatal(err)
			}
			o := observe(r)
			naiveCheck := r.frontCheck
			r.frontCheck = func(front []int) {
				naiveCheck(front)
				if o.err != nil || opts.DisableCommutativity {
					return // circuit.CommutativeFront implements Definition 1 only
				}
				// Cross-package check: materialise the remaining sequence
				// and ask the reference implementation.
				var remaining []circuit.Gate
				var idx []int
				for i := r.head; i >= 0; i = r.next[i] {
					remaining = append(remaining, r.gates[i])
					idx = append(idx, i)
				}
				ref := circuit.CommutativeFront(remaining, opts.window())
				mapped := make([]int, len(ref))
				for k, pos := range ref {
					mapped[k] = idx[pos]
				}
				if !slices.Equal(front, mapped) {
					o.fail("front mismatch vs circuit.CommutativeFront: %v vs %v", front, mapped)
				}
			}
			r.run(&cursor{})
			if err := o.checked(r); err != nil {
				t.Fatalf("row %+v seed %d on %s after %d fronts: %v", rw, seed, dev.Name, o.fronts, err)
			}
		}
	}
}

// resultsIdentical compares every observable of two remapping results,
// byte-for-byte: metrics, schedules (op, qubits, start, duration, params)
// and layouts.
func resultsIdentical(a, b *Result) error {
	if a.SwapCount != b.SwapCount || a.Makespan != b.Makespan || a.Cycles != b.Cycles ||
		a.ForcedSwaps != b.ForcedSwaps || a.DirectRoutes != b.DirectRoutes {
		return fmt.Errorf("metrics differ: swaps %d/%d makespan %d/%d cycles %d/%d forced %d/%d routed %d/%d",
			a.SwapCount, b.SwapCount, a.Makespan, b.Makespan, a.Cycles, b.Cycles,
			a.ForcedSwaps, b.ForcedSwaps, a.DirectRoutes, b.DirectRoutes)
	}
	if len(a.Schedule.Gates) != len(b.Schedule.Gates) {
		return fmt.Errorf("schedule lengths differ: %d vs %d", len(a.Schedule.Gates), len(b.Schedule.Gates))
	}
	for i := range a.Schedule.Gates {
		ga, gb := a.Schedule.Gates[i], b.Schedule.Gates[i]
		if ga.Start != gb.Start || ga.Duration != gb.Duration || !ga.Gate.Equal(gb.Gate) {
			return fmt.Errorf("scheduled gate %d differs: %v@%d vs %v@%d", i, ga.Gate, ga.Start, gb.Gate, gb.Start)
		}
	}
	if !a.Circuit.Equal(b.Circuit) {
		return fmt.Errorf("output circuits differ")
	}
	for q := 0; q < a.FinalLayout.NumLogical(); q++ {
		if a.FinalLayout.Phys(q) != b.FinalLayout.Phys(q) {
			return fmt.Errorf("final layout differs at logical %d", q)
		}
	}
	return nil
}

// TestRemapIdenticalToNaiveFront is the refactor-equivalence property:
// for randomized circuits, devices and option rows, every front and
// look-ahead set of a full Remap equals the from-scratch scan's over the
// same remaining sequence. By induction over the run, the incremental
// engine makes exactly the mapping the naive scan would.
func TestRemapIdenticalToNaiveFront(t *testing.T) {
	devices := propDevices()
	grid := frontierRows()
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		rw := grid[int(uint64(seed>>8)%uint64(len(grid)))]
		qubits := dev.NumQubits
		if qubits > 6 {
			qubits = 6
		}
		c := randCircuit(seed, qubits, 60)
		if _, err := remapObserved(c, dev, nil, rw.opts, rw.streak); err != nil {
			t.Logf("row %+v on %s: %v", rw, dev.Name, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRemapIdenticalOnBenchmarks pins the equivalence on a few real
// workload shapes (deep QFT chains maximise commuting CZ/CP runs, the very
// shapes the memo and blocker caches accelerate).
func TestRemapIdenticalOnBenchmarks(t *testing.T) {
	devs := []*arch.Device{arch.IBMQ20Tokyo(), arch.Linear(10)}
	circs := []*circuit.Circuit{
		randCircuit(3, 10, 400),
		circuit.Decompose(qftLike(10)),
	}
	for _, dev := range devs {
		for _, c := range circs {
			if _, err := remapObserved(c, dev, nil, Options{}, 0); err != nil {
				t.Fatalf("%s / %s: %v", dev.Name, c.Name, err)
			}
		}
	}
}

// qftLike builds a QFT-shaped circuit: Hadamards plus long runs of
// mutually commuting controlled-phase gates. Callers lower it with
// circuit.Decompose before remapping.
func qftLike(n int) *circuit.Circuit {
	c := circuit.NewNamed("qft_like", n)
	for i := 0; i < n; i++ {
		c.H(i)
		for j := i + 1; j < n; j++ {
			c.CP(1.0/float64(j-i+1), j, i)
		}
	}
	return c
}

// BenchmarkIncrementalFrontQFT16 isolates the engine cost on the workload
// that dominated the seed profile (deep commuting CP runs, window 256).
func BenchmarkIncrementalFrontQFT16(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	c := circuit.Decompose(qftLike(16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Remap(c, dev, nil, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

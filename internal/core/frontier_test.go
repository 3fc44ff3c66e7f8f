package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"codar/internal/arch"
	"codar/internal/circuit"
)

// frontierOptions is the option grid the equivalence properties sweep:
// default engine, ablations and small windows, since each changes which
// fronts the engine is queried for.
func frontierOptions() []Options {
	return []Options{
		{},
		{DisableCommutativity: true},
		{Window: 1},
		{Window: 7},
		{Window: 64},
		{Lookahead: -1},
		{Lookahead: 3},
		{DisableHfine: true},
		{DeadlockStreak: 1},
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIncrementalFrontMatchesNaiveEveryCycle drives full remapping runs on
// randomized circuits and devices while cross-checking every front the
// incremental engine returns against both (a) the retained from-scratch
// scan over the live linked list and (b) the independent
// circuit.CommutativeFront implementation applied to the materialised
// remaining sequence. The look-ahead set must agree as well.
func TestIncrementalFrontMatchesNaiveEveryCycle(t *testing.T) {
	devices := propDevices()
	for oi, opts := range frontierOptions() {
		for seed := int64(0); seed < 12; seed++ {
			dev := devices[int(seed)%len(devices)]
			qubits := dev.NumQubits
			if qubits > 7 {
				qubits = 7
			}
			c := randCircuit(seed*31+int64(oi), qubits, 70)
			r := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(qubits, dev.NumQubits), opts)
			var failure error
			checks := 0
			r.frontCheck = func(front []int) {
				if failure != nil {
					return
				}
				checks++
				gotFront := append([]int(nil), front...)
				gotLook := append([]int(nil), r.lookSet...)
				wantFront := append([]int(nil), r.computeFrontNaive()...)
				wantLook := append([]int(nil), r.lookSet...)
				if !intsEqual(gotFront, wantFront) {
					failure = fmt.Errorf("front mismatch: incremental %v, naive %v", gotFront, wantFront)
					return
				}
				if !intsEqual(gotLook, wantLook) {
					failure = fmt.Errorf("lookSet mismatch: incremental %v, naive %v", gotLook, wantLook)
					return
				}
				if opts.DisableCommutativity {
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
				if !intsEqual(gotFront, mapped) {
					failure = fmt.Errorf("front mismatch vs circuit.CommutativeFront: %v vs %v", gotFront, mapped)
				}
			}
			r.run(&cursor{})
			if failure != nil {
				t.Fatalf("opts %+v seed %d on %s after %d checks: %v", opts, seed, dev.Name, checks, failure)
			}
			if checks == 0 {
				t.Fatalf("opts %+v seed %d: front never queried", opts, seed)
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

// TestRemapIdenticalToNaiveFront is the refactor-equivalence property: for
// randomized circuits, devices and option sets, Remap with the incremental
// engine produces byte-identical output (SwapCount, Makespan, full
// schedule, layouts) to Remap with the from-scratch front scan.
func TestRemapIdenticalToNaiveFront(t *testing.T) {
	devices := propDevices()
	optGrid := frontierOptions()
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		opts := optGrid[int(uint64(seed>>8)%uint64(len(optGrid)))]
		qubits := dev.NumQubits
		if qubits > 6 {
			qubits = 6
		}
		c := randCircuit(seed, qubits, 60)
		inc, err := Remap(c, dev, nil, opts)
		if err != nil {
			t.Logf("incremental: %v", err)
			return false
		}
		naive := opts
		naive.naiveFront = true
		ref, err := Remap(c, dev, nil, naive)
		if err != nil {
			t.Logf("naive: %v", err)
			return false
		}
		if err := resultsIdentical(inc, ref); err != nil {
			t.Logf("opts %+v on %s: %v", opts, dev.Name, err)
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
			inc, err := Remap(c, dev, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Remap(c, dev, nil, Options{naiveFront: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := resultsIdentical(inc, ref); err != nil {
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

// BenchmarkNaiveFrontQFT16 is the retained reference implementation on the
// same workload, for direct before/after comparison in one binary.
func BenchmarkNaiveFrontQFT16(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	c := circuit.Decompose(qftLike(16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Remap(c, dev, nil, Options{naiveFront: true}); err != nil {
			b.Fatal(err)
		}
	}
}

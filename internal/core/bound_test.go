package core

import (
	"errors"
	"testing"

	"codar/internal/arch"
	"codar/internal/qasm"
	"codar/internal/workloads"
)

// TestDepthBoundAborts: a bound no run can beat must surface ErrDepthBound.
func TestDepthBoundAborts(t *testing.T) {
	b, err := workloads.ByName("qft_10")
	if err != nil {
		t.Fatal(err)
	}
	dev := arch.IBMQ20Tokyo()
	var bound arch.DepthBound
	bound.Tighten(1)
	_, err = Remap(b.Circuit(), dev, nil, Options{DepthBound: &bound})
	if !errors.Is(err, ErrDepthBound) {
		t.Fatalf("err = %v, want ErrDepthBound", err)
	}
}

// TestDepthBoundLooseIsIdentical: a bound the run never crosses must leave
// the output byte-identical to an unbounded run, and the tracked ASAP lower
// bound must land exactly on the output's weighted depth (the soundness
// invariant early abandon rests on).
func TestDepthBoundLooseIsIdentical(t *testing.T) {
	for _, name := range []string{"qft_10", "rand_10_g300", "adder_6"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dev := arch.IBMQ20Tokyo()
		plain, err := Remap(b.Circuit(), dev, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var bound arch.DepthBound
		bound.Tighten(1 << 40)
		bounded, err := Remap(b.Circuit(), dev, nil, Options{DepthBound: &bound})
		if err != nil {
			t.Fatalf("%s: loose bound aborted: %v", name, err)
		}
		if qasm.Write(plain.Circuit) != qasm.Write(bounded.Circuit) {
			t.Fatalf("%s: DepthBound tracking changed the output", name)
		}
		if plain.Makespan != bounded.Makespan || plain.SwapCount != bounded.SwapCount {
			t.Fatalf("%s: stats diverged: makespan %d/%d swaps %d/%d",
				name, plain.Makespan, bounded.Makespan, plain.SwapCount, bounded.SwapCount)
		}
	}
}

// TestDepthBoundExactTieCompletes: a bound equal to the run's own final
// depth must not abort it (strict comparison; ties fall to later tie-break
// keys in the portfolio selection).
func TestDepthBoundExactTieCompletes(t *testing.T) {
	b, err := workloads.ByName("qft_10")
	if err != nil {
		t.Fatal(err)
	}
	dev := arch.IBMQ20Tokyo()
	plain, err := Remap(b.Circuit(), dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The tracked lower bound is the ASAP weighted depth of the output,
	// which can undercut the lock-simulated Makespan — bound on it.
	wd := weightedDepthOf(t, plain)
	var bound arch.DepthBound
	bound.Tighten(wd)
	res, err := Remap(b.Circuit(), dev, nil, Options{DepthBound: &bound})
	if err != nil {
		t.Fatalf("tie aborted: %v", err)
	}
	if qasm.Write(res.Circuit) != qasm.Write(plain.Circuit) {
		t.Fatal("tie-bounded run changed the output")
	}
}

func weightedDepthOf(t *testing.T, res *Result) int {
	t.Helper()
	s := res.Schedule()
	free := make([]int, s.NumQubits)
	makespan := 0
	for _, sg := range s.Gates {
		start := 0
		for _, q := range sg.Gate.Qubits {
			if free[q] > start {
				start = free[q]
			}
		}
		end := start + sg.Duration
		for _, q := range sg.Gate.Qubits {
			free[q] = end
		}
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}

package sabre

import (
	"errors"
	"math/rand"
	"testing"

	"codar/internal/arch"
	"codar/internal/qasm"
	"codar/internal/schedule"
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
// the output byte-identical to an unbounded run.
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
		if plain.SwapCount != bounded.SwapCount {
			t.Fatalf("%s: swaps diverged: %d/%d", name, plain.SwapCount, bounded.SwapCount)
		}
	}
}

// TestDepthBoundExactTieCompletes: a bound equal to the output's weighted
// depth must not abort (the incremental ASAP tracker and schedule.ASAP
// agree exactly, and the comparison is strict).
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
	wd := schedule.WeightedDepth(plain.Circuit, dev.Durations)
	var bound arch.DepthBound
	bound.Tighten(wd)
	res, err := Remap(b.Circuit(), dev, nil, Options{DepthBound: &bound})
	if err != nil {
		t.Fatalf("tie aborted: %v", err)
	}
	if qasm.Write(res.Circuit) != qasm.Write(plain.Circuit) {
		t.Fatal("tie-bounded run changed the output")
	}
	// One cycle tighter must abort — pinning that the tracker reaches
	// exactly the final weighted depth.
	var tight arch.DepthBound
	tight.Tighten(wd - 1)
	if _, err := Remap(b.Circuit(), dev, nil, Options{DepthBound: &tight}); !errors.Is(err, ErrDepthBound) {
		t.Fatalf("bound wd-1: err = %v, want ErrDepthBound", err)
	}
}

// TestInitialLayoutUnderDepthBound: placement ignores the bound. The two
// passes InitialLayout runs land, as full runs, on its layout, and a bound
// of any tightness, down to one cycle, leaves that layout unchanged.
func TestInitialLayoutUnderDepthBound(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := workloads.Random(12, 400, 50, 3)
	const seed = 1
	plain, err := InitialLayout(c, dev, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The two passes InitialLayout runs, as full runs.
	perm := rand.New(rand.NewSource(seed)).Perm(dev.NumQubits)
	start, err := arch.NewLayout(perm[:c.NumQubits], dev.NumQubits)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := Remap(c, dev, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := Remap(c.Reversed(), dev, fwd.FinalLayout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bwd.FinalLayout.Equal(plain) {
		t.Fatal("the backward full run does not land on InitialLayout's layout")
	}
	fwdWD := schedule.WeightedDepth(fwd.Circuit, dev.Durations)
	bwdWD := schedule.WeightedDepth(bwd.Circuit, dev.Durations)
	for _, d := range []int{1, min(fwdWD, bwdWD) - 1, max(fwdWD, bwdWD), 1 << 40} {
		var bound arch.DepthBound
		bound.Tighten(d)
		got, err := InitialLayout(c, dev, seed, Options{DepthBound: &bound})
		if err != nil {
			t.Fatalf("bound %d: %v", d, err)
		}
		if !got.Equal(plain) {
			t.Fatalf("bound %d changed the layout: %v vs %v", d, got, plain)
		}
	}
}

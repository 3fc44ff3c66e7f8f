package core

import (
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
)

func TestComputeFrontMatchesCircuitPackage(t *testing.T) {
	// The remapper's linked-list front must agree with the reference
	// implementation over the full sequence.
	dev := arch.Linear(6)
	c := randCircuit(17, 6, 60)
	r := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(6, 6), Options{Window: 1 << 20})
	got := append([]int(nil), r.computeFront()...)
	want := circuit.CommutativeFront(c.Gates, 0)
	if len(got) != len(want) {
		t.Fatalf("front sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("front[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestComputeFrontAfterUnlink(t *testing.T) {
	dev := arch.Linear(3)
	c := circuit.New(3).H(0).T(0).H(1)
	r := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(3, 3), Options{})
	front := r.computeFront()
	// h q0 and h q1 are CF; t q0 is blocked by h q0.
	if len(front) != 2 {
		t.Fatalf("front = %v", front)
	}
	// Removing h q0 exposes t q0.
	r.unlink(0)
	front = r.computeFront()
	if len(front) != 2 || front[0] != 1 || front[1] != 2 {
		t.Fatalf("front after unlink = %v, want [1 2]", front)
	}
	r.unlink(1)
	r.unlink(2)
	if got := r.computeFront(); len(got) != 0 {
		t.Fatalf("front of empty list = %v", got)
	}
}

func TestLookaheadSetContents(t *testing.T) {
	dev := arch.Linear(4)
	// Serial chain: cx(0,1); cx(1,2); cx(2,3) — front is only the first;
	// the look-ahead set holds the next two-qubit gates.
	c := circuit.New(4).CX(0, 1).CX(1, 2).CX(2, 3)
	r := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(4, 4), Options{Lookahead: 10})
	front := r.computeFront()
	if len(front) != 1 || front[0] != 0 {
		t.Fatalf("front = %v", front)
	}
	if look := r.f.lookSet(); len(look) != 2 {
		t.Fatalf("lookSet = %v, want the two blocked CXs", look)
	}
	// Lookahead disabled: the set stays empty.
	r2 := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(4, 4), Options{Lookahead: -1})
	r2.computeFront()
	if look := r2.f.lookSet(); len(look) != 0 {
		t.Fatalf("lookSet with lookahead off = %v", look)
	}
}

func TestLookaheadSetExtendsPastWindow(t *testing.T) {
	dev := arch.Linear(6)
	c := circuit.New(6)
	// One serial chain on qubit 0/1 to fill the window, then distant gates.
	for i := 0; i < 8; i++ {
		c.H(0)
		c.T(0) // blocks commutation: strictly serial
	}
	c.CX(2, 3)
	c.CX(3, 4)
	c.CX(4, 5)
	r := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(6, 6), Options{Window: 4, Lookahead: 3})
	r.computeFront()
	// The window covers only the serial 1q prefix; the look-ahead set must
	// still reach the two-qubit gates beyond it.
	if look := r.f.lookSet(); len(look) != 3 {
		t.Fatalf("lookSet = %v, want 3 gates beyond the window", look)
	}
}

// TestFrontTwoQubitFilter: of a front holding one-qubit gates and a CX,
// only the CX reaches the scorer, listed at both of its physical qubits.
func TestFrontTwoQubitFilter(t *testing.T) {
	dev := arch.Linear(4)
	c := circuit.New(4).H(0).CX(1, 2).T(3)
	r := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(4, 4), Options{})
	if front := r.computeFront(); len(front) != 3 {
		t.Fatalf("front = %v, want all three gates", front)
	}
	if r.sc.n2q != 1 {
		t.Fatalf("scorer holds %d two-qubit front gates, want the CX alone", r.sc.n2q)
	}
	for p, inc := range r.sc.inc2q {
		want := 0
		if p == 1 || p == 2 {
			want = 1
		}
		if len(inc) != want || (want == 1 && inc[0] != 1) {
			t.Errorf("physical qubit %d lists %v", p, inc)
		}
	}
}

func TestDisableCommutativityFrontIsPrefix(t *testing.T) {
	dev := arch.Linear(4)
	// cx(0,1); cx(0,2): share the control and commute, but with
	// commutativity disabled the second must not be in the front.
	c := circuit.New(4).CX(0, 1).CX(0, 2)
	r := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(4, 4), Options{DisableCommutativity: true})
	front := r.computeFront()
	if len(front) != 1 || front[0] != 0 {
		t.Fatalf("dependency front = %v, want [0]", front)
	}
	r2 := newRemapper(circuit.Assemble(c), dev, arch.NewTrivialLayout(4, 4), Options{})
	if got := r2.computeFront(); len(got) != 2 {
		t.Fatalf("commutative front = %v, want both gates", got)
	}
}

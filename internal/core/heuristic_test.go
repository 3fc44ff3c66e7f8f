package core

import (
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
)

// newTestRemapper builds a remapper around a circuit/device pair without
// running it, for white-box tests of the candidate machinery.
func newTestRemapper(t *testing.T, c *circuit.Circuit, dev *arch.Device) *remapper {
	t.Helper()
	l := arch.NewTrivialLayout(c.NumQubits, dev.NumQubits)
	return newRemapper(circuit.Assemble(c), dev, l, Options{})
}

// TestFig5CandidateCollection reproduces the Fig 5 remapping cycle on a
// 3×3 grid: a CNOT between P1 and P6 must be routed at cycle 2 while P3 is
// locked until 3. The edge (P3,P6) must be excluded from the candidates,
// and after applying a SWAP the candidates touching its qubits retire.
func TestFig5CandidateCollection(t *testing.T) {
	dev := arch.Grid("g33", 3, 3)
	c := circuit.New(9)
	c.CX(1, 6)
	r := newTestRemapper(t, c, dev)
	r.locks[3] = 3 // P3 busy until cycle 3
	const now = 2

	front := r.computeFront()
	cands := r.collectCandidates(front, now)

	has := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		for _, cd := range cands {
			if cd.a == a && cd.b == b {
				return true
			}
		}
		return false
	}
	// Free edges around P1 (neighbours 0, 2, 4) and P6 (neighbours 3, 7).
	for _, e := range [][2]int{{1, 0}, {1, 2}, {1, 4}, {6, 7}} {
		if !has(e[0], e[1]) {
			t.Errorf("candidate (%d,%d) missing", e[0], e[1])
		}
	}
	// The locked edge (P3,P6) must be excluded ("the edge between q3 and
	// q6 is not free").
	if has(3, 6) {
		t.Error("edge (3,6) should be excluded: P3 is locked")
	}
	if len(cands) != 4 {
		t.Errorf("%d candidates, want 4", len(cands))
	}

	// Applying the SWAP on (1,4) locks its qubits; retirement drops every
	// candidate touching P1 (Fig 5(b)).
	r.launchSwap(1, 4, now)
	live := 0
	for _, cd := range cands {
		if r.locks[cd.a] <= now && r.locks[cd.b] <= now {
			live++
		}
	}
	if live != 1 { // only (6,7) survives
		t.Errorf("%d live candidates after SWAP, want 1", live)
	}
}

func TestHBasicSigns(t *testing.T) {
	dev := arch.Linear(4) // 0-1-2-3
	c := circuit.New(4)
	c.CX(0, 3) // distance 3
	r := newTestRemapper(t, c, dev)
	front2q := r.twoQubit(r.computeFront())

	mk := func(a, b int) swapCand {
		if a > b {
			a, b = b, a
		}
		id, ok := dev.EdgeIndex(a, b)
		if !ok {
			t.Fatalf("(%d,%d) is not an edge", a, b)
		}
		return swapCand{a: a, b: b, edge: id}
	}
	// Moving logical 0 from P0 to P1 shortens the distance: +1.
	if got := r.hBasic(mk(0, 1), front2q, r.distTab); got != 1 {
		t.Errorf("hBasic(swap 0,1) = %d, want 1", got)
	}
	// Moving logical 3 from P3 to P2: +1.
	if got := r.hBasic(mk(2, 3), front2q, r.distTab); got != 1 {
		t.Errorf("hBasic(swap 2,3) = %d, want 1", got)
	}
	// Swapping P1,P2 moves neither operand: 0.
	if got := r.hBasic(mk(1, 2), front2q, r.distTab); got != 0 {
		t.Errorf("hBasic(swap 1,2) = %d, want 0", got)
	}
}

func TestHBasicCountsAllFrontGates(t *testing.T) {
	// Two front CXs: moving a shared qubit helps one and hurts the other.
	dev := arch.Linear(5) // 0-1-2-3-4
	c := circuit.New(5)
	c.CX(0, 2) // distance 2
	c.CX(4, 2) // distance 2, commutes (shared target)
	r := newTestRemapper(t, c, dev)
	front2q := r.twoQubit(r.computeFront())
	if len(front2q) != 2 {
		t.Fatalf("front2q = %v, want both CXs", front2q)
	}
	id, _ := dev.EdgeIndex(1, 2)
	// SWAP(1,2): moves logical 2 to P1. CX(0,2): 2->1 (+1). CX(4,2): 2->3 (-1).
	if got := r.hBasic(swapCand{a: 1, b: 2, edge: id}, front2q, r.distTab); got != 0 {
		t.Errorf("hBasic = %d, want 0 (benefit and harm cancel)", got)
	}
}

func TestHFineBalancesCoordinates(t *testing.T) {
	dev := arch.Grid("g33", 3, 3)
	c := circuit.New(9)
	c.CX(0, 7) // P0=(0,0) to P7=(2,1): HD 1, VD 2
	r := newTestRemapper(t, c, dev)
	front2q := r.twoQubit(r.computeFront())

	cand := func(a, b int) swapCand {
		if a > b {
			a, b = b, a
		}
		id, _ := dev.EdgeIndex(a, b)
		return swapCand{a: a, b: b, edge: id}
	}
	// SWAP(0,3): logical 0 at (1,0), HD 1 VD 1 -> |VD-HD| = 0.
	if got := r.hFine(cand(0, 3), front2q); got != 0 {
		t.Errorf("hFine(0,3) = %d, want 0", got)
	}
	// SWAP(0,1): logical 0 at (0,1), HD 0 VD 2 -> -2.
	if got := r.hFine(cand(0, 1), front2q); got != -2 {
		t.Errorf("hFine(0,1) = %d, want -2", got)
	}
	// Both have Hbasic +1; pickBest must prefer the balanced one.
	cands := []swapCand{cand(0, 1), cand(0, 3)}
	best, hb, _ := r.pickBest(cands, front2q, r.f.lookSet(), false)
	if cands[best].b != 3 || hb != 1 {
		t.Errorf("pickBest chose %v with hb=%d, want swap(0,3) hb=1", cands[best], hb)
	}
}

func TestHFineZeroWithoutCoords(t *testing.T) {
	dev := arch.Ring(6) // no coordinates
	c := circuit.New(6)
	c.CX(0, 3)
	r := newTestRemapper(t, c, dev)
	front2q := r.twoQubit(r.computeFront())
	id, _ := dev.EdgeIndex(0, 1)
	if got := r.hFine(swapCand{a: 0, b: 1, edge: id}, front2q); got != 0 {
		t.Errorf("hFine = %d, want 0 on coordinate-free device", got)
	}
}

func TestPickBestDeterministicTieBreak(t *testing.T) {
	dev := arch.Ring(4)
	c := circuit.New(4)
	c.CX(0, 2)
	r := newTestRemapper(t, c, dev)
	front2q := r.twoQubit(r.computeFront())
	cands := r.collectCandidates(r.computeFront(), 0)
	if len(cands) < 2 {
		t.Fatalf("expected several candidates, got %d", len(cands))
	}
	best1, _, _ := r.pickBest(cands, front2q, r.f.lookSet(), false)
	// Reversing the candidate order must not change the winner.
	rev := make([]swapCand, len(cands))
	for i, c := range cands {
		rev[len(cands)-1-i] = c
	}
	best2, _, _ := r.pickBest(rev, front2q, r.f.lookSet(), false)
	if cands[best1].edge != rev[best2].edge {
		t.Error("pickBest is order-dependent")
	}
}

func TestCollectCandidatesSkipsAdjacentGates(t *testing.T) {
	dev := arch.Linear(4)
	c := circuit.New(4)
	c.CX(1, 2) // adjacent: contributes no candidates
	r := newTestRemapper(t, c, dev)
	cands := r.collectCandidates(r.computeFront(), 0)
	if len(cands) != 0 {
		t.Errorf("adjacent gate produced candidates: %v", cands)
	}
}

func TestCollectCandidatesLockedSide(t *testing.T) {
	dev := arch.Linear(4)
	c := circuit.New(4)
	c.CX(0, 3)
	r := newTestRemapper(t, c, dev)
	r.locks[0] = 5 // the q0 side is busy: only q3-side edges qualify
	cands := r.collectCandidates(r.computeFront(), 0)
	if len(cands) != 1 || cands[0].a != 2 || cands[0].b != 3 {
		t.Errorf("cands = %v, want only (2,3)", cands)
	}
}

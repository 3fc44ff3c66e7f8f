package core

import "codar/internal/arch"

// Heuristic cost function ⟨Hbasic, Hfine⟩ (paper §IV-D).
//
// Hbasic (Eq. 1) measures how much a candidate SWAP reduces the summed
// coupling-graph distance of every two-qubit gate in the commutative front:
//
//	Hbasic = Σ_{g∈ICF} L(π, g) − L(π_new, g)
//
// Hfine (Eq. 2) breaks Hbasic ties on 2-D lattices by preferring layouts
// where the remaining gates have balanced horizontal/vertical distance,
// which preserves more shortest routing paths:
//
//	Hfine = −Σ_{g∈ICF} |VD(π_new, g) − HD(π_new, g)|
//
// The paper states Eq. 2 for a single gate g; we sum over the front, which
// reduces to the paper's form when one gate is blocked and generalises
// consistently otherwise (constant terms cancel when comparing candidates).
// The delta scorer (scorer.go) evaluates both; their from-scratch forms,
// hBasic and hFine, are the reference its equivalence tests compare with
// (reference_test.go).

// swapCand is a candidate SWAP on a physical coupler.
type swapCand struct {
	a, b int // physical qubits, a < b
	edge int // stable edge index for deterministic tie-breaking
}

// collectCandidates gathers the lock-free coupler SWAPs adjacent to the
// operands of every blocked (distance > 1) two-qubit CF gate (§IV-C step 3,
// the Fig 5 procedure). Requiring the gate-side qubit to be free matches
// the paper: a SWAP is a candidate only if the whole edge is lock-free.
// The candidate buffer and the edge-dedup stamps are reused across cycles:
// an edge is "seen" this call when its stamp equals the current epoch, so
// clearing costs nothing and the hot loop allocates only on first growth.
func (r *remapper) collectCandidates(front []int, t int) []swapCand {
	if r.edgeStamp == nil {
		r.edgeStamp = make([]int32, len(r.dev.Edges))
		r.edgeEpoch = 0
	}
	r.edgeEpoch++
	epoch := r.edgeEpoch
	cands := r.cands[:0]
	for _, i := range front {
		if !r.soa.Is2Q[i] {
			continue
		}
		q1, q2 := r.soa.Pair(i)
		p1 := r.layout.Phys(q1)
		p2 := r.layout.Phys(q2)
		if r.dev.Distance(p1, p2) <= 1 {
			continue // already executable; only locks are in the way
		}
		for _, side := range [2]int{p1, p2} {
			if r.locks[side] > t {
				continue
			}
			ids := r.dev.Couplers(side)
			for k, nb := range r.dev.Neighbors(side) {
				id := ids[k]
				if r.locks[nb] > t || r.edgeStamp[id] == epoch {
					continue
				}
				r.edgeStamp[id] = epoch
				a, b := side, nb
				if a > b {
					a, b = b, a
				}
				cands = append(cands, swapCand{a: a, b: b, edge: int(id)})
			}
		}
	}
	r.cands = cands
	return cands
}

// fineDiff is the per-gate Eq. 2 term |VD − HD| between two physical
// qubits.
func fineDiff(dev *arch.Device, p1, p2 int) int {
	diff := dev.VD(p1, p2) - dev.HD(p1, p2)
	if diff < 0 {
		diff = -diff
	}
	return diff
}

// insertSwaps implements §IV-C step 3: repeatedly select the
// highest-priority candidate SWAP and launch it at time t while a candidate
// with positive Hbasic remains. Launching a SWAP locks its qubits, which
// retires every candidate touching them; the delta scorer (scorer.go)
// rescores only the survivors a launch actually perturbed. Reports whether
// any SWAP launched.
//
// The priority is ⟨Hbasic, Hlook, Hfine⟩, compared lexicographically, with
// remaining ties broken by the lowest edge index. Hbasic ranks under the
// ranking metric (the calibration-weighted one under Options.Cost), but
// the insertion gate Hbasic > 0 is always the hop-metric value, exactly as
// in the paper — under a calibrated metric ranking and gating deliberately
// split (DESIGN.md §8). On calibrated runs selection is restricted to
// hop-progress candidates: a lateral fidelity move that outranks every real
// candidate must lose to the best progress-making one, not veto the round.
// Uncalibrated runs rank everything and gate on the winner, the
// paper-exact pinned behaviour. The scorer restricts both: with hop equal
// to Hbasic, the unrestricted winner carries the largest Hbasic, so it
// passes the gate exactly when a positive candidate exists, and then it is
// also the restricted winner.
func (r *remapper) insertSwaps(front []int, t int) bool {
	if r.sc.n2q == 0 {
		return false
	}
	cands := r.collectCandidates(front, t)
	inserted := false
	for len(cands) > 0 {
		best := r.sc.pick(cands, true)
		if best < 0 {
			break
		}
		c := cands[best]
		r.launchSwap(c.a, c.b, t)
		inserted = true
		// Drop candidates whose qubits are now locked.
		live := cands[:0]
		for _, cc := range cands {
			if r.locks[cc.a] <= t && r.locks[cc.b] <= t {
				live = append(live, cc)
			}
		}
		cands = live
	}
	return inserted
}

// forceSwap is the paper's deadlock move: launch the single
// highest-priority candidate regardless of Hbasic sign.
func (r *remapper) forceSwap(front []int, t int) {
	cands := r.collectCandidates(front, t)
	best := r.sc.pick(cands, false)
	if best < 0 {
		return
	}
	r.launchSwap(cands[best].a, cands[best].b, t)
	r.forced++
}

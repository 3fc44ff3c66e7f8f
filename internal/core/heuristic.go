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

// swappedPhys returns where physical qubit p ends up under a SWAP of (a, b).
func swappedPhys(p, a, b int) int {
	switch p {
	case a:
		return b
	case b:
		return a
	default:
		return p
	}
}

// hBasic computes Eq. 1 for a candidate over the two-qubit front gates,
// under the ranking metric (tab = r.distTab) or the hop metric
// (tab = r.hopTab).
func (r *remapper) hBasic(c swapCand, front2q []int, tab []int32) int {
	sum := 0
	for _, i := range front2q {
		g := r.gates[i]
		p1 := r.layout.Phys(g.Qubits[0])
		p2 := r.layout.Phys(g.Qubits[1])
		if p1 != c.a && p1 != c.b && p2 != c.a && p2 != c.b {
			continue // distance unchanged
		}
		oldD := int(tab[p1*r.nq+p2])
		n1, n2 := swappedPhys(p1, c.a, c.b), swappedPhys(p2, c.a, c.b)
		sum += oldD - int(tab[n1*r.nq+n2])
	}
	return sum
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

// hFine computes Eq. 2 for a candidate over the two-qubit front gates.
// Devices without lattice coordinates score 0 (ties then break by edge
// index).
func (r *remapper) hFine(c swapCand, front2q []int) int {
	if r.opts.DisableHfine || !r.dev.HasCoords() {
		return 0
	}
	sum := 0
	for _, i := range front2q {
		g := r.gates[i]
		p1 := swappedPhys(r.layout.Phys(g.Qubits[0]), c.a, c.b)
		p2 := swappedPhys(r.layout.Phys(g.Qubits[1]), c.a, c.b)
		sum -= fineDiff(r.dev, p1, p2)
	}
	return sum
}

// hLook scores a candidate against the look-ahead set (the next
// Options.Lookahead two-qubit gates beyond the front), the same
// distance-reduction sum as Hbasic. It never influences whether a SWAP is
// inserted — only which of several equal-Hbasic SWAPs wins — so the
// paper's insertion policy is preserved exactly (see DESIGN.md §4).
func (r *remapper) hLook(c swapCand) int {
	return r.hBasic(c, r.lookSet, r.distTab)
}

// pickBest returns the index into cands of the candidate with the highest
// priority ⟨Hbasic, Hlook, Hfine⟩ (compared lexicographically), breaking
// remaining ties by the lowest edge index; -1 when cands is empty. The
// returned Hbasic is the winner's hop-metric Eq. 1 value, which
// still gates insertion (Hbasic > 0) exactly as in the paper — under a
// calibrated metric ranking and gating deliberately split (DESIGN.md §8).
// requireProgress (insertSwaps on calibrated runs only, so the uncalibrated
// selection stays byte-identical) drops candidates without positive hop
// progress before ranking: a "lateral" fidelity move outranking every real
// candidate must lose to the best progress-making one, not veto the round.
func (r *remapper) pickBest(cands []swapCand, front2q []int, requireProgress bool) (best, bestBasic, bestFine int) {
	best = -1
	var bestKey [3]int
	for k, c := range cands {
		hb := r.hBasic(c, front2q, r.distTab)
		hbHop := hb
		if r.weighted {
			hbHop = r.hBasic(c, front2q, r.hopTab)
		}
		if requireProgress && hbHop <= 0 {
			continue
		}
		var hl, hf int
		if len(r.lookSet) > 0 {
			hl = r.hLook(c)
		}
		if !r.opts.DisableHfine {
			hf = r.hFine(c, front2q)
		}
		key := [3]int{hb, hl, hf}
		better := best < 0
		if !better {
			for i := 0; i < 3; i++ {
				if key[i] != bestKey[i] {
					better = key[i] > bestKey[i]
					goto decided
				}
			}
			better = c.edge < cands[best].edge
		decided:
		}
		if better {
			best, bestBasic, bestFine, bestKey = k, hbHop, hf, key
		}
	}
	return best, bestBasic, bestFine
}

// insertSwaps implements §IV-C step 3: repeatedly select the
// highest-priority candidate SWAP and launch it at time t while a candidate
// with positive Hbasic remains. Launching a SWAP locks its qubits, which
// retires every candidate touching them; the scores of the survivors are
// re-evaluated against the updated layout each round — by the delta scorer
// (scorer.go) by default, which rescores only the candidates a launch
// actually perturbed, or from scratch by pickBest under the test-only
// naiveScore option. Reports whether any SWAP launched.
func (r *remapper) insertSwaps(front []int, t int) bool {
	front2q := r.frontTwoQubit(front)
	if len(front2q) == 0 {
		return false
	}
	cands := r.collectCandidates(front, t)
	if r.sc != nil {
		r.sc.sync()
	}
	inserted := false
	// On calibrated runs selection is restricted to hop-progress candidates
	// (requireProgress): a lateral fidelity move that outranks every real
	// candidate must lose to the best progress-making one, not veto the
	// round. Uncalibrated runs rank everything and gate on the winner — the
	// paper-exact pinned behaviour. The scorer restricts both: with hop
	// equal to Hbasic, the unrestricted winner carries the largest Hbasic,
	// so it passes the gate exactly when a positive candidate exists, and
	// then it is also the restricted winner.
	req := r.weighted
	for len(cands) > 0 {
		best := -1
		if r.sc != nil {
			best = r.sc.pick(cands, true)
		} else if b, hb, _ := r.pickBest(cands, front2q, req); hb > 0 {
			best = b
		}
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
	front2q := r.frontTwoQubit(front)
	cands := r.collectCandidates(front, t)
	var best int
	if r.sc != nil {
		r.sc.sync()
		best = r.sc.pick(cands, false)
	} else {
		best, _, _ = r.pickBest(cands, front2q, false)
	}
	if best < 0 {
		return
	}
	r.launchSwap(cands[best].a, cands[best].b, t)
	r.forced++
}

package core

import "codar/internal/circuit"

// scorer is the delta-scoring engine for the SWAP-candidate search
// (DESIGN.md §6). The reference selection (pickBest in reference_test.go,
// which the equivalence tests compare every pick with) recomputes
// ⟨Hbasic, Hlook, Hfine⟩ for every candidate against every front and
// look-ahead gate on every insertion round — O(|cands| × (|front2q| +
// |lookSet|)) distance lookups — even though a launched SWAP only perturbs
// the scores of candidates sharing a qubit with it. The scorer exploits
// three locality facts:
//
//   - A gate contributes to a candidate's Hbasic/Hlook only when one of
//     its physical operands is the candidate's qubit, so per-physical-qubit
//     incidence lists reduce one evaluation to O(deg) incident gates.
//   - Hfine terms of non-incident gates are identical for every candidate
//     (swapping (a, b) moves nothing else), so scoring only the incident
//     terms shifts all candidates' Hfine by the same per-round constant,
//     which cancels in every comparison. Hbasic and Hlook are exact
//     (non-incident terms are exactly zero), so the Hbasic > 0 insertion
//     gate is untouched.
//   - A score is a pure function of the layout and the front/look-ahead
//     sets — never of the clock or the locks — so a cached per-edge part
//     stays valid across insertion rounds and simulated cycles until a
//     gate incident to that edge enters or leaves its set, or a launched
//     SWAP moves one of its incident gates' operands.
//
// The frontier reports each set change as it happens — a two-qubit gate
// joining the front or launched from it (enter2q, leave2q), a gate joining
// or leaving the look-ahead set (enterLook, leaveLook) — and the remapper
// reports layout changes through noteSwap; each dirties exactly the parts
// whose incident terms changed. Selection order and tie-breaking are
// pickBest's, which the pick observer of the equivalence tests checks at
// every pick.
type scorer struct {
	r *remapper

	// Per-physical-qubit incidence lists of the two-qubit front (inc2q)
	// and look-ahead (incLook) gates, and the number of two-qubit front
	// gates (the frontier counts the look-ahead set).
	inc2q   [][]int32
	incLook [][]int32
	n2q     int

	// Cached per-edge score parts, each with its own validity bit in valid
	// (cleared by dirtyAround), so a look-ahead change leaves Hbasic cached.
	parts []edgeScore
	valid []uint8
	// wantFine is whether Hfine ranks at all (coordinates present, not
	// ablated).
	wantFine bool
	// ties is pick's scratch: the candidates still tied on the key prefix.
	ties []int32
}

// edgeScore holds one candidate's key parts: Hbasic under the ranking
// metric (hb) and the hop metric (hop), Hfine (hf) and Hlook (hl).
type edgeScore struct {
	hb, hop, hf, hl int
}

// Validity bits of an edge's cached parts. The front parts fall together
// (a front or layout change moves all three); the look-ahead part falls
// alone when only the look-ahead set changes.
const (
	basicValid uint8 = 1 << iota // hb, hop
	fineValid                    // hf
	lookValid                    // hl

	frontParts = basicValid | fineValid
	allParts   = frontParts | lookValid
)

// reset points the scorer at remapper r for a run on its device, keeping
// its memory; load empties the sets.
func (s *scorer) reset(r *remapper) {
	s.r = r
	if nq := r.dev.NumQubits; len(s.inc2q) != nq {
		s.inc2q = make([][]int32, nq)
		s.incLook = make([][]int32, nq)
	}
	s.parts = circuit.Reuse(s.parts, len(r.dev.Edges))
	s.valid = circuit.Reuse(s.valid, len(r.dev.Edges))
	s.wantFine = !r.opts.DisableHfine && r.dev.HasCoords()
}

// load empties both sets and the score cache, reusing the memory of the
// previous load.
func (s *scorer) load() {
	for p := range s.inc2q {
		s.inc2q[p] = s.inc2q[p][:0]
		s.incLook[p] = s.incLook[p][:0]
	}
	s.n2q = 0
	clear(s.valid)
}

// phys returns the current physical operands of two-qubit gate i.
func (s *scorer) phys(i int32) (int, int) {
	q1, q2 := s.r.soa.Pair(int(i))
	return s.r.layout.Phys(q1), s.r.layout.Phys(q2)
}

// dirtyAround invalidates the given parts of every edge incident to
// physical qubit p.
func (s *scorer) dirtyAround(p int, parts uint8) {
	for _, id := range s.r.dev.Couplers(p) {
		s.valid[id] &^= parts
	}
}

// link adds gate i to the incidence lists at its current endpoints and
// dirties the parts whose scores now include it.
func (s *scorer) link(i int32, inc [][]int32, parts uint8) {
	p1, p2 := s.phys(i)
	inc[p1] = append(inc[p1], i)
	inc[p2] = append(inc[p2], i)
	s.dirtyAround(p1, parts)
	s.dirtyAround(p2, parts)
}

// unlink removes gate i from the incidence lists. The lists are keyed by
// current physical endpoints: every layout change flows through noteSwap,
// which keeps them consistent, so the gate is found at phys(i).
func (s *scorer) unlink(i int32, inc [][]int32, parts uint8) {
	p1, p2 := s.phys(i)
	for _, p := range [2]int{p1, p2} {
		l := inc[p]
		for k, gi := range l {
			if gi == i {
				l[k] = l[len(l)-1]
				inc[p] = l[:len(l)-1]
				break
			}
		}
		s.dirtyAround(p, parts)
	}
}

// enter2q adds two-qubit gate i, which joined the front.
func (s *scorer) enter2q(i int) {
	s.n2q++
	s.link(int32(i), s.inc2q, frontParts)
}

// leave2q removes two-qubit gate i, launched from the front.
func (s *scorer) leave2q(i int) {
	s.n2q--
	s.unlink(int32(i), s.inc2q, frontParts)
}

// enterLook adds gate i, which joined the look-ahead set.
func (s *scorer) enterLook(i int) { s.link(int32(i), s.incLook, lookValid) }

// leaveLook removes gate i, which left the look-ahead set.
func (s *scorer) leaveLook(i int) { s.unlink(int32(i), s.incLook, lookValid) }

// noteSwap records that physical qubits a and b swapped state. All gates
// with an endpoint at a now have it at b and vice versa, so the two
// incidence lists swap wholesale. Every part whose incident-gate terms
// changed is dirtied: all parts of the edges at a and b, and at the other
// end of each moved gate the parts of the set it belongs to. Must be
// called after the layout update.
func (s *scorer) noteSwap(a, b int) {
	s.inc2q[a], s.inc2q[b] = s.inc2q[b], s.inc2q[a]
	s.incLook[a], s.incLook[b] = s.incLook[b], s.incLook[a]
	s.dirtyAround(a, allParts)
	s.dirtyAround(b, allParts)
	for _, p := range [2]int{a, b} {
		for _, i := range s.inc2q[p] {
			p1, p2 := s.phys(i)
			s.dirtyAround(p1^p2^p, frontParts)
		}
		for _, i := range s.incLook[p] {
			p1, p2 := s.phys(i)
			s.dirtyAround(p1^p2^p, lookValid)
		}
	}
}

// gain is the exact Eq. 1 sum Σ D(old) − D(new) over the gates of inc
// incident to candidate (a, b), under distance table tab; non-incident
// gates contribute zero. A gate at a whose other end sits at o ≠ b moves
// from D(a, o) to D(b, o), mirror-wise at b, and a gate spanning a and b
// keeps its distance. The table is symmetric, so every term reads the two
// candidate rows at o.
func (s *scorer) gain(inc [][]int32, a, b int, tab []int32) int {
	n := s.r.nq
	rowA, rowB := tab[a*n:(a+1)*n], tab[b*n:(b+1)*n]
	return s.sideGain(inc[a], a, b, rowA, rowB) + s.sideGain(inc[b], b, a, rowB, rowA)
}

// sideGain sums from[o] − to[o] over the other ends o of the gates in
// incidence list ents of qubit p, skipping gates whose other end is the
// partner qubit.
func (s *scorer) sideGain(ents []int32, p, partner int, from, to []int32) int {
	sum := 0
	for _, i := range ents {
		p1, p2 := s.phys(i)
		if o := p1 ^ p2 ^ p; o != partner {
			sum += int(from[o] - to[o])
		}
	}
	return sum
}

// fine is the candidate's Eq. 2 sum over the incident front gates,
// shifted by the per-round constant −Σ|VD−HD| of the unswapped layout
// (selection-invariant): Σ |VD−HD|(old) − |VD−HD|(new).
func (s *scorer) fine(a, b int) int {
	return s.sideFine(s.inc2q[a], a, b) + s.sideFine(s.inc2q[b], b, a)
}

// sideFine is fine's sum over the incidence list ents of qubit p, as
// sideGain is gain's.
func (s *scorer) sideFine(ents []int32, p, partner int) int {
	dev := s.r.dev
	sum := 0
	for _, i := range ents {
		p1, p2 := s.phys(i)
		if o := p1 ^ p2 ^ p; o != partner {
			sum += fineDiff(dev, p, o) - fineDiff(dev, partner, o)
		}
	}
	return sum
}

// part returns one cached key part of candidate c — fineValid selects
// Hfine, lookValid Hlook — computing it first when dirty.
func (s *scorer) part(c swapCand, which uint8) int {
	sc := &s.parts[c.edge]
	if s.valid[c.edge]&which == 0 {
		if which == lookValid {
			sc.hl = s.gain(s.incLook, c.a, c.b, s.r.distTab)
		} else {
			sc.hf = s.fine(c.a, c.b)
		}
		s.valid[c.edge] |= which
	}
	if which == lookValid {
		return sc.hl
	}
	return sc.hf
}

// pick returns the index into cands of the highest-priority candidate,
// -1 when none is eligible. The order is pickBest's: ⟨Hbasic, Hlook,
// Hfine⟩ compared lexicographically, then the lowest edge. It is evaluated
// in that order, one part at a time: Hbasic for every candidate, Hlook
// only for those tied on the best Hbasic, Hfine only for those also tied
// on Hlook. Under progress only candidates with positive hop-metric
// Hbasic are eligible (pickBest's requireProgress), so a round with
// nothing positive ends after the first pass. Clean cached parts are
// reused; dirty ones are rescored over the incident gates only.
func (s *scorer) pick(cands []swapCand, progress bool) int {
	ties := s.ties[:0]
	var best int
	for k, c := range cands {
		sc := &s.parts[c.edge]
		if s.valid[c.edge]&basicValid == 0 {
			r := s.r
			hb := s.gain(s.inc2q, c.a, c.b, r.distTab)
			hop := hb
			if r.weighted {
				hop = s.gain(s.inc2q, c.a, c.b, r.hopTab)
			}
			sc.hb, sc.hop = hb, hop
			s.valid[c.edge] |= basicValid
		}
		if progress && sc.hop <= 0 {
			continue
		}
		if len(ties) == 0 || sc.hb > best {
			ties, best = append(ties[:0], int32(k)), sc.hb
		} else if sc.hb == best {
			ties = append(ties, int32(k))
		}
	}
	if len(ties) > 1 && s.r.f.lookCount > 0 {
		ties = s.narrow(cands, ties, lookValid)
	}
	if len(ties) > 1 && s.wantFine {
		ties = s.narrow(cands, ties, fineValid)
	}
	s.ties = ties
	win := -1
	for _, k := range ties {
		if win < 0 || cands[k].edge < cands[win].edge {
			win = int(k)
		}
	}
	if s.r.pickCheck != nil {
		s.r.pickCheck(cands, win, progress)
	}
	return win
}

// narrow keeps, in place, the candidates of ties with the largest value of
// one key part.
func (s *scorer) narrow(cands []swapCand, ties []int32, which uint8) []int32 {
	keep := ties[:0]
	var best int
	for _, k := range ties {
		v := s.part(cands[k], which)
		if len(keep) == 0 || v > best {
			keep, best = append(keep[:0], k), v
		} else if v == best {
			keep = append(keep, k)
		}
	}
	return keep
}

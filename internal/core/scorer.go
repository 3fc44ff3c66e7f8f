package core

import "codar/internal/circuit"

// scorer is the delta-scoring engine for the SWAP-candidate search
// (DESIGN.md §6). The reference selection (pickBest in heuristic.go,
// retained for the equivalence property tests) recomputes
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
//     sets — never of the clock or the locks — so a cached per-edge key
//     stays valid across insertion rounds and simulated cycles until a
//     gate incident to that edge enters or leaves a set, or a launched
//     SWAP moves one of its incident gates' operands.
//
// The remapper reports set changes through sync (diffing the freshly
// computed front2q/lookSet against the scorer's mirror) and layout changes
// through noteSwap; both dirty exactly the edges whose incident terms
// changed. Selection order and tie-breaking are byte-compatible with
// pickBest, which the scorer-equivalence property tests enforce.
type scorer struct {
	r *remapper

	// Per-physical-qubit incidence lists of the mirrored two-qubit front
	// (inc2q) and look-ahead (incLook) gates, plus the membership flags and
	// flat mirrors used by the sync diff.
	inc2q   [][]int32
	incLook [][]int32
	in2q    []bool
	inLook  []bool
	mir2q   []int32
	mirLook []int32

	// Epoch stamps for the sync diff (per gate index).
	seen      []int32
	seenEpoch int32

	// Cached per-edge candidate keys, invalidated by dirtyAround.
	keyValid []bool
	keys     [][3]int
	hbs      []int
}

func newScorer(r *remapper) *scorer {
	nq := r.dev.NumQubits
	return &scorer{
		r:        r,
		inc2q:    make([][]int32, nq),
		incLook:  make([][]int32, nq),
		keyValid: make([]bool, len(r.dev.Edges)),
		keys:     make([][3]int, len(r.dev.Edges)),
		hbs:      make([]int, len(r.dev.Edges)),
	}
}

// load empties the mirrored sets and the key cache for the remapper's
// current gates, reusing the memory of the previous load.
func (s *scorer) load() {
	n := len(s.r.gates)
	s.in2q = circuit.Reuse(s.in2q, n)
	s.inLook = circuit.Reuse(s.inLook, n)
	s.seen = circuit.Reuse(s.seen, n)
	s.seenEpoch = 0
	for p := range s.inc2q {
		s.inc2q[p] = s.inc2q[p][:0]
		s.incLook[p] = s.incLook[p][:0]
	}
	s.mir2q = s.mir2q[:0]
	s.mirLook = s.mirLook[:0]
	clear(s.keyValid)
}

// phys returns the current physical operands of two-qubit gate i.
func (s *scorer) phys(i int32) (int, int) {
	q1, q2 := s.r.soa.Pair(int(i))
	return s.r.layout.Phys(q1), s.r.layout.Phys(q2)
}

// dirtyAround invalidates the cached key of every edge incident to
// physical qubit p.
func (s *scorer) dirtyAround(p int) {
	dev := s.r.dev
	for _, nb := range dev.Neighbors(p) {
		id, _ := dev.EdgeIndex(p, nb)
		s.keyValid[id] = false
	}
}

// link adds gate i to the incidence lists at its current endpoints and
// dirties the edges whose scores now include it.
func (s *scorer) link(i int32, inc [][]int32) {
	p1, p2 := s.phys(i)
	inc[p1] = append(inc[p1], i)
	inc[p2] = append(inc[p2], i)
	s.dirtyAround(p1)
	s.dirtyAround(p2)
}

// unlink removes gate i from the incidence lists. The lists are keyed by
// current physical endpoints: every layout change flows through noteSwap,
// which keeps them consistent, so the gate is found at phys(i).
func (s *scorer) unlink(i int32, inc [][]int32) {
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
		s.dirtyAround(p)
	}
}

// sync diffs the remapper's freshly computed front2q and lookSet buffers
// against the mirror, linking entrants, unlinking leavers and dirtying the
// affected edges. Cost is O(|front2q| + |lookSet|) per cycle — the same as
// scoring a single candidate naively.
func (s *scorer) sync() {
	s.syncSet(s.r.front2q, &s.mir2q, s.in2q, s.inc2q)
	s.syncSet(s.r.lookSet, &s.mirLook, s.inLook, s.incLook)
}

func (s *scorer) syncSet(cur []int, mirror *[]int32, in []bool, inc [][]int32) {
	s.seenEpoch++
	e := s.seenEpoch
	for _, i := range cur {
		s.seen[i] = e
		if !in[i] {
			in[i] = true
			s.link(int32(i), inc)
			*mirror = append(*mirror, int32(i))
		}
	}
	keep := (*mirror)[:0]
	for _, i := range *mirror {
		if s.seen[i] == e {
			keep = append(keep, i)
			continue
		}
		in[i] = false
		s.unlink(i, inc)
	}
	*mirror = keep
}

// noteSwap records that physical qubits a and b swapped state. All gates
// with an endpoint at a now have it at b and vice versa, so the two
// incidence lists swap wholesale. Every edge whose incident-gate terms
// changed — the edges at a, at b and at the other endpoints of the moved
// gates — is dirtied. Must be called after the layout update.
func (s *scorer) noteSwap(a, b int) {
	s.inc2q[a], s.inc2q[b] = s.inc2q[b], s.inc2q[a]
	s.incLook[a], s.incLook[b] = s.incLook[b], s.incLook[a]
	s.dirtyAround(a)
	s.dirtyAround(b)
	for _, p := range [2]int{a, b} {
		for _, i := range s.inc2q[p] {
			p1, p2 := s.phys(i)
			s.dirtyAround(p1)
			s.dirtyAround(p2)
		}
		for _, i := range s.incLook[p] {
			p1, p2 := s.phys(i)
			s.dirtyAround(p1)
			s.dirtyAround(p2)
		}
	}
}

// deltas computes a candidate's Hbasic and Hfine contributions over the
// gates incident to its qubits: hb is the exact Eq. 1 sum under the ranking
// metric (non-incident gates contribute zero), hop is the same sum under
// the hop metric — equal to hb on uncalibrated runs, computed separately
// when a weighted metric is attached because the insertion gate stays a
// hop-progress question (DESIGN.md §8) — and hf is the Eq. 2 sum shifted by
// the per-round constant −Σ|VD−HD| of the unswapped layout
// (selection-invariant). Gates touching both candidate qubits are visited
// once via the c.a-side skip.
func (s *scorer) deltas(c swapCand, inc [][]int32, wantFine bool) (hb, hop, hf int) {
	r := s.r
	dev := r.dev
	for _, i := range inc[c.a] {
		p1, p2 := s.phys(i)
		n1, n2 := swappedPhys(p1, c.a, c.b), swappedPhys(p2, c.a, c.b)
		hb += r.distance(p1, p2) - r.distance(n1, n2)
		if r.weighted {
			hop += r.hopDistance(p1, p2) - r.hopDistance(n1, n2)
		}
		if wantFine {
			hf += fineDiff(dev, p1, p2) - fineDiff(dev, n1, n2)
		}
	}
	for _, i := range inc[c.b] {
		p1, p2 := s.phys(i)
		if p1 == c.a || p2 == c.a {
			continue // already counted from the c.a side
		}
		n1, n2 := swappedPhys(p1, c.a, c.b), swappedPhys(p2, c.a, c.b)
		hb += r.distance(p1, p2) - r.distance(n1, n2)
		if r.weighted {
			hop += r.hopDistance(p1, p2) - r.hopDistance(n1, n2)
		}
		if wantFine {
			hf += fineDiff(dev, p1, p2) - fineDiff(dev, n1, n2)
		}
	}
	if !r.weighted {
		hop = hb
	}
	return hb, hop, hf
}

// score computes (or recomputes) the ranking key and hop-metric Hbasic of
// candidate c from the incidence lists.
func (s *scorer) score(c swapCand) (key [3]int, hop int) {
	r := s.r
	wantFine := !r.opts.DisableHfine && r.dev.HasCoords()
	hb, hop, hf := s.deltas(c, s.inc2q, wantFine)
	var hl int
	if len(r.lookSet) > 0 {
		hl, _, _ = s.deltas(c, s.incLook, false)
	}
	return [3]int{hb, hl, hf}, hop
}

// pick returns the index into cands of the highest-priority candidate and
// its hop-metric Hbasic (the insertion-gate value), mirroring pickBest's
// ordering, lowest-edge tie-break and requireProgress filter exactly; -1
// when cands is empty (or, under requireProgress, none makes hop
// progress). Clean cached keys are reused; dirty ones are rescored in
// O(incident gates).
func (s *scorer) pick(cands []swapCand, requireProgress bool) (best, bestBasic int) {
	best = -1
	var bestKey [3]int
	for k, c := range cands {
		var key [3]int
		var hb int
		if s.keyValid[c.edge] {
			key, hb = s.keys[c.edge], s.hbs[c.edge]
		} else {
			key, hb = s.score(c)
			s.keys[c.edge], s.hbs[c.edge] = key, hb
			s.keyValid[c.edge] = true
		}
		if requireProgress && hb <= 0 {
			continue
		}
		better := best < 0
		if !better && key != bestKey {
			for i := 0; i < 3; i++ {
				if key[i] != bestKey[i] {
					better = key[i] > bestKey[i]
					break
				}
			}
		} else if !better {
			better = c.edge < cands[best].edge
		}
		if better {
			best, bestBasic, bestKey = k, hb, key
		}
	}
	return best, bestBasic
}

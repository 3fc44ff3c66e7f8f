package sabre

import (
	"fmt"

	"codar/internal/arch"
	"codar/internal/circuit"
)

// The from-scratch reference scoring and the observer that compares every
// pick of the incidence-indexed scorer with it (DESIGN.md §6). A run whose
// every pick equals the reference's, on the same state, makes exactly the
// decisions a reference-scored run makes from the same start.

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

// score computes the decay-weighted SABRE heuristic for a candidate:
// H = max(decay) * ( Σ_F D/|F| + W * Σ_E D/|E| ) under the post-swap layout.
// It is the reference implementation the scoring-equivalence tests compare
// scoreDelta with.
func (m *mapper) score(c swapCand, front, ext []int) float64 {
	sw := func(p int) int { return swappedPhys(p, c.a, c.b) }
	sumOver := func(set []int) (float64, int) {
		sum, n := 0.0, 0
		for _, k := range set {
			if !m.soa.Is2Q[k] {
				continue
			}
			q1, q2 := m.soa.Pair(k)
			p1 := sw(m.layout.Phys(q1))
			p2 := sw(m.layout.Phys(q2))
			sum += float64(m.distance(p1, p2))
			n++
		}
		return sum, n
	}
	h, nf := sumOver(front)
	if nf > 0 {
		h /= float64(nf)
	}
	if len(ext) > 0 {
		he, ne := sumOver(ext)
		if ne > 0 {
			h += DefaultExtendedWeight * he / float64(ne)
		}
	}
	d := m.decay[c.a]
	if m.decay[c.b] > d {
		d = m.decay[c.b]
	}
	return d * h
}

// observer is the reference scoring attached to one mapper: it keeps the
// first divergence and counts the picks it compared.
type observer struct {
	err   error
	picks int
}

// observe attaches the reference to m's pick hook. Each pick must be the
// candidate the reference ranks first (the lowest score, ties to the
// lowest edge index), and every candidate's scoreDelta must equal its
// score bit for bit.
func observe(m *mapper) *observer {
	o := &observer{}
	m.pickCheck = func(front, ext []int, cands []swapCand, best swapCand) {
		o.picks++
		if o.err != nil {
			return
		}
		want := cands[0]
		wantScore := m.score(want, front, ext)
		for _, c := range cands[1:] {
			s := m.score(c, front, ext)
			if s < wantScore || (s == wantScore && c.edge < want.edge) {
				want, wantScore = c, s
			}
		}
		if best != want {
			o.err = fmt.Errorf("pick %d: scorer picked %v, the reference %v", o.picks, best, want)
			return
		}
		for _, c := range cands {
			if got, ref := m.scoreDelta(c, ext), m.score(c, front, ext); got != ref {
				o.err = fmt.Errorf("pick %d: candidate %v scores %v, the reference %v", o.picks, c, got, ref)
				return
			}
		}
	}
	return o
}

// checked is the observer's verdict on a run that swapped swaps times: its
// first divergence, or an error when the run swapped without a pick to
// observe (only the rare termination escape swaps without one).
func (o *observer) checked(swaps int) error {
	if o.err == nil && swaps > 0 && o.picks == 0 {
		return fmt.Errorf("%d swaps but no pick observed", swaps)
	}
	return o.err
}

// prepared returns a mapper prepared for a batch run over a, as the entry
// points prepare theirs.
func prepared(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, opts Options, discard bool) (*mapper, error) {
	m := new(mapper)
	return m, m.prepare(a, dev, initial, opts, discard)
}

// remapObserved maps c as Remap does, with the reference observing every
// pick.
func remapObserved(c *circuit.Circuit, dev *arch.Device, initial *arch.Layout, opts Options) (*Result, error) {
	a := circuit.Assemble(c)
	m, err := prepared(a, dev, initial, opts, false)
	if err != nil {
		return nil, err
	}
	o := observe(m)
	if err := m.pass(a.Circ, a.SoA); err != nil {
		return nil, err
	}
	if err := o.checked(m.swaps); err != nil {
		return nil, err
	}
	return &Result{Circuit: m.out, InitialLayout: m.initial, FinalLayout: m.layout, SwapCount: m.swaps}, nil
}

// initialLayoutObserved computes InitialLayout's layout on the same
// layout-only mapper, with the reference observing every pick of both
// passes.
func initialLayoutObserved(c *circuit.Circuit, dev *arch.Device, seed int64, opts Options) (*arch.Layout, error) {
	a := circuit.Assemble(c)
	start, err := arch.RandomLayout(seed, min(c.NumQubits, dev.NumQubits), dev.NumQubits)
	if err != nil {
		return nil, err
	}
	m, err := prepared(a, dev, start, opts, true)
	if err != nil {
		return nil, err
	}
	o := observe(m)
	l, err := m.reverseTraversal(a)
	if err != nil {
		return nil, err
	}
	return l, o.checked(m.swaps)
}

package core

import (
	"context"
	"fmt"
	"slices"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/interrupt"
)

// The from-scratch reference implementations of the engine's incremental
// parts, and the observer that compares the engine with them answer by
// answer (DESIGN.md §5, §6). A run whose every front, pick and event answer
// equals the reference's, on the same state, makes exactly the decisions a
// reference-driven run makes from the same start, so observing a run
// checks everything substituting the references into it would.

// naive is the reference front scan's view of an engine: through the
// embedded remapper it reads the engine's remaining sequence and options,
// and it writes its own per-qubit stacks, front, look-ahead set and
// starvation flag (the front and the flag shadow the engine's), so running
// it as an observer leaves the engine untouched.
type naive struct {
	*remapper
	seenStack      [][]int
	touched        []int
	front, lookSet []int
	starved        bool
}

// computeFrontNaive is the pre-incremental implementation: rescan the
// window and re-run every pairwise commutation check. O(window × avg
// per-qubit stack height) Commute calls per query.
func (r *naive) computeFrontNaive() []int {
	window := r.opts.window()
	r.front = r.front[:0]
	// Reset per-qubit stacks touched by the previous call.
	for _, q := range r.touched {
		r.seenStack[q] = r.seenStack[q][:0]
	}
	r.touched = r.touched[:0]

	look := r.opts.lookahead()
	r.lookSet = r.lookSet[:0]
	count := 0
	i := r.head
	for ; i >= 0 && count < window; i = r.next[i] {
		g := r.gates[i]
		ok := true
	scan:
		for _, q := range g.Qubits {
			stack := r.seenStack[q]
			if r.opts.DisableCommutativity {
				if len(stack) > 0 {
					ok = false
					break scan
				}
				continue
			}
			for _, j := range stack {
				if !circuit.Commute(r.gates[j], g) {
					ok = false
					break scan
				}
			}
		}
		if ok {
			r.front = append(r.front, i)
		} else if g.Op.TwoQubit() && len(r.lookSet) < look {
			r.lookSet = append(r.lookSet, i)
		}
		for _, q := range g.Qubits {
			if len(r.seenStack[q]) == 0 {
				r.touched = append(r.touched, q)
			}
			r.seenStack[q] = append(r.seenStack[q], i)
		}
		count++
	}
	if count < window && r.sourceOpen {
		// Streaming: ran out of buffered gates with the scan window
		// underfull — same starvation rule as the incremental engine.
		r.starved = true
		return nil
	}
	// Top up the look-ahead set past the window: everything beyond is
	// non-front by construction.
	for ; i >= 0 && len(r.lookSet) < look; i = r.next[i] {
		if r.gates[i].Op.TwoQubit() {
			r.lookSet = append(r.lookSet, i)
		}
	}
	if len(r.lookSet) < look && r.sourceOpen {
		r.starved = true
		return nil
	}
	return r.front
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
func (r *remapper) hLook(c swapCand, lookSet []int) int {
	return r.hBasic(c, lookSet, r.distTab)
}

// pickBest returns the index into cands of the candidate with the highest
// priority ⟨Hbasic, Hlook, Hfine⟩ (compared lexicographically) over the
// two-qubit front gates front2q and the look-ahead set lookSet, breaking
// remaining ties by the lowest edge index; -1 when cands is empty. The
// returned Hbasic is the winner's hop-metric Eq. 1 value, which
// still gates insertion (Hbasic > 0) exactly as in the paper — under a
// calibrated metric ranking and gating deliberately split (DESIGN.md §8).
// requireProgress (insertSwaps on calibrated runs only, so the uncalibrated
// selection stays byte-identical) drops candidates without positive hop
// progress before ranking: a "lateral" fidelity move outranking every real
// candidate must lose to the best progress-making one, not veto the round.
func (r *remapper) pickBest(cands []swapCand, front2q, lookSet []int, requireProgress bool) (best, bestBasic, bestFine int) {
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
		if len(lookSet) > 0 {
			hl = r.hLook(c, lookSet)
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

// allFreeScan is the O(Q) reference implementation of allFree.
func (r *remapper) allFreeScan(t int) bool {
	for _, l := range r.locks {
		if l > t {
			return false
		}
	}
	return true
}

// nextEventScan is the O(Q) reference implementation of nextEvent.
func (r *remapper) nextEventScan(t int) int {
	nt := -1
	for _, l := range r.locks {
		if l > t && (nt < 0 || l < nt) {
			nt = l
		}
	}
	if nt < 0 {
		return t
	}
	return nt
}

// twoQubit returns the two-qubit gates of front, the gates the distance
// heuristics score.
func (r *remapper) twoQubit(front []int) []int {
	var out []int
	for _, i := range front {
		if r.soa.Is2Q[i] {
			out = append(out, i)
		}
	}
	return out
}

// lookSet returns the frontier's look-ahead set in sequence order. Every
// member is live, so none precedes the head.
func (f *frontier) lookSet() []int {
	var set []int
	for i := max(f.r.head, 0); i <= f.lookLast; i++ {
		if f.inLook[i] {
			set = append(set, i)
		}
	}
	return set
}

// observer is every reference attached to one engine: it keeps the first
// divergence, counts the answers it compared, and holds the sets of the
// last observed front, which every pick until the next front is checked
// against. The first divergence cancels the run's context, so the run
// stops within ctxCheckEvery cycles instead of acting on a wrong answer
// to the end.
type observer struct {
	err                   error
	fronts, picks, events int
	front2q, lookSet      []int
	cancel                context.CancelFunc
}

func (o *observer) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
		o.cancel()
	}
}

// checked is the observer's verdict on r's finished run: its first
// divergence, or an error when a hook the run must have called never fired
// (every cycle queries the front, and every cycle but a last one that
// launches all remaining gates queries the event queue; every SWAP outside
// the deadlock escape is a scorer pick). It releases the run's context.
func (o *observer) checked(r *remapper) error {
	o.cancel()
	switch {
	case o.err != nil:
		return o.err
	case r.cycles > 0 && o.fronts == 0, r.cycles > 1 && o.events == 0:
		return fmt.Errorf("%d cycles but %d fronts and %d event answers observed", r.cycles, o.fronts, o.events)
	case r.swapCount > 0 && o.picks == 0 && r.routed == 0:
		return fmt.Errorf("%d swaps but no pick observed", r.swapCount)
	}
	return nil
}

// observe attaches every reference to r's hooks: the naive scan checks
// each front and look-ahead set, checkPick each scorer pick, and the O(Q)
// scans each event answer. It also gives r a context, derived from
// Options.Ctx, that the first divergence cancels.
func observe(r *remapper) *observer {
	parent := r.opts.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	r.opts.Ctx = ctx
	r.check = interrupt.NewChecker(ctx, ctxCheckEvery)
	o := &observer{cancel: cancel}
	n := &naive{remapper: r, seenStack: make([][]int, r.layout.NumLogical())}
	r.frontCheck = func(front []int) {
		o.fronts++
		n.starved = false
		want := n.computeFrontNaive()
		o.front2q = r.twoQubit(front)
		o.lookSet = slices.Clone(n.lookSet)
		switch {
		case n.starved:
			o.fail("front %d: the naive scan starves", o.fronts)
		case !slices.Equal(front, want):
			o.fail("front %d: incremental %v, naive %v", o.fronts, front, want)
		case !slices.Equal(r.f.lookSet(), n.lookSet):
			o.fail("front %d: look-ahead set incremental %v, naive %v", o.fronts, r.f.lookSet(), n.lookSet)
		}
	}
	r.pickCheck = func(cands []swapCand, best int, progress bool) {
		o.picks++
		if err := checkPick(r, cands, best, progress, o.front2q, o.lookSet); err != nil {
			o.fail("pick %d: %v", o.picks, err)
		}
	}
	r.eventCheck = func(t int, answer any) {
		o.events++
		switch got := answer.(type) {
		case bool:
			if want := r.allFreeScan(t); got != want {
				o.fail("allFree(%d) = %v, scan says %v", t, got, want)
			}
		case int:
			if want := r.nextEventScan(t); got != want {
				o.fail("nextEvent(%d) = %d, scan says %d", t, got, want)
			} else if err := liveTop(r, t, got); err != nil {
				o.fail("nextEvent(%d): %v", t, err)
			}
		}
	}
	return o
}

// liveTop checks the lock heap nextEvent(t) left behind: empty when it
// answered t, else topped by a live entry, one whose qubit's lock still
// ends at the answer. A superseded entry can only tie a live one (the
// deadlock escape supersedes a lock with the next SWAP on its path, whose
// partner keeps the old end), so comparing the answer alone cannot see
// nextEvent accept one.
func liveTop(r *remapper, t, next int) error {
	if len(r.lockHeap) == 0 {
		if next != t {
			return fmt.Errorf("empty heap but answer %d", next)
		}
		return nil
	}
	top := r.lockHeap[0]
	end, q := int(top>>lockQubitBits), int(top&(1<<lockQubitBits-1))
	if end != next || r.locks[q] != end {
		return fmt.Errorf("heap top (%d, qubit %d) is not live at answer %d (lock %d)", end, q, next, r.locks[q])
	}
	return nil
}

// checkPick compares one scorer pick with the rule the naive path applies
// on the engine's state, over the two-qubit gates front2q of the observed
// front and the reference look-ahead set lookSet — in insertSwaps
// (progress) pickBest, restricted to hop progress on calibrated runs only,
// whose winner launches when its hop Hbasic is positive; in forceSwap
// pickBest unrestricted. It then checks the scorer's own view of the two
// sets: every physical qubit's incidence lists must hold exactly the set
// gates at that qubit, so a set change the frontier failed to report shows
// at the first pick after it. Last, it compares every part the scorer's
// cache holds as valid, on every coupler and not only the candidates, with
// its from-scratch value: Hbasic under both metrics and Hlook exactly,
// Hfine up to the round's constant Σ|VD−HD| of the unswapped front. A
// missed invalidation shows up here even when it does not change the pick.
func checkPick(r *remapper, cands []swapCand, best int, progress bool, front2q, lookSet []int) error {
	want := -1
	if progress {
		if b, hb, _ := r.pickBest(cands, front2q, lookSet, r.weighted); hb > 0 {
			want = b
		}
	} else {
		want, _, _ = r.pickBest(cands, front2q, lookSet, false)
	}
	if best != want {
		return fmt.Errorf("scorer picked %d, the reference %d of %v", best, want, cands)
	}
	if r.sc.n2q != len(front2q) {
		return fmt.Errorf("scorer counts %d two-qubit front gates, the reference %d", r.sc.n2q, len(front2q))
	}
	if err := checkIncidence(r, r.sc.inc2q, front2q); err != nil {
		return fmt.Errorf("front incidence: %v", err)
	}
	if err := checkIncidence(r, r.sc.incLook, lookSet); err != nil {
		return fmt.Errorf("look-ahead incidence: %v", err)
	}
	shift := 0
	if r.sc.wantFine {
		for _, i := range front2q {
			q1, q2 := r.soa.Pair(i)
			shift += fineDiff(r.dev, r.layout.Phys(q1), r.layout.Phys(q2))
		}
	}
	for id, e := range r.dev.Edges {
		c := swapCand{a: e[0], b: e[1], edge: id}
		got, valid := r.sc.parts[id], r.sc.valid[id]
		if valid&basicValid != 0 {
			if hb, hop := r.hBasic(c, front2q, r.distTab), r.hBasic(c, front2q, r.hopTab); got.hb != hb || got.hop != hop {
				return fmt.Errorf("edge %v: cached Hbasic %d/%d, reference %d/%d", e, got.hb, got.hop, hb, hop)
			}
		}
		if valid&lookValid != 0 {
			if hl := r.hLook(c, lookSet); got.hl != hl {
				return fmt.Errorf("edge %v: cached Hlook %d, reference %d", e, got.hl, hl)
			}
		}
		if valid&fineValid != 0 {
			if hf := r.hFine(c, front2q) + shift; got.hf != hf {
				return fmt.Errorf("edge %v: cached Hfine %d, reference %d", e, got.hf, hf)
			}
		}
	}
	return nil
}

// checkIncidence compares the scorer's per-physical-qubit incidence lists
// inc with the lists set gives under the current layout: each gate of set
// at both of its physical endpoints, and nothing else (the lists hold no
// more entries than that).
func checkIncidence(r *remapper, inc [][]int32, set []int) error {
	for _, i := range set {
		q1, q2 := r.soa.Pair(i)
		for _, p := range [2]int{r.layout.Phys(q1), r.layout.Phys(q2)} {
			if !slices.Contains(inc[p], int32(i)) {
				return fmt.Errorf("gate %d is missing at physical qubit %d", i, p)
			}
		}
	}
	n := 0
	for _, l := range inc {
		n += len(l)
	}
	if n != 2*len(set) {
		return fmt.Errorf("%d entries for %d gates", n, len(set))
	}
	return nil
}

// row is one point of an option grid: the options, and the engine's
// deadlock streak (0 keeps DefaultDeadlockStreak).
type row struct {
	opts   Options
	streak int
}

// newStreakRemapper builds the engine Remap builds for c, with its deadlock
// streak lowered to streak when positive.
func newStreakRemapper(c *circuit.Circuit, dev *arch.Device, initial *arch.Layout, opts Options, streak int) (*remapper, error) {
	a := circuit.Assemble(c)
	if err := a.Checked(); err != nil {
		return nil, err
	}
	initial, err := arch.StartLayout(c.NumQubits, dev, initial, opts.Cost)
	if err != nil {
		return nil, err
	}
	r := newRemapper(a, dev, initial, opts)
	if streak > 0 {
		r.deadlockStreak = streak
	}
	return r, nil
}

// remapObserved maps c as Remap does, on the engine of newStreakRemapper,
// with every reference observing the run. Its error is the first
// divergence, if any; the run stops soon after it (observe).
func remapObserved(c *circuit.Circuit, dev *arch.Device, initial *arch.Layout, opts Options, streak int) (*Result, error) {
	r, err := newStreakRemapper(c, dev, initial, opts, streak)
	if err != nil {
		return nil, err
	}
	o := observe(r)
	r.run(&cursor{})
	if err := o.checked(r); err != nil {
		return nil, err
	}
	return r.result(c.NumClbits), nil
}

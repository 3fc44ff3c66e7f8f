package arch

import (
	"errors"
	"sync/atomic"

	"codar/internal/circuit"
)

// ErrDepthBound is the one sentinel both mappers return when a run is
// abandoned because its weighted-depth lower bound strictly exceeded the
// DepthBound: it could no longer beat the portfolio incumbent.
var ErrDepthBound = errors.New("depth bound exceeded")

// DepthBound is a shared, monotonically tightening makespan bound used by
// the portfolio search (internal/portfolio) for early abandon: concurrent
// mapping runs publish each completed schedule's weighted depth via Tighten,
// and every in-flight run polls Get against its own in-progress lower bound,
// stopping as soon as it can no longer beat the incumbent. The zero value is
// an unset bound (everything may run to completion); a DepthBound must not
// be copied after first use.
//
// Abandoning on a *lower bound* of the final weighted depth is what keeps
// the portfolio winner deterministic under any goroutine schedule: a run is
// only cut when its eventual depth provably exceeds some completed depth,
// so it could never have won a min-depth selection, and ties (which fall
// through to swap-count and candidate-index tie-breaks) are never abandoned
// because the comparison is strict. See DESIGN.md §9.
type DepthBound struct {
	// v holds the current bound; 0 means unset. Depths are makespans in
	// clock cycles, far below 2^63.
	v atomic.Int64
}

// Tighten publishes a completed depth, lowering the bound if d beats it.
// Non-positive depths are ignored.
func (b *DepthBound) Tighten(d int) {
	if b == nil || d <= 0 {
		return
	}
	nd := int64(d)
	for {
		cur := b.v.Load()
		if cur != 0 && cur <= nd {
			return
		}
		if b.v.CompareAndSwap(cur, nd) {
			return
		}
	}
}

// Get returns the current bound and whether one has been published.
func (b *DepthBound) Get() (int, bool) {
	if b == nil {
		return 0, false
	}
	if d := b.v.Load(); d > 0 {
		return int(d), true
	}
	return 0, false
}

// Exceeded reports whether depth strictly exceeds the current bound (false
// while the bound is unset). The strict comparison is load-bearing: a run
// that would exactly tie the incumbent must finish, because min-depth ties
// are resolved by later tie-break keys.
func (b *DepthBound) Exceeded(depth int) bool {
	d, ok := b.Get()
	return ok && depth > d
}

// ASAPTracker incrementally computes the ASAP schedule of a gate sequence
// as it is emitted: each Place starts one gate on the given physical
// qubits as soon as all of them are free. Fed gates in an order that
// preserves each qubit's time order, its span equals
// schedule.WeightedDepth of the final sequence, and the running value is a
// monotone lower bound of it — the soundness invariant the early-abandon
// protocol rests on (DESIGN.md §9). Both mappers, the schedule package and
// the compile meter share this one implementation so the recurrence
// cannot drift between them.
type ASAPTracker struct {
	free []int
	span int
}

// NewASAPTracker sizes the tracker for a device's physical qubits.
func NewASAPTracker(numQubits int) *ASAPTracker {
	return &ASAPTracker{free: make([]int, numQubits)}
}

// Reset empties the tracker for numQubits physical qubits, reusing its
// memory.
func (t *ASAPTracker) Reset(numQubits int) {
	t.free = circuit.Reuse(t.free, numQubits)
	t.span = 0
}

// Place schedules one gate of the given duration on qs and returns its
// start: the latest time one of qs frees up.
func (t *ASAPTracker) Place(qs []int, dur int) int {
	start := 0
	for _, q := range qs {
		if t.free[q] > start {
			start = t.free[q]
		}
	}
	end := start + dur
	for _, q := range qs {
		t.free[q] = end
	}
	if end > t.span {
		t.span = end
	}
	return start
}

// Note advances the recurrence by one gate of the given duration on qs and
// returns the updated running makespan.
func (t *ASAPTracker) Note(qs []int, dur int) int {
	t.Place(qs, dur)
	return t.span
}

// Span returns the running makespan.
func (t *ASAPTracker) Span() int { return t.span }

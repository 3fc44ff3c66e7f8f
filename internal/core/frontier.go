package core

import "codar/internal/circuit"

// frontier is the incremental commutative-front engine. The naive approach
// (computeFrontNaive, the reference the equivalence tests compare every
// front with, in reference_test.go) rescans the first
// `window` remaining gates and re-runs every pairwise Commute check on each
// query — three times per simulated cycle — which profiles at ~80% of a
// Fig 8 sweep. The frontier instead owns the per-qubit seen-chains across
// cycles and exploits two monotonicity facts:
//
//   - Gates are only ever removed from the remaining sequence, never
//     reordered or inserted, so a gate's predecessor set only shrinks and
//     CF membership can flip false→true but never true→false.
//   - A blocked gate stays blocked while the gate blocking it is live, so
//     only the retirement of that one gate can change its membership.
//
// Each query therefore: (1) re-evaluates the gates whose recorded blocker
// retired since the last query, (2) admits gates that slid into the scan
// window, computing their membership once, and (3) assembles the front
// (and look-ahead set) from cached membership bits with a window walk that
// does no commutation work at all. Step 1 reads wait lists: every blocked
// gate waits on the first blocker its membership check found, and removing
// a gate queues exactly its waiters. The position-dependent checks that
// survive the op-pair classification table in circuit.CommuteClass (CX/CX
// and friends) compare two commutation-basis bytes of the SoA per shared
// qubit (commute) instead of walking Gate values.
type frontier struct {
	r      *remapper
	window int

	// Static gate metadata, aliased from the remapper's shared SoA view.
	// Slot s is one (gate, operand) incidence; gate i owns slots
	// [slotOff[i], slotOff[i+1]).
	slotOff  []int32
	slotGate []int32
	is2q     []bool
	ops      []circuit.Op

	// Per-qubit chains over the in-window gates, in sequence order,
	// linked by slot index.
	qhead, qtail         []int32
	chainNext, chainPrev []int32

	// Window state: the window covers the first winCount live gates;
	// winTail is the last of them (-1 when empty). cfCount tracks how many
	// in-window gates are CF members, letting the assembly walk stop as
	// soon as the front (and look-ahead set) are complete instead of
	// visiting the whole window.
	inWindow []bool
	winTail  int
	winCount int
	cfCount  int

	// Cached membership, and the wait lists of the blocked gates: a gate
	// outside the CF waits on one live gate that does not commute with it,
	// and needs no re-scan until that gate retires. waitHead[j] is the
	// first gate waiting on j (-1 when none), waitNext[i] the gate after i
	// in the list i waits in. Each gate waits in at most one list.
	inCF     []bool
	waitHead []int32
	waitNext []int32

	// recheck queues the waiters of the gates removed since the last query.
	recheck []int32

	// frontValid marks the assembled r.front/r.lookSet as current: only a
	// removal (or first use) invalidates it — SWAPs change the layout, not
	// the logical sequence the front is defined over.
	frontValid bool
}

func newFrontier(r *remapper, numQubits int) *frontier {
	return &frontier{
		r:      r,
		window: r.opts.window(),
		qhead:  make([]int32, numQubits),
		qtail:  make([]int32, numQubits),
	}
}

// load resets the engine to an empty window over the remapper's current
// gates, reusing the per-gate arrays of the previous load.
func (f *frontier) load() {
	soa := f.r.soa
	n := soa.Len()
	f.slotOff, f.slotGate, f.is2q, f.ops = soa.QOff, soa.SlotGate, soa.Is2Q, soa.Ops
	f.chainNext = circuit.Reuse(f.chainNext, len(soa.SlotGate))
	f.chainPrev = circuit.Reuse(f.chainPrev, len(soa.SlotGate))
	f.inWindow = circuit.Reuse(f.inWindow, n)
	f.inCF = circuit.Reuse(f.inCF, n)
	f.waitHead = circuit.Reuse(f.waitHead, n)
	f.waitNext = circuit.Reuse(f.waitNext, n)
	for i := range f.waitHead {
		f.waitHead[i] = -1
	}
	for q := range f.qhead {
		f.qhead[q] = -1
		f.qtail[q] = -1
	}
	f.recheck = f.recheck[:0]
	f.winTail, f.winCount, f.cfCount = -1, 0, 0
	f.frontValid = false
}

// commute reports whether live predecessor j and gate i commute, through
// the op-pair classification and, for position-dependent pairs (CX/CX and
// friends), a per-shared-qubit comparison of the SoA slot bases — the same
// rule circuit.CommuteSharing applies, read from two precomputed bytes
// instead of walking Gate values. A matching non-trivial basis on every
// shared qubit proves commutation outright; anything else (a mismatch or a
// NoBasis operand, where CommuteSharing's identical-gate escape could still
// fire) falls through to the full check, which is allocation-free.
func (f *frontier) commute(j, i int32) bool {
	if v, ok := circuit.CommuteClass(f.ops[j], f.ops[i]); ok {
		return v
	}
	soa := f.r.soa
	for sj := f.slotOff[j]; sj < f.slotOff[j+1]; sj++ {
		q := soa.Qubits[sj]
		for si := f.slotOff[i]; si < f.slotOff[i+1]; si++ {
			if soa.Qubits[si] != q {
				continue
			}
			bj, bi := soa.Basis[sj], soa.Basis[si]
			if bj == circuit.NoBasis || bj != bi {
				return circuit.CommuteSharing(f.r.gates[j], f.r.gates[i])
			}
		}
	}
	return true
}

// membership computes gate i's CF membership from its current in-window
// predecessors; a blocked gate joins the wait list of the first blocker
// found.
func (f *frontier) membership(i int) bool {
	if f.r.opts.DisableCommutativity {
		// Dependency front: any in-window predecessor on any qubit blocks.
		for s := f.slotOff[i]; s < f.slotOff[i+1]; s++ {
			if p := f.chainPrev[s]; p >= 0 {
				f.wait(int32(i), f.slotGate[p])
				return false
			}
		}
		return true
	}
	for s := f.slotOff[i]; s < f.slotOff[i+1]; s++ {
		for p := f.chainPrev[s]; p >= 0; p = f.chainPrev[p] {
			if j := f.slotGate[p]; !f.commute(j, int32(i)) {
				f.wait(int32(i), j)
				return false
			}
		}
	}
	return true
}

// wait puts gate i on blocker j's wait list.
func (f *frontier) wait(i, j int32) {
	f.waitNext[i] = f.waitHead[j]
	f.waitHead[j] = i
}

// admit appends gate i at the window tail: links its slots onto the qubit
// chains and computes its membership once, against exactly the gates the
// naive scan would have seen before it.
func (f *frontier) admit(i int) {
	for k, q := range f.r.soa.Operands(i) {
		s := f.slotOff[i] + int32(k)
		f.chainNext[s] = -1
		f.chainPrev[s] = f.qtail[q]
		if f.qtail[q] >= 0 {
			f.chainNext[f.qtail[q]] = s
		} else {
			f.qhead[q] = s
		}
		f.qtail[q] = s
	}
	f.inWindow[i] = true
	f.inCF[i] = f.membership(i)
	if f.inCF[i] {
		f.cfCount++
	}
	f.winTail = i
	f.winCount++
}

// remove unlinks gate i from the engine. It must run before the remapper
// splices i out of the remaining-sequence list (it reads r.prev to retreat
// the window tail). The gates waiting on i are re-examined at the next
// query.
func (f *frontier) remove(i int) {
	f.frontValid = false
	for w := f.waitHead[i]; w >= 0; w = f.waitNext[w] {
		f.recheck = append(f.recheck, w)
	}
	f.waitHead[i] = -1
	if !f.inWindow[i] {
		return
	}
	for k, q := range f.r.soa.Operands(i) {
		s := f.slotOff[i] + int32(k)
		p, n := f.chainPrev[s], f.chainNext[s]
		if p >= 0 {
			f.chainNext[p] = n
		} else {
			f.qhead[q] = n
		}
		if n >= 0 {
			f.chainPrev[n] = p
		} else {
			f.qtail[q] = p
		}
	}
	f.inWindow[i] = false
	f.winCount--
	if f.inCF[i] {
		f.cfCount--
	}
	if i == f.winTail {
		f.winTail = f.r.prev[i]
	}
}

// flushRecheck re-evaluates the gates whose blocker retired. Every gate
// outside the CF waits on a live blocker, and a retired blocker shared a
// qubit with each of its waiters, so these are exactly the gates whose
// membership a removal can have changed. Membership reads only the chains,
// so the order of re-examination does not matter.
func (f *frontier) flushRecheck() {
	for _, i := range f.recheck {
		if f.membership(int(i)) {
			f.inCF[i] = true
			f.cfCount++
			f.frontValid = false
		}
	}
	f.recheck = f.recheck[:0]
}

// computeFront returns the commutative front of the remaining sequence,
// writing the front and look-ahead buffers on the remapper.
func (f *frontier) computeFront() []int {
	f.flushRecheck()
	for f.winCount < f.window {
		next := f.r.head
		if f.winTail >= 0 {
			next = f.r.next[f.winTail]
		}
		if next < 0 {
			if f.r.sourceOpen {
				// Streaming: the scan window is underfull and the source may
				// still yield gates that belong in it. Admitting fewer would
				// diverge from batch, so starve — the stream driver refills
				// the buffer and retries. Admissions so far stand (they are
				// a prefix of what the full window will hold).
				f.r.starved = true
				f.frontValid = false
				return nil
			}
			break
		}
		f.admit(next)
		f.frontValid = false
	}
	if f.frontValid {
		return f.r.front
	}
	r := f.r
	look := r.opts.lookahead()
	r.front = r.front[:0]
	r.lookSet = r.lookSet[:0]
	count := 0
	i := r.head
	for ; i >= 0 && count < f.winCount; i = r.next[i] {
		if f.inCF[i] {
			r.front = append(r.front, i)
		} else if f.is2q[i] && len(r.lookSet) < look {
			r.lookSet = append(r.lookSet, i)
		}
		count++
		if len(r.front) == f.cfCount && len(r.lookSet) >= look {
			break // front complete, look-ahead full: the rest is filler
		}
	}
	// Top up the look-ahead set past the window: everything beyond is
	// non-front by construction.
	for ; i >= 0 && len(r.lookSet) < look; i = r.next[i] {
		if f.is2q[i] {
			r.lookSet = append(r.lookSet, i)
		}
	}
	if len(r.lookSet) < look && r.sourceOpen {
		// Streaming: look-ahead unsaturated with gates still upstream.
		r.starved = true
		f.frontValid = false
		return nil
	}
	f.frontValid = true
	return r.front
}

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
// Each query therefore (1) re-evaluates the gates whose recorded blocker
// retired since the last query and (2) admits gates that slid into the
// scan window, computing their membership once. Step 1 reads wait lists:
// every blocked gate waits on the first blocker its membership check
// found, and removing a gate queues exactly its waiters. The
// position-dependent checks that survive the op-pair classification table
// in circuit.CommuteClass (CX/CX and friends) compare two
// commutation-basis bytes of the SoA per shared qubit (commute) instead of
// walking Gate values.
//
// The frontier also owns the two sets the remapper acts on, and changes
// them only at the events that change them: a gate joins the CF (at
// admission or on recheck), or a CF gate is removed (launched). The front
// is kept in sequence order in cf. The look-ahead set is the first
// `Lookahead` two-qubit gates outside the CF, in sequence order, gates
// past the window included. Since membership only flips false→true and
// only CF gates are removed, the sequence of two-qubit gates outside the
// CF only ever loses members, so the set's last member only moves
// forward: a member that joins the CF is replaced by the next such gate
// past the scan cursor lookLast, and all replacements together scan each
// gate once per load. Every change to either set goes to the scorer as it
// happens (enter2q/leave2q, enterLook/leaveLook), so no query walks the
// window and nothing diffs a set.
type frontier struct {
	r      *remapper
	window int
	look   int // the look-ahead set's size (Options.Lookahead resolved)

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
	// winTail is the last of them (-1 when empty).
	winTail  int
	winCount int

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

	// cf is the commutative front in sequence (gate-index) order.
	// cfChanged marks r.front, the copy computeFront hands out, as stale.
	cf        []int
	cfChanged bool

	// The look-ahead set: inLook marks its members and lookCount counts
	// them. lookLast is the scan cursor: every two-qubit gate outside the
	// CF up to it is a member, and a set short of look members has
	// scanned every loaded gate.
	inLook    []bool
	lookCount int
	lookLast  int
}

// reset points the engine at remapper r for a run over numQubits logical
// qubits, keeping its memory; load does the rest.
func (f *frontier) reset(r *remapper, numQubits int) {
	f.r = r
	f.window = r.opts.window()
	f.look = r.opts.lookahead()
	f.qhead = circuit.Reuse(f.qhead, numQubits)
	f.qtail = circuit.Reuse(f.qtail, numQubits)
}

// load resets the engine to an empty window over the remapper's current
// gates, reusing the per-gate arrays of the previous load, and seeds the
// look-ahead set (so the scorer must be loaded first).
func (f *frontier) load() {
	soa := f.r.soa
	n := soa.Len()
	f.slotOff, f.slotGate, f.is2q, f.ops = soa.QOff, soa.SlotGate, soa.Is2Q, soa.Ops
	f.chainNext = circuit.Reuse(f.chainNext, len(soa.SlotGate))
	f.chainPrev = circuit.Reuse(f.chainPrev, len(soa.SlotGate))
	f.inCF = circuit.Reuse(f.inCF, n)
	f.waitHead = circuit.Reuse(f.waitHead, n)
	f.waitNext = circuit.Reuse(f.waitNext, n)
	f.inLook = circuit.Reuse(f.inLook, n)
	for i := range f.waitHead {
		f.waitHead[i] = -1
	}
	for q := range f.qhead {
		f.qhead[q] = -1
		f.qtail[q] = -1
	}
	f.recheck = f.recheck[:0]
	f.winTail, f.winCount = -1, 0
	f.cf, f.cfChanged = f.cf[:0], true
	f.lookCount, f.lookLast = 0, -1
	f.topUpLook()
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
	f.winTail = i
	f.winCount++
	if f.membership(i) {
		f.join(i)
	}
}

// join records that gate i joined the CF. It goes into cf in sequence
// order (at the end when admitted, as the window's new tail); a two-qubit
// gate enters the scorer's front, and a look-ahead member is replaced by
// the next two-qubit gate outside the CF.
func (f *frontier) join(i int) {
	f.inCF[i] = true
	f.cf = append(f.cf, i)
	for k := len(f.cf) - 1; k > 0 && f.cf[k-1] > i; k-- {
		f.cf[k], f.cf[k-1] = f.cf[k-1], i
	}
	f.cfChanged = true
	if !f.is2q[i] {
		return
	}
	f.r.sc.enter2q(i)
	if f.inLook[i] {
		f.inLook[i] = false
		f.lookCount--
		f.r.sc.leaveLook(i)
		f.topUpLook()
	}
}

// topUpLook fills the look-ahead set from the gates past the scan cursor.
// They lie past every member, so the set stays in sequence order; gates
// past the window have no membership yet and count as outside the CF, as
// they are, and removed gates were CF gates, so inCF skips them.
func (f *frontier) topUpLook() {
	for f.lookCount < f.look && f.lookLast+1 < len(f.is2q) {
		f.lookLast++
		if i := f.lookLast; f.is2q[i] && !f.inCF[i] {
			f.inLook[i] = true
			f.lookCount++
			f.r.sc.enterLook(i)
		}
	}
}

// remove unlinks CF gate i, which the remapper launched, from the engine
// and from cf (a two-qubit gate leaves the scorer's front too). It must run
// before the remapper splices i out of the remaining-sequence list (it
// reads r.prev to retreat the window tail). The gates waiting on i are
// re-examined at the next query.
func (f *frontier) remove(i int) {
	for w := f.waitHead[i]; w >= 0; w = f.waitNext[w] {
		f.recheck = append(f.recheck, w)
	}
	f.waitHead[i] = -1
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
	f.winCount--
	if i == f.winTail {
		f.winTail = f.r.prev[i]
	}
	k := 0
	for f.cf[k] != i {
		k++
	}
	f.cf = append(f.cf[:k], f.cf[k+1:]...)
	f.cfChanged = true
	if f.is2q[i] {
		f.r.sc.leave2q(i)
	}
}

// flushRecheck re-evaluates the gates whose blocker retired. Every gate
// outside the CF waits on a live blocker, and a retired blocker shared a
// qubit with each of its waiters, so these are exactly the gates whose
// membership a removal can have changed. Membership reads only the chains,
// so the order of re-examination does not matter.
func (f *frontier) flushRecheck() {
	for _, w := range f.recheck {
		if i := int(w); f.membership(i) {
			f.join(i)
		}
	}
	f.recheck = f.recheck[:0]
}

// computeFront brings the front up to date and returns it, copied into
// r.front when it changed: the launch loop iterates the returned front
// while its launches edit cf. The look-ahead set is current too.
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
				return nil
			}
			break
		}
		f.admit(next)
	}
	if f.lookCount < f.look && f.r.sourceOpen {
		// Streaming: look-ahead unsaturated with gates still upstream.
		f.r.starved = true
		return nil
	}
	if f.cfChanged {
		f.r.front = append(f.r.front[:0], f.cf...)
		f.cfChanged = false
	}
	return f.r.front
}

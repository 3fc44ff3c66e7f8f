// Package core implements CODAR, the COntext-sensitive and Duration-Aware
// Remapping algorithm of Deng, Zhang & Li (DAC 2020). CODAR transforms a
// logical circuit into a hardware-compliant physical circuit by inserting
// SWAP operations, simulating the execution timeline as it goes. Two
// mechanisms distinguish it from depth-oriented mappers such as SABRE:
//
//   - Qubit locks (§IV-A): each physical qubit carries a lock tend set to
//     the finish time of the last gate launched on it. Gate-duration
//     differences therefore propagate into the routing decisions — a qubit
//     running a short gate frees earlier and can route sooner.
//   - Commutativity detection (§IV-B): the set of logically executable
//     gates is the commutative front (CF), gates that commute with every
//     predecessor, exposing more context than a plain dependency front.
//
// Each simulated cycle launches every lock-free executable CF gate, then
// greedily inserts the best lock-free SWAPs ranked by the two-level
// heuristic ⟨Hbasic, Hfine⟩ (§IV-D), and finally advances time to the next
// lock expiry.
package core

import (
	"context"
	"fmt"
	"sort"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/interrupt"
	"codar/internal/schedule"
)

// ErrDepthBound is returned by Remap when Options.DepthBound is set and the
// in-progress schedule's weighted-depth lower bound exceeded it: the run was
// abandoned because it could no longer beat the portfolio incumbent. It is
// the shared arch.ErrDepthBound, as SABRE's is.
var ErrDepthBound = arch.ErrDepthBound

// ErrCanceled and ErrDeadline are returned by Remap when Options.Ctx fires
// mid-run: the mapping was abandoned because the caller no longer wants it
// (client disconnect, portfolio abandon) or its deadline passed. They are
// the shared pipeline sentinels — errors.Is also matches context.Canceled /
// context.DeadlineExceeded.
var (
	ErrCanceled = interrupt.ErrCanceled
	ErrDeadline = interrupt.ErrDeadline
)

// ctxCheckEvery is the amortized cancellation cadence: the main cycle loop
// polls Options.Ctx every this many cycles (power of two). Cycles run in
// microseconds, so the poll adds no measurable overhead while bounding
// cancellation latency far below human-visible delays (DESIGN.md §11).
const ctxCheckEvery = 64

// Options tunes the CODAR remapper. The zero value selects the defaults
// used throughout the evaluation.
type Options struct {
	// Ctx, when non-nil, makes the run cancelable: the main cycle loop
	// polls it at an amortized cadence (every ctxCheckEvery cycles) and
	// Remap returns ErrCanceled / ErrDeadline once it fires, discarding all
	// partial output. nil (or a never-done context) leaves the run — and
	// its output bytes — untouched.
	Ctx context.Context
	// Window bounds the commutative-front scan over the remaining gate
	// sequence. 0 means DefaultWindow. Larger windows expose more
	// look-ahead context at higher cost.
	Window int
	// DisableHfine drops the fine-priority tie-breaker (ablation).
	DisableHfine bool
	// DisableCommutativity replaces the commutative front with the plain
	// dependency front (ablation: context only from qubit locks).
	DisableCommutativity bool
	// Lookahead is the number of upcoming two-qubit gates beyond the
	// commutative front scored as an Hbasic tie-breaker (an extension over
	// the paper, mirroring SABRE's extended set; see DESIGN.md §4).
	// 0 means DefaultLookahead; negative disables the tie-breaker
	// (paper-exact behaviour).
	Lookahead int
	// Cost, when non-nil, replaces the hop-count distance matrix in the
	// SWAP-search heuristics (Hbasic, Hlook, deadlock routing) with a
	// calibration-weighted metric, steering routes around unreliable
	// couplers (DESIGN.md §8). It must be built for the target device.
	// nil — and a model with zero calibration weights — preserve the
	// duration-only objective bit-for-bit (the zero-calibration
	// equivalence properties pin this).
	Cost *arch.CostModel
	// DepthBound, when non-nil, enables the portfolio early-abandon
	// protocol (DESIGN.md §9): the run tracks the ASAP makespan of the
	// gates emitted so far — a monotone lower bound on the output's final
	// weighted depth — and returns ErrDepthBound as soon as it strictly
	// exceeds the published bound. nil leaves the run (and its output
	// bytes) untouched.
	DepthBound *arch.DepthBound
}

// Defaults for Options, and the deadlock streak: the number of
// consecutive forced-SWAP cycles (paper: "choose a SWAP with the highest
// priority ... even if its Hbasic may not be positive") tolerated before
// the engine escapes by routing the oldest blocked gate directly along a
// shortest path (DESIGN.md §4).
const (
	DefaultWindow         = 256
	DefaultDeadlockStreak = 3
	DefaultLookahead      = 20
)

func (o Options) window() int {
	if o.Window <= 0 {
		return DefaultWindow
	}
	return o.Window
}

func (o Options) lookahead() int {
	if o.Lookahead == 0 {
		return DefaultLookahead
	}
	if o.Lookahead < 0 {
		return 0
	}
	return o.Lookahead
}

// Result is the output of a remapping run.
type Result struct {
	// Schedule is the timed physical execution (start times, durations).
	Schedule *schedule.Schedule
	// Circuit is the physical gate sequence in start order; qubit indices
	// are physical.
	Circuit *circuit.Circuit
	// InitialLayout and FinalLayout are the logical→physical maps before
	// and after execution.
	InitialLayout *arch.Layout
	FinalLayout   *arch.Layout
	// SwapCount is the number of SWAPs inserted.
	SwapCount int
	// Makespan is the end of CODAR's own lock schedule (quantum clock
	// cycles). It is never below the output's weighted depth, the makespan
	// of its ASAP schedule (schedule.WeightedDepth), and is often above it:
	// the ASAP pass starts each gate as soon as its qubits free, CODAR only
	// when it decides to launch it.
	Makespan int
	// Cycles is the number of simulated scheduling iterations.
	Cycles int
	// ForcedSwaps counts deadlock-forced SWAP launches.
	ForcedSwaps int
	// DirectRoutes counts deadlock-escape shortest-path routings.
	DirectRoutes int
}

// Remap runs CODAR on circuit c targeting device dev, starting from the
// given initial layout (nil means the trivial layout). The input must be
// lowered to the base gate set (circuit.Decompose) and must fit the device
// (c.NumQubits <= dev.NumQubits).
func Remap(c *circuit.Circuit, dev *arch.Device, initial *arch.Layout, opts Options) (*Result, error) {
	return RemapAssembled(circuit.Assemble(c), dev, initial, opts)
}

// RemapAssembled is Remap over a pre-built assembly. Callers running the
// same circuit several times (the portfolio, the Fig 8 CODAR/SABRE pairs)
// share one assembly so the SoA gate layout and the validity walk are paid
// once; the output is byte-identical to Remap.
func RemapAssembled(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, opts Options) (*Result, error) {
	if err := a.Checked(); err != nil {
		return nil, fmt.Errorf("codar: %w", err)
	}
	initial, err := arch.StartLayout(a.Circ.NumQubits, dev, initial, opts.Cost)
	if err != nil {
		return nil, fmt.Errorf("codar: %w", err)
	}
	if err := interrupt.Classify(opts.Ctx); err != nil {
		return nil, fmt.Errorf("codar: %w", err)
	}
	r := newRemapper(a, dev, initial, opts)
	r.run(&cursor{})
	if r.ctxErr != nil {
		return nil, fmt.Errorf("codar: %w", r.ctxErr)
	}
	if r.exceeded {
		return nil, ErrDepthBound
	}
	return r.result(a.Circ.NumClbits), nil
}

// remapper holds the mutable state of one CODAR run.
type remapper struct {
	opts  Options
	dev   *arch.Device
	gates []circuit.Gate // input gates, indexed by original position
	// soa is the shared struct-of-arrays view of gates: the hot loops
	// (front walk, executability, candidate search) read ops and operands
	// from its dense parallel arrays instead of loading 64-byte Gate
	// values and chasing their Qubits slices.
	soa *circuit.SoA

	// Remaining-sequence doubly linked list over gate indices.
	next, prev []int
	head       int
	live       int

	layout *arch.Layout
	locks  []int // per-physical-qubit lock tend

	// distTab is the flat distance matrix the heuristics rank candidates
	// with: the device hop matrix, or the calibration-weighted one when
	// Options.Cost is set. hopTab is always the device hop matrix: the
	// Hbasic > 0 insertion gate stays a hop-progress question even under a
	// weighted metric — otherwise tiny error-term improvements trigger
	// "lateral" SWAPs that cost three CXs of gate error without moving any
	// gate closer (DESIGN.md §8). Structural blocked/adjacent checks also
	// stay on hop distances. weighted is true iff the two tables differ.
	distTab  []int32
	hopTab   []int32
	weighted bool
	nq       int
	// swapDur caches dev.Durations.Of(OpSwap): launchSwap runs tens of
	// thousands of times per mapping and the duration never changes.
	swapDur int

	out       []schedule.ScheduledGate
	makespan  int
	swapCount int
	cycles    int
	forced    int
	routed    int
	streak    int
	// deadlockStreak is the forced-SWAP streak that triggers directRoute:
	// DefaultDeadlockStreak, lowered only by package tests.
	deadlockStreak int

	// Early-abandon state (Options.DepthBound): the shared ASAP recurrence
	// over the emitted prefix. Per-qubit emission order equals per-qubit
	// time order here, so the tracker's span lands exactly on
	// schedule.WeightedDepth of the final output — and its running value
	// is a monotone lower bound of it, which is what makes abandoning
	// sound (DESIGN.md §9).
	asap     *arch.ASAPTracker
	exceeded bool

	// Cancellation state (Options.Ctx): the amortized context checker the
	// cycle loop polls, and the sticky typed error a fired context leaves
	// behind (DESIGN.md §11).
	check  interrupt.Checker
	ctxErr error

	initial *arch.Layout

	// Starvation state (run). sourceOpen marks that the buffered gates are
	// a prefix of a longer stream: the front computations starve — abort
	// and set starved — instead of acting on an underfull window or
	// look-ahead set, so every decision is made over exactly the context a
	// run over the whole circuit would have. Both stay false on the batch
	// path, whose source is closed from the start.
	sourceOpen bool
	starved    bool

	// f is the incremental commutative-front engine.
	f *frontier
	// sc is the delta-scoring engine for the SWAP search.
	sc *scorer
	// lockHeap is the lock-expiry event queue: a lazy binary min-heap of
	// (end«20 | qubit) entries, one pushed per lock assignment. Entries
	// whose end no longer matches the qubit's current lock are discarded on
	// pop, so nextEvent costs O(log pending) instead of an O(Q) scan.
	lockHeap []int64

	// Observer hooks, set only by the package's equivalence tests, which
	// compare each answer with a from-scratch reference on the engine's own
	// state (DESIGN.md §5, §6). frontCheck sees every front the engine
	// returns before the remapper acts on it; pickCheck every scorer pick:
	// the candidates, the winner and the progress filter; eventCheck each
	// answer of the event queue at time t, allFree's bool and then
	// nextEvent's int.
	frontCheck func(front []int)
	pickCheck  func(cands []swapCand, best int, progress bool)
	eventCheck func(t int, answer any)

	// arena backs the physical-qubit slices of emitted gates. The
	// streaming driver rewinds it after every flush (settle), staging the
	// unflushed gates' qubits in carryQ.
	arena  circuit.IntArena
	carryQ []int

	// Scratch buffers for the front handed to the cycle and the
	// SWAP-candidate search.
	front     []int
	cands     []swapCand
	edgeStamp []int32
	edgeEpoch int32
}

// newRemapper builds the engine for one batch run over a pre-built
// assembly.
func newRemapper(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, opts Options) *remapper {
	r := newEngine(a.Circ.NumQubits, dev, initial, opts)
	n := len(a.Circ.Gates)
	// Pre-size the schedule for the input plus a typical swap overhead;
	// growing a 30k-gate output mid-run showed up in the allocation
	// profile.
	r.out = make([]schedule.ScheduledGate, 0, n+n/4+16)
	r.load(a.Circ.Gates, a.SoA)
	return r
}

// newEngine allocates the state whose size depends only on the device and
// the logical qubit count. The per-gate index structures come from load.
func newEngine(numLogical int, dev *arch.Device, initial *arch.Layout, opts Options) *remapper {
	r := &remapper{
		opts:           opts,
		dev:            dev,
		layout:         initial.Clone(),
		initial:        initial.Clone(),
		locks:          make([]int, dev.NumQubits),
		deadlockStreak: DefaultDeadlockStreak,
	}
	r.nq = dev.NumQubits
	r.swapDur = dev.Durations.Of(circuit.OpSwap)
	r.hopTab = dev.DistTable()
	if opts.Cost != nil {
		r.distTab = opts.Cost.Table()
		r.weighted = true
	} else {
		r.distTab = r.hopTab
	}
	r.f = newFrontier(r, numLogical)
	r.sc = newScorer(r)
	if opts.DepthBound != nil {
		r.asap = arch.NewASAPTracker(dev.NumQubits)
	}
	r.check = interrupt.NewChecker(opts.Ctx, ctxCheckEvery)
	return r
}

// load points the engine at a gate sequence and its SoA view and rebuilds
// every per-gate index structure — the remaining-sequence list, the
// frontier and the scorer — into the memory of the previous load. The
// rebuilt structures are pure functions of the gates plus the carried
// dynamic state (layout, locks, clock), so the streaming driver can
// re-index its window each epoch without changing any decision.
func (r *remapper) load(gates []circuit.Gate, soa *circuit.SoA) {
	n := len(gates)
	r.gates = gates
	r.soa = soa
	r.next = circuit.Reuse(r.next, n)
	r.prev = circuit.Reuse(r.prev, n)
	for i := 0; i < n; i++ {
		r.next[i] = i + 1
		r.prev[i] = i - 1
	}
	r.head = -1
	if n > 0 {
		r.head = 0
		r.next[n-1] = -1
	}
	r.live = n
	r.sc.load()
	r.f.load()
}

// unlink removes gate i from the remaining sequence. The frontier is
// notified first: it reads the intact list pointers to retreat its window.
func (r *remapper) unlink(i int) {
	r.f.remove(i)
	if r.prev[i] >= 0 {
		r.next[r.prev[i]] = r.next[i]
	} else {
		r.head = r.next[i]
	}
	if r.next[i] >= 0 {
		r.prev[r.next[i]] = r.prev[i]
	}
	r.live--
}

// cursor is the loop state that lives between starvation pauses: the
// simulated clock plus enough of the cycle-local state to resume a cycle
// that a starved front query interrupted without double-counting it. A
// batch run starts from the zero cursor and never pauses.
type cursor struct {
	t           int
	launchedAny bool
	midCycle    bool
}

// run executes the main CODAR loop (paper Fig 4) from cur, for batch and
// stream alike. A batch run is the closed-source case: r.sourceOpen is
// false, no front query ever starves and the loop runs to completion.
// While a stream's source is still open, any front query may abort with
// r.starved set when the buffered gates cannot fill the scan window or
// look-ahead set; the loop then saves its position in cur and returns
// without mutating any further state, and RemapStream refills the buffer
// and resumes. Because starvation strikes before any launch or SWAP
// decision is taken on the underfull context, the decision sequence is
// identical to a run over the whole circuit.
func (r *remapper) run(cur *cursor) {
	t := cur.t
	for r.live > 0 {
		if r.exceeded {
			return
		}
		if err := r.check.Check(); err != nil {
			r.ctxErr = err
			return
		}
		launchedAny := false
		if cur.midCycle {
			// Resuming a cycle a starved query interrupted: keep its
			// launch flag and don't count it twice.
			launchedAny = cur.launchedAny
			cur.midCycle = false
		} else {
			r.cycles++
		}
		// Steps 1–2: launch every lock-free executable CF gate at t, to a
		// fixpoint (launching can expose new CF gates that are also free).
		for {
			launched := false
			front := r.computeFront()
			if r.starved {
				cur.t, cur.launchedAny, cur.midCycle = t, launchedAny, true
				return
			}
			for _, i := range front {
				if r.executable(i, t) {
					r.launchGate(i, t)
					launched = true
				}
			}
			if !launched {
				break
			}
			launchedAny = true
		}
		if r.live == 0 {
			if r.sourceOpen {
				// Unreachable while the starvation rule holds (the window
				// admit loop starves before the buffer can drain), but a
				// refill is always the safe answer.
				r.starved = true
				cur.t, cur.launchedAny, cur.midCycle = t, launchedAny, true
				return
			}
			break
		}

		// Step 3: greedy positive-priority SWAP insertion.
		front := r.computeFront()
		if r.starved {
			// The launch fixpoint just computed a complete front and
			// removals only shrink the window, so this query starving is
			// equally unreachable; pause defensively all the same.
			cur.t, cur.launchedAny, cur.midCycle = t, launchedAny, true
			return
		}
		inserted := r.insertSwaps(front, t)

		if launchedAny {
			r.streak = 0
		}
		free := r.allFree(t)
		if r.eventCheck != nil {
			r.eventCheck(t, free)
		}
		if !launchedAny && !inserted && free {
			// Deadlock (§IV-D): no executable gate, no positive SWAP, all
			// qubits free. Force the highest-priority SWAP; escape to
			// direct routing after a bounded streak (DESIGN.md §4).
			r.streak++
			if r.streak >= r.deadlockStreak {
				r.directRoute(front, t)
				r.streak = 0
			} else {
				r.forceSwap(front, t)
			}
		}

		// Advance the timeline to the next lock expiry.
		nt := r.nextEvent(t)
		if r.eventCheck != nil {
			r.eventCheck(t, nt)
		}
		if nt > t {
			t = nt
		}
	}
	cur.t = t
}

// executable reports whether gate i can launch at time t: every operand's
// physical qubit is lock-free, and two-qubit operands are coupled
// (paper §IV-C step 2).
func (r *remapper) executable(i, t int) bool {
	for _, q := range r.soa.Operands(i) {
		if r.locks[r.layout.Phys(int(q))] > t {
			return false
		}
	}
	if r.soa.Is2Q[i] {
		q1, q2 := r.soa.Pair(i)
		return r.dev.Adjacent(r.layout.Phys(q1), r.layout.Phys(q2))
	}
	return true
}

// launchGate schedules gate i at time t on its current physical qubits,
// updates the locks and removes it from the remaining sequence.
func (r *remapper) launchGate(i, t int) {
	phys := r.gates[i]
	ops := r.soa.Operands(i)
	phys.Qubits = r.arena.Take(len(ops))
	for k, q := range ops {
		phys.Qubits[k] = r.layout.Phys(int(q))
	}
	dur := r.dev.Durations.Of(r.soa.Ops[i])
	end := t + dur
	for _, p := range phys.Qubits {
		if end > r.locks[p] {
			r.locks[p] = end
			r.pushLock(p, end)
		}
	}
	r.emit(schedule.ScheduledGate{Gate: phys, Start: t, Duration: dur})
	if end > r.makespan {
		r.makespan = end
	}
	r.unlink(i)
	r.streak = 0
}

// launchSwap schedules a SWAP on physical qubits (a, b) starting at start,
// updates the locks and applies the permutation to the layout immediately
// (gates touching a or b cannot start before the SWAP's locks expire, so
// the early layout update is safe).
func (r *remapper) launchSwap(a, b, start int) {
	dur := r.swapDur
	end := start + dur
	r.locks[a] = end
	r.locks[b] = end
	r.pushLock(a, end)
	r.pushLock(b, end)
	qs := r.arena.Take(2)
	qs[0], qs[1] = a, b
	r.emit(schedule.ScheduledGate{
		Gate:     circuit.Gate{Op: circuit.OpSwap, Qubits: qs},
		Start:    start,
		Duration: dur,
	})
	if end > r.makespan {
		r.makespan = end
	}
	r.layout.SwapPhysical(a, b)
	r.sc.noteSwap(a, b)
	r.swapCount++
}

// emit appends sg to the output keeping it sorted by start time, with
// equal starts in emission order — the ordering the final
// sort.SliceStable pass used to establish. Gates arrive almost sorted
// (cycles launch at non-decreasing t; only directRoute schedules into the
// future), so the common case is a plain append and the rare out-of-order
// gate is placed by binary search plus shift.
func (r *remapper) emit(sg schedule.ScheduledGate) {
	if r.asap != nil {
		if span := r.asap.Note(sg.Gate.Qubits, sg.Duration); r.opts.DepthBound.Exceeded(span) {
			r.exceeded = true
		}
	}
	out := append(r.out, sg)
	if n := len(out) - 1; n > 0 && out[n-1].Start > sg.Start {
		i := sort.Search(n, func(k int) bool { return out[k].Start > sg.Start })
		copy(out[i+1:], out[i:n])
		out[i] = sg
	}
	r.out = out
}

// lockHeap entries pack (end, qubit) into one int64 ordered by end first.
// The qubit field is wide enough for any realistic device; ends stay far
// below 2^43 (makespans are bounded by Σ gate durations).
const lockQubitBits = 20

// pushLock records a new lock expiry for qubit q in the event heap.
func (r *remapper) pushLock(q, end int) {
	h := append(r.lockHeap, int64(end)<<lockQubitBits|int64(q))
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	r.lockHeap = h
}

// allFree reports whether every physical qubit is lock-free at t. Locks
// are per-qubit non-decreasing and every assigned expiry also raises the
// makespan, so max over locks equals the makespan at all times and the
// per-qubit scan collapses to one comparison (the event observer checks
// it against the scan).
func (r *remapper) allFree(t int) bool { return r.makespan <= t }

// nextEvent returns the smallest lock expiry strictly after t, or t when no
// lock is pending. Heap entries that expired or were superseded by a later
// lock on the same qubit are discarded lazily.
func (r *remapper) nextEvent(t int) int {
	h := r.lockHeap
	for len(h) > 0 {
		top := h[0]
		end := int(top >> lockQubitBits)
		q := int(top & (1<<lockQubitBits - 1))
		if end > t && r.locks[q] == end {
			r.lockHeap = h
			return end
		}
		// Stale or expired: pop and sift down.
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if rc := c + 1; rc < n && h[rc] < h[c] {
				c = rc
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	r.lockHeap = h
	return t
}

// directRoute is the bounded deadlock escape: route the oldest blocked
// two-qubit CF gate along a shortest path, scheduling each SWAP as soon as
// its qubits free up. The gate itself is launched by subsequent cycles once
// its operands are adjacent.
func (r *remapper) directRoute(front []int, t int) {
	target := -1
	for _, i := range front {
		if !r.soa.Is2Q[i] {
			continue
		}
		q1, q2 := r.soa.Pair(i)
		if r.dev.Distance(r.layout.Phys(q1), r.layout.Phys(q2)) > 1 {
			target = i
			break
		}
	}
	if target < 0 {
		return
	}
	q1, q2 := r.soa.Pair(target)
	p1 := r.layout.Phys(q1)
	p2 := r.layout.Phys(q2)
	// Under a calibrated metric the escape route follows the minimum-weight
	// path (fewest expected errors), not the fewest hops; with zero
	// calibration the two coincide, tie-breaks included.
	var path []int
	if r.opts.Cost != nil {
		path = r.opts.Cost.ShortestPath(p1, p2)
	} else {
		path = r.dev.ShortestPath(p1, p2)
	}
	// Swap the first operand down the path until it neighbours the second.
	for k := 0; k+2 < len(path); k++ {
		a, b := path[k], path[k+1]
		start := t
		if r.locks[a] > start {
			start = r.locks[a]
		}
		if r.locks[b] > start {
			start = r.locks[b]
		}
		r.launchSwap(a, b, start)
	}
	r.routed++
}

// result packages the outcome of a batch run over a circuit of numClbits
// classical bits, which the output circuit declares too: a bit no measure
// writes is still part of the program's register.
func (r *remapper) result(numClbits int) *Result {
	s := &schedule.Schedule{
		NumQubits: r.dev.NumQubits,
		Gates:     r.out,
		Makespan:  r.makespan,
	}
	circ := s.Circuit("codar")
	circ.NumClbits = max(circ.NumClbits, numClbits)
	return &Result{
		Schedule:      s,
		Circuit:       circ,
		InitialLayout: r.initial,
		FinalLayout:   r.layout.Clone(),
		SwapCount:     r.swapCount,
		Makespan:      r.makespan,
		Cycles:        r.cycles,
		ForcedSwaps:   r.forced,
		DirectRoutes:  r.routed,
	}
}

// Package sabre reimplements the SWAP-based bidirectional heuristic search
// of Li, Ding & Xie, "Tackling the Qubit Mapping Problem for NISQ-Era
// Quantum Devices" (ASPLOS 2019) — the best-known algorithm the CODAR paper
// compares against, with its published hyper-parameters: front layer F,
// extended set E (|E| ≤ 20, weight W = 0.5) and the decay mechanism
// (δ = 0.001, reset every 5 rounds or on gate execution). SABRE is
// depth-oriented and duration-unaware: it never consults gate durations,
// which is precisely the gap CODAR exploits.
package sabre

import (
	"context"
	"fmt"
	"slices"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/interrupt"
	"codar/internal/schedule"
)

// ErrDepthBound is returned by Remap when Options.DepthBound is set and the
// emitted prefix's ASAP makespan exceeded it: the run was abandoned because
// it could no longer beat the portfolio incumbent (DESIGN.md §9). It is the
// shared arch.ErrDepthBound, as CODAR's is.
var ErrDepthBound = arch.ErrDepthBound

// ErrCanceled and ErrDeadline are returned by Remap and InitialLayout when
// Options.Ctx fires mid-run. They are the shared pipeline sentinels —
// errors.Is also matches context.Canceled / context.DeadlineExceeded.
var (
	ErrCanceled = interrupt.ErrCanceled
	ErrDeadline = interrupt.ErrDeadline
)

// ctxCheckEvery is the amortized cancellation cadence: the main loop polls
// Options.Ctx every this many rounds (execute or swap). Rounds run in
// microseconds, so the poll is free at this granularity while bounding
// cancellation latency far below human-visible delays (DESIGN.md §11).
const ctxCheckEvery = 64

// Options tunes SABRE. The zero value selects the published defaults.
type Options struct {
	// Ctx, when non-nil, makes the run cancelable: the main loop polls it
	// at an amortized cadence (every ctxCheckEvery rounds) and Remap /
	// InitialLayout return ErrCanceled / ErrDeadline once it fires,
	// discarding all partial output. nil (or a never-done context) leaves
	// the run — and its output bytes — untouched.
	Ctx context.Context
	// Cost, when non-nil, replaces the hop-count distance matrix in the
	// H = H_F + W·H_E scoring with a calibration-weighted metric
	// (DESIGN.md §8). It must be built for the target device. nil — and a
	// model with zero calibration weights — preserve the published SABRE
	// objective bit-for-bit (CostScale is a power of two, so the float
	// quotients scale exactly).
	Cost *arch.CostModel
	// DepthBound, when non-nil, enables the portfolio early-abandon
	// protocol: the mapper tracks the ASAP makespan of the gates emitted so
	// far under the device durations — a monotone lower bound on the
	// output's weighted depth — and Remap returns ErrDepthBound once it
	// strictly exceeds the published bound. nil leaves the run (and its
	// output bytes) untouched. SABRE itself stays duration-unaware: the
	// bound only decides when to give up, never which SWAP to pick.
	DepthBound *arch.DepthBound
}

// Published SABRE hyper-parameters, fixed so that every speedup is
// measured against the baseline as published: the extended set E holds at
// most DefaultExtendedSize gates and weighs DefaultExtendedWeight (W in
// H = H_F + W·H_E); each swap adds DefaultDecayDelta to its qubits' decay,
// which resets every DefaultDecayReset swap rounds.
const (
	DefaultExtendedSize   = 20
	DefaultExtendedWeight = 0.5
	DefaultDecayDelta     = 0.001
	DefaultDecayReset     = 5
)

// Result is the outcome of a SABRE mapping run.
type Result struct {
	// Circuit is the hardware-compliant physical gate sequence (with the
	// inserted SWAPs) in emission order.
	Circuit *circuit.Circuit
	// InitialLayout and FinalLayout bracket the run.
	InitialLayout *arch.Layout
	FinalLayout   *arch.Layout
	// SwapCount is the number of SWAPs inserted.
	SwapCount int
}

// Remap runs SABRE on circuit c targeting dev from the given initial
// layout (nil means trivial). Requirements mirror core.Remap: the circuit
// must be lowered and fit the device.
func Remap(c *circuit.Circuit, dev *arch.Device, initial *arch.Layout, opts Options) (*Result, error) {
	return RemapAssembled(circuit.Assemble(c), dev, initial, opts)
}

// RemapAssembled is Remap over a pre-built assembly. Callers running the
// same circuit several times (placement, the portfolio candidates) share
// one assembly so the SoA gate layout and the validity walk are paid once;
// the output is byte-identical to Remap.
func RemapAssembled(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, opts Options) (*Result, error) {
	return new(Mapper).RemapAssembled(a, dev, initial, opts)
}

// Mapper is a SABRE mapper kept from one run to the next: the DAG, the
// search scratch, the reversed view of the placement pass, the output
// buffers and a stream's window and chunk buffers. Each run reloads that
// memory instead of allocating it, so a compile context (compile.Worker)
// holds one mapper for both placement passes and the baseline. What a run
// returns, the Result's circuit included, is valid only until its next
// run. The zero value is ready to use; a Mapper serves one goroutine at a
// time.
type Mapper struct {
	m mapper
	// The stream driver's window, SoA view, chunk buffer, ASAP recurrence
	// and compaction scratch.
	win            circuit.Window
	soa            circuit.SoA
	chunk          []schedule.ScheduledGate
	asap           arch.ASAPTracker
	oldToNew, keep []int
}

// RemapAssembled is the package's RemapAssembled on x.
func (x *Mapper) RemapAssembled(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, opts Options) (*Result, error) {
	m := &x.m
	if err := m.prepare(a, dev, initial, opts, false); err != nil {
		return nil, err
	}
	if err := m.pass(a.Circ, a.SoA); err != nil {
		return nil, err
	}
	return &Result{
		Circuit:       m.out,
		InitialLayout: m.initial,
		FinalLayout:   m.layout,
		SwapCount:     m.swaps,
	}, nil
}

// prepare runs the input checks of a batch run over a and resets m for
// it; discard selects layout-only mode (see reset).
func (m *mapper) prepare(a *circuit.Assembly, dev *arch.Device, initial *arch.Layout, opts Options, discard bool) error {
	if err := a.Checked(); err != nil {
		return fmt.Errorf("sabre: %w", err)
	}
	initial, err := arch.StartLayout(a.Circ.NumQubits, dev, initial, opts.Cost)
	if err != nil {
		return fmt.Errorf("sabre: %w", err)
	}
	if err := interrupt.Classify(opts.Ctx); err != nil {
		return fmt.Errorf("sabre: %w", err)
	}
	m.reset(dev, initial, opts, discard)
	return nil
}

// pass loads the gates of c, laid out in soa, and runs them to completion
// from the mapper's current layout.
func (m *mapper) pass(c *circuit.Circuit, soa *circuit.SoA) error {
	m.load(c, soa, false)
	m.run(&cursor{})
	if m.ctxErr != nil {
		return fmt.Errorf("sabre: %w", m.ctxErr)
	}
	if m.exceeded {
		return ErrDepthBound
	}
	return nil
}

type mapper struct {
	opts Options
	dev  *arch.Device
	// dag is the loaded gates' dependency graph, rebuilt in place by
	// every load; indeg is run's working copy of its in-degrees.
	dag   circuit.DAG
	indeg []int32
	// soa is the shared struct-of-arrays view of the input gates; the hot
	// loops (executability, extended-set BFS, candidate enumeration, the
	// incidence index) read ops and operands from its dense arrays instead
	// of copying 64-byte Gate values. gates backs the emission path, which
	// needs full Gate values (params, cbits); a layout-only pass never
	// reads it.
	soa   *circuit.SoA
	gates []circuit.Gate
	// discard marks a layout-only mapper, the mode of the InitialLayout
	// passes, whose callers read only the final layout: no gate is ever
	// appended to out. Routing never reads out, so FinalLayout is
	// unaffected.
	discard bool
	layout  *arch.Layout
	initial *arch.Layout
	decay   []float64
	out     *circuit.Circuit
	swaps   int
	// rev is the reversed view of the backward placement pass, made on
	// first use. It is not a field value, so that a mapper that points
	// soa at it can stay on its caller's stack.
	rev *circuit.SoA

	// distTab is the flat distance matrix H scores against: the device hop
	// matrix, or the calibration-weighted one when Options.Cost is set.
	// Executability stays a dev.Adjacent question regardless.
	distTab []int32
	nq      int

	// Reused hot-loop scratch: the front double-buffer, the extended-set
	// BFS state (epoch-stamped instead of per-round maps), the candidate
	// buffer with its edge-dedup stamps, and the arena backing emitted
	// gates' qubit slices. Together these keep the swap-search loop
	// allocation-free after warm-up.
	spare      []int
	extBuf     []int
	queue      []int
	visitStamp []int32
	visitEpoch int32
	edgeStamp  []int32
	edgeEpoch  int32
	candBuf    []swapCand
	arena      circuit.IntArena

	// Extended-set memo: E depends only on the DAG front and in-degrees,
	// which change only when a gate executes — consecutive swap rounds
	// reuse the previous BFS result.
	ext      []int
	extValid bool

	// Incidence index for the base+delta scoring: per-physical-qubit lists
	// of the two-qubit front (incF) and extended-set (incE) gates — the
	// entry for gate (q1, q2) in p's list is the logical qubit at its other
	// end, immutable under swaps, so resolving it is one layout load —
	// epoch-stamped so clearing costs nothing, plus the integer distance
	// sums of the unswapped layout. A candidate's score is then base +
	// delta over only the gates touching its two qubits. The index is
	// rebuilt only when a gate executes (idxValid); an applied swap
	// maintains it incrementally — the endpoint lists trade places and the
	// winning candidate's own deltas roll into the bases.
	incF     [][]int32
	incE     [][]int32
	incStamp []int32
	incEpoch int32
	baseF    int
	baseE    int
	nF       int
	nE       int
	idxValid bool

	// Per-edge cache of the integer distance deltas (dF over the front,
	// dE over the extended set). A delta involves only the gates incident
	// to the edge's qubits, so it survives swap rounds until a swap moves
	// one of those gates (hStamp epoch-invalidated wholesale on rebuild,
	// locally by noteSwap); the bases, which every swap shifts, are folded
	// in at comparison time.
	dFCache []int32
	dECache []int32
	hStamp  []int32
	hEpoch  int32

	// Early-abandon state (Options.DepthBound): the shared ASAP recurrence
	// over emitted gates — a monotone lower bound on the output circuit's
	// weighted depth — and the abandon flag run polls.
	asap     *arch.ASAPTracker
	exceeded bool

	// pickCheck, when set (equivalence property tests), observes every
	// bestSwap pick: the front, the extended set, the candidates and the
	// winner, before the mapper applies it.
	pickCheck func(front, ext []int, cands []swapCand, best swapCand)

	// Cancellation state (Options.Ctx): the amortized context checker the
	// round loop polls, and the sticky typed error a fired context leaves
	// behind (DESIGN.md §11).
	check  interrupt.Checker
	ctxErr error

	// Starvation state (run). sourceOpen marks that the buffered gates are
	// a prefix of a longer stream; lastOn[q] is the last buffered gate
	// index touching logical qubit q (-1 when untouched), so lastOn[q] == k
	// means k is a chain tail: unseen gates may depend on it, and any
	// decision that would see those dependents in a run over the whole
	// circuit starves — sets starved and aborts — instead of diverging.
	// executedMark records which buffered gates were emitted this epoch (the
	// stream driver evicts them). All stay zero on the batch path, whose
	// source is closed from the start.
	sourceOpen   bool
	starved      bool
	lastOn       []int32
	executedMark []bool
}

// chainTail reports whether buffered gate k is the last buffered gate on
// one of its qubits — the anchor unseen stream gates would attach to.
func (m *mapper) chainTail(k int) bool {
	for _, q := range m.soa.Operands(k) {
		if m.lastOn[q] == int32(k) {
			return true
		}
	}
	return false
}

func (m *mapper) resetDecay() {
	for i := range m.decay {
		m.decay[i] = 1
	}
}

// reset starts a run: it sets the state whose size depends only on the
// device (the layouts, decay, distance table, ASAP tracker, context
// checker and the device-sized search state) and clears every count and
// flag of the previous run, keeping the memory of all buffers. The
// gate-indexed state comes from load. A discard mapper runs layout-only
// passes: it materialises no output circuit — no presized gate buffer, no
// arena, no per-gate physical images — and every routing decision is a
// function of the layout and the DAG, never of the emitted output, so its
// final layout is byte-identical to a full run's. A DepthBound overrides
// discard, since the bound tracks the emitted gates.
func (m *mapper) reset(dev *arch.Device, initial *arch.Layout, opts Options, discard bool) {
	nq := dev.NumQubits
	*m = mapper{
		opts:    opts,
		dev:     dev,
		discard: discard && opts.DepthBound == nil,
		layout:  initial.Clone(),
		initial: initial.Clone(),
		decay:   circuit.Reuse(m.decay, nq),
		nq:      nq,
		distTab: dev.DistTable(),
		check:   interrupt.NewChecker(opts.Ctx, ctxCheckEvery),
		// Memory kept from the previous run.
		dag:          m.dag,
		indeg:        m.indeg,
		out:          m.out,
		rev:          m.rev,
		spare:        m.spare[:0],
		extBuf:       m.extBuf,
		queue:        m.queue,
		visitStamp:   m.visitStamp,
		edgeStamp:    m.edgeStamp,
		candBuf:      m.candBuf,
		arena:        m.arena,
		incF:         m.incF,
		incE:         m.incE,
		incStamp:     m.incStamp,
		dFCache:      circuit.Reuse(m.dFCache, len(dev.Edges)),
		dECache:      circuit.Reuse(m.dECache, len(dev.Edges)),
		hStamp:       m.hStamp,
		asap:         m.asap,
		lastOn:       m.lastOn,
		executedMark: m.executedMark,
	}
	if opts.Cost != nil {
		m.distTab = opts.Cost.Table()
	}
	if m.spare == nil {
		m.spare = make([]int, 0, 16)
	}
	if len(m.incF) != nq {
		m.incF = make([][]int32, nq)
		m.incE = make([][]int32, nq)
	}
	if opts.DepthBound == nil {
		m.asap = nil
	} else {
		if m.asap == nil {
			m.asap = new(arch.ASAPTracker)
		}
		m.asap.Reset(nq)
	}
	if !m.discard {
		if m.out == nil {
			m.out = new(circuit.Circuit)
		}
		*m.out = circuit.Circuit{Name: "sabre", NumQubits: nq, Gates: m.out.Gates[:0]}
		m.arena.Rewind()
	}
	m.resetDecay()
}

// load points the mapper at the gates of c, laid out in soa, and resets
// the gate-indexed state: the DAG and gate views, the output gates and
// their qubit arena, the extended-set and incidence memos, and the
// epoch-stamped search state. The output declares c's classical bits.
// sourceOpen marks the gates as a prefix of a longer stream (see run);
// only then are the chain tails and the executed marks tracked.
// Everything else — layout, decay, swap count, ASAP tracker, context
// checker — carries over, so the stream driver reloads one mapper each
// epoch without changing any decision.
func (m *mapper) load(c *circuit.Circuit, soa *circuit.SoA, sourceOpen bool) {
	n := soa.Len()
	m.soa, m.gates = soa, c.Gates
	m.dag.Load(soa, c.NumQubits)
	// Every epoch-stamped array restarts with its epoch, so no load runs
	// long enough to wrap one.
	m.visitStamp, m.visitEpoch = circuit.Reuse(m.visitStamp, n), 0
	m.edgeStamp, m.edgeEpoch = circuit.Reuse(m.edgeStamp, len(m.dev.Edges)), 0
	m.incStamp, m.incEpoch = circuit.Reuse(m.incStamp, m.nq), 0
	m.hStamp, m.hEpoch = circuit.Reuse(m.hStamp, len(m.dev.Edges)), 0
	m.extValid, m.idxValid = false, false
	if !m.discard {
		m.out.NumClbits = c.NumClbits
		// Reserve the input plus one SWAP per two-qubit gate, more than
		// SABRE inserts on most of the Fig 8 suite (DESIGN.md §10). The
		// previous load's gates were flushed, so the arena rewinds.
		m.out.Gates = slices.Grow(m.out.Gates[:0], n+soa.TwoQubitGates()+16)
		m.arena.Reset()
	}
	m.sourceOpen, m.starved = sourceOpen, false
	if sourceOpen {
		m.lastOn = circuit.Reuse(m.lastOn, c.NumQubits)
		for q := range m.lastOn {
			m.lastOn[q] = -1
		}
		for i := 0; i < n; i++ {
			for _, q := range m.soa.Operands(i) {
				m.lastOn[q] = int32(i)
			}
		}
		m.executedMark = circuit.Reuse(m.executedMark, n)
	}
}

// cursor is the loop state carried across starvation pauses: the front
// (buffered-gate indices in front order — the stream driver remaps them
// over each compaction) and the decay and termination counters. A batch
// run starts from the zero cursor and never pauses.
type cursor struct {
	started    bool
	front      []int
	sinceReset int
	stuck      int
}

// run executes the SABRE main loop from cur, for batch and stream alike. A
// batch run is the closed-source case: m.sourceOpen is false, nothing ever
// starves and the loop runs to completion. While a stream's source is
// still open, three rules make every decision identical to a run over the
// whole circuit:
//
//  1. While any declared qubit has no buffered gate, an unseen gate on it
//     could still belong to the initial DAG front — whose order round 0
//     executes in — so no round may run at all.
//  2. A front gate that is a chain tail must not execute while the source
//     is open: unseen successors would be enabled — and ordered into the
//     front — at this exact round in a run over the whole circuit.
//  3. The extended-set BFS must not expand a chain tail (guarded inside
//     extendedSet), since its successor set may grow with unseen gates.
//
// Under 1–3, every newly pulled gate provably has a live buffered
// predecessor (its last predecessor per qubit can only have executed when
// a later buffered gate covered that qubit — rule 2 — and rule 1 covers
// the no-predecessor case), so refilled gates enter the front exclusively
// through enablement, exactly as in a whole-circuit run, and the carried
// front order needs no reconstruction.
func (m *mapper) run(cur *cursor) {
	if m.sourceOpen {
		for _, last := range m.lastOn {
			if last < 0 {
				m.starved = true // rule 1
				return
			}
		}
	}
	m.indeg = append(m.indeg[:0], m.dag.InDeg...)
	indeg := m.indeg
	front := cur.front
	if !cur.started {
		front = cur.front[:0]
		if front == nil {
			front = make([]int, 0, 16)
		}
		for k, d := range indeg {
			if d == 0 {
				front = append(front, k)
			}
		}
	}
	// Safety valve: SABRE with decay terminates in practice; bound the
	// consecutive no-progress swaps defensively (see DESIGN.md §4).
	maxStuck := 4 * m.dev.NumQubits * (m.dev.Diameter() + 1)

	for len(front) > 0 {
		if m.exceeded {
			cur.front = front
			return
		}
		if err := m.check.Check(); err != nil {
			m.ctxErr = err
			return
		}
		if m.sourceOpen {
			// Rule 2: the layout is fixed for the whole execute pass, so
			// checking before it is equivalent to checking at each gate.
			for _, k := range front {
				if m.executable(k) && m.chainTail(k) {
					m.starved = true
					cur.started, cur.front = true, front
					return
				}
			}
		}
		// Execute every executable front gate. The surviving/unlocked set
		// is built into the spare buffer, which then swaps roles with the
		// current front (no per-round allocation).
		executed := false
		next := m.spare[:0]
		for _, k := range front {
			if m.executable(k) {
				m.emit(k)
				if m.sourceOpen {
					m.executedMark[k] = true
				}
				executed = true
				for _, s := range m.dag.Succs(k) {
					indeg[s]--
					if indeg[s] == 0 {
						next = append(next, int(s))
					}
				}
			} else {
				next = append(next, k)
			}
		}
		m.spare = front[:0]
		front = next
		cur.started = true
		if executed {
			m.resetDecay()
			cur.sinceReset = 0
			cur.stuck = 0
			m.extValid = false
			m.idxValid = false
			continue
		}
		if len(front) == 0 {
			break
		}
		// No front gate is executable: insert the best-scoring SWAP.
		if cur.stuck >= maxStuck {
			m.directRoute(front)
			cur.stuck = 0
			continue
		}
		// Swaps change neither the DAG front nor the in-degrees, so the
		// extended set survives until the next execution.
		if !m.extValid {
			m.ext = m.extendedSet(front)
			if m.starved { // rule 3
				cur.front = front
				return
			}
			m.extValid = true
		}
		cand := m.bestSwap(front, m.ext)
		m.applySwap(cand)
		cur.stuck++
		cur.sinceReset++
		if cur.sinceReset >= DefaultDecayReset {
			m.resetDecay()
			cur.sinceReset = 0
		}
	}
	cur.front = front[:0]
}

// executable reports whether gate k can be emitted under the current layout.
func (m *mapper) executable(k int) bool {
	if !m.soa.Is2Q[k] {
		return true // single-qubit gates and directives always execute
	}
	q1, q2 := m.soa.Pair(k)
	return m.dev.Adjacent(m.layout.Phys(q1), m.layout.Phys(q2))
}

// emit appends the physical image of logical gate k to the output. The
// input circuit already passed Checked and the layout maps into the device
// range, so the gate is appended directly instead of through out.Add's
// re-validation; the measure classical-bit growth Add would have done is
// replicated.
func (m *mapper) emit(k int) {
	if m.discard {
		return // layout-only pass: the output circuit is thrown away
	}
	phys := m.gates[k]
	ops := m.soa.Operands(k)
	phys.Qubits = m.arena.Take(len(ops))
	for i, q := range ops {
		phys.Qubits[i] = m.layout.Phys(int(q))
	}
	if phys.Op == circuit.OpMeasure && phys.Cbit >= m.out.NumClbits {
		m.out.NumClbits = phys.Cbit + 1
	}
	m.out.Gates = append(m.out.Gates, phys)
	if m.asap != nil {
		m.note(phys.Op, phys.Qubits)
	}
}

// note advances the shared ASAP recurrence by one emitted gate on physical
// qubits qs and flags the run for abandonment when the running makespan
// strictly exceeds the shared depth bound.
func (m *mapper) note(op circuit.Op, qs []int) {
	if span := m.asap.Note(qs, m.dev.Durations.Of(op)); m.opts.DepthBound.Exceeded(span) {
		m.exceeded = true
	}
}

// extendedSet collects up to DefaultExtendedSize two-qubit gates reachable
// from the front layer through the DAG (the look-ahead window E). The BFS
// queue, result buffer and visited stamps live on the mapper; a node is
// visited this round when its stamp matches the round's epoch.
func (m *mapper) extendedSet(front []int) []int {
	m.starved = false
	m.visitEpoch++
	ext := m.extBuf[:0]
	queue := append(m.queue[:0], front...)
	for pop := 0; pop < len(queue) && len(ext) < DefaultExtendedSize; pop++ {
		k := queue[pop]
		if m.sourceOpen && m.chainTail(k) {
			// Streaming: the BFS is about to expand a chain tail, whose
			// successor set may grow with unseen gates — a batch run would
			// see them here. Starve; the BFS touched only epoch-stamped
			// scratch, so the post-refill retry is clean.
			m.starved = true
			m.extBuf = ext[:0]
			m.queue = queue[:0]
			return nil
		}
		for _, s := range m.dag.Succs(k) {
			if m.visitStamp[s] == m.visitEpoch {
				continue
			}
			m.visitStamp[s] = m.visitEpoch
			if m.soa.Is2Q[s] {
				ext = append(ext, int(s))
				if len(ext) >= DefaultExtendedSize {
					break
				}
			}
			queue = append(queue, int(s))
		}
	}
	m.extBuf = ext
	m.queue = queue[:0]
	return ext
}

// swapCand is a candidate SWAP on a coupler.
type swapCand struct {
	a, b, edge int
}

// candidates enumerates couplers incident to the physical qubits of the
// unexecutable two-qubit front gates (obtain_swaps in the paper). The
// result buffer and edge-dedup stamps are reused across rounds.
func (m *mapper) candidates(front []int) []swapCand {
	m.edgeEpoch++
	out := m.candBuf[:0]
	for _, k := range front {
		if !m.soa.Is2Q[k] {
			continue
		}
		for _, q := range m.soa.Operands(k) {
			p := m.layout.Phys(int(q))
			ids := m.dev.Couplers(p)
			for j, nb := range m.dev.Neighbors(p) {
				id := ids[j]
				if m.edgeStamp[id] == m.edgeEpoch {
					continue
				}
				m.edgeStamp[id] = m.edgeEpoch
				a, b := p, nb
				if a > b {
					a, b = b, a
				}
				out = append(out, swapCand{a: a, b: b, edge: int(id)})
			}
		}
	}
	m.candBuf = out
	return out
}

// indexRound (re)builds the per-physical-qubit incidence index and the
// unswapped integer distance sums, and drops every cached h.
func (m *mapper) indexRound(front, ext []int) {
	m.incEpoch++
	m.hEpoch++
	m.baseF, m.nF = m.index(front, m.incF)
	m.baseE, m.nE = m.index(ext, m.incE)
}

func (m *mapper) index(set []int, inc [][]int32) (base, n int) {
	for _, k := range set {
		if !m.soa.Is2Q[k] {
			continue
		}
		q1, q2 := m.soa.Pair(k)
		p1 := m.layout.Phys(q1)
		p2 := m.layout.Phys(q2)
		base += m.distance(p1, p2)
		n++
		m.bucket(p1)
		m.bucket(p2)
		inc[p1] = append(inc[p1], int32(q2))
		inc[p2] = append(inc[p2], int32(q1))
	}
	return base, n
}

// bucket lazily clears both incidence lists of qubit p on its first touch
// this round.
func (m *mapper) bucket(p int) {
	if m.incStamp[p] != m.incEpoch {
		m.incStamp[p] = m.incEpoch
		m.incF[p] = m.incF[p][:0]
		m.incE[p] = m.incE[p][:0]
	}
}

// distance is the metric H scores against: hop distance by default, the
// calibration-weighted metric under Options.Cost.
func (m *mapper) distance(a, b int) int { return int(m.distTab[a*m.nq+b]) }

// deltas is the integer change of Σ D over the front (dF) and the extended
// set (dE) under candidate c, evaluated only on the gates incident to c's
// qubits — every other gate's distance is untouched by the swap. A gate at
// a whose other end sits at o ≠ b moves from D(a, o) to D(b, o), and
// mirror-wise at b; a gate spanning a and b keeps its distance. The table
// is symmetric, so every term reads the two candidate rows of the distance
// table at o: one layout load per incident gate.
func (m *mapper) deltas(c swapCand) (dF, dE int) {
	a, b := c.a, c.b
	rowA := m.distTab[a*m.nq : (a+1)*m.nq]
	rowB := m.distTab[b*m.nq : (b+1)*m.nq]
	if m.incStamp[a] == m.incEpoch { // untouched buckets are stale, not empty
		dF += rowDelta(m.incF[a], m.layout, rowB, rowA, b)
		dE += rowDelta(m.incE[a], m.layout, rowB, rowA, b)
	}
	if m.incStamp[b] == m.incEpoch {
		dF += rowDelta(m.incF[b], m.layout, rowA, rowB, a)
		dE += rowDelta(m.incE[b], m.layout, rowA, rowB, a)
	}
	return dF, dE
}

// rowDelta sums to[o] − from[o] over the other ends o of the gates in one
// incidence list, skipping the gate whose other end is the partner qubit.
func rowDelta(ents []int32, l *arch.Layout, to, from []int32, partner int) int {
	sum := 0
	for _, q := range ents {
		if o := l.Phys(int(q)); o != partner {
			sum += int(to[o] - from[o])
		}
	}
	return sum
}

// scoreDelta computes the decay-weighted SABRE heuristic for a candidate,
// H = max(decay) * ( Σ_F D/|F| + W * Σ_E D/|E| ) under the post-swap
// layout, via the incidence index: the distance sums are integers, so
// base + delta is exact and the float operations replicate the
// from-scratch reference's (score, in reference_test.go) order of
// evaluation bit-for-bit. The per-edge deltas are cached across swap
// rounds; the bases (shifted by every applied swap) and the decay are
// folded in at comparison time.
func (m *mapper) scoreDelta(c swapCand, ext []int) float64 {
	var dF, dE int
	if m.hStamp[c.edge] == m.hEpoch {
		dF, dE = int(m.dFCache[c.edge]), int(m.dECache[c.edge])
	} else {
		dF, dE = m.deltas(c)
		m.dFCache[c.edge], m.dECache[c.edge] = int32(dF), int32(dE)
		m.hStamp[c.edge] = m.hEpoch
	}
	var h float64
	if m.nF > 0 {
		h = float64(m.baseF+dF) / float64(m.nF)
	}
	if len(ext) > 0 && m.nE > 0 {
		h += DefaultExtendedWeight * float64(m.baseE+dE) / float64(m.nE)
	}
	d := m.decay[c.a]
	if m.decay[c.b] > d {
		d = m.decay[c.b]
	}
	return d * h
}

// dirtyAround drops the cached h of every edge incident to physical
// qubit p.
func (m *mapper) dirtyAround(p int) {
	for _, id := range m.dev.Couplers(p) {
		m.hStamp[id] = 0
	}
}

// noteSwap maintains the incidence index across an applied swap: every
// gate with an endpoint at a now has it at b and vice versa, so the
// endpoint lists (and their round stamps) trade places; the bases absorb
// the winner's own deltas (computed against the pre-swap layout, so the
// caller runs this before layout.SwapPhysical); and every edge whose
// incident terms moved — at a, at b, or at the far endpoints of the moved
// gates — loses its cached h.
func (m *mapper) noteSwap(c swapCand) {
	dF, dE := m.deltas(c)
	m.baseF += dF
	m.baseE += dE
	a, b := c.a, c.b
	m.incF[a], m.incF[b] = m.incF[b], m.incF[a]
	m.incE[a], m.incE[b] = m.incE[b], m.incE[a]
	m.incStamp[a], m.incStamp[b] = m.incStamp[b], m.incStamp[a]
	m.dirtyAround(a)
	m.dirtyAround(b)
	for _, p := range [2]int{a, b} {
		if m.incStamp[p] != m.incEpoch {
			continue
		}
		for _, q := range m.incF[p] {
			m.dirtyAround(m.layout.Phys(int(q)))
		}
		for _, q := range m.incE[p] {
			m.dirtyAround(m.layout.Phys(int(q)))
		}
	}
}

// bestSwap returns the minimum-score candidate, breaking ties by edge index.
func (m *mapper) bestSwap(front, ext []int) swapCand {
	cands := m.candidates(front)
	if !m.idxValid {
		m.indexRound(front, ext)
		m.idxValid = true
	}
	best := cands[0]
	bestScore := m.scoreDelta(best, ext)
	for _, c := range cands[1:] {
		s := m.scoreDelta(c, ext)
		if s < bestScore || (s == bestScore && c.edge < best.edge) {
			best, bestScore = c, s
		}
	}
	if m.pickCheck != nil {
		m.pickCheck(front, ext, cands, best)
	}
	return best
}

// applySwap emits a SWAP and updates layout, decay and the incidence
// index (noteSwap reads the pre-swap layout, so it runs first).
func (m *mapper) applySwap(c swapCand) {
	if m.idxValid {
		m.noteSwap(c)
	}
	if !m.discard {
		qs := m.arena.Take(2)
		qs[0], qs[1] = c.a, c.b
		m.out.Gates = append(m.out.Gates, circuit.Gate{Op: circuit.OpSwap, Qubits: qs})
		if m.asap != nil {
			m.note(circuit.OpSwap, qs)
		}
	}
	m.layout.SwapPhysical(c.a, c.b)
	m.decay[c.a] += DefaultDecayDelta
	m.decay[c.b] += DefaultDecayDelta
	m.swaps++
}

// directRoute is the defensive termination escape: route the first blocked
// front gate along a shortest path, mirroring core's deadlock hatch.
func (m *mapper) directRoute(front []int) {
	for _, k := range front {
		if !m.soa.Is2Q[k] {
			continue
		}
		q1, q2 := m.soa.Pair(k)
		p1 := m.layout.Phys(q1)
		p2 := m.layout.Phys(q2)
		if m.dev.Adjacent(p1, p2) {
			continue
		}
		var path []int
		if m.opts.Cost != nil {
			path = m.opts.Cost.ShortestPath(p1, p2)
		} else {
			path = m.dev.ShortestPath(p1, p2)
		}
		for i := 0; i+2 < len(path) && !m.exceeded; i++ {
			a, b := path[i], path[i+1]
			if a > b {
				a, b = b, a
			}
			id, _ := m.dev.EdgeIndex(a, b)
			m.applySwap(swapCand{a: a, b: b, edge: id})
		}
		return
	}
}

// InitialLayout computes the SABRE reverse-traversal initial mapping: start
// from a seeded random assignment, run a forward pass over the circuit,
// feed its final layout into a pass over the reversed circuit, and return
// that pass's final layout. The CODAR paper uses this same mapping for
// both algorithms ("for a fair comparison, we use the same method as SABRE
// to create the initial mapping", §V-A). Placement ignores
// Options.DepthBound: the bound abandons routing runs, and the passes emit
// no output for it to track.
func InitialLayout(c *circuit.Circuit, dev *arch.Device, seed int64, opts Options) (*arch.Layout, error) {
	return InitialLayoutAssembled(circuit.Assemble(c), dev, seed, opts)
}

// InitialLayoutAssembled is InitialLayout over a pre-built assembly. Both
// passes run on one layout-only mapper (reverseTraversal).
func InitialLayoutAssembled(a *circuit.Assembly, dev *arch.Device, seed int64, opts Options) (*arch.Layout, error) {
	return new(Mapper).InitialLayoutAssembled(a, dev, seed, opts)
}

// InitialLayoutAssembled is the package's InitialLayoutAssembled on x.
func (x *Mapper) InitialLayoutAssembled(a *circuit.Assembly, dev *arch.Device, seed int64, opts Options) (*arch.Layout, error) {
	// A circuit that does not fit gets a start with one logical qubit per
	// physical one, which the forward pass's input check then rejects.
	start, err := arch.RandomLayout(seed, min(a.Circ.NumQubits, dev.NumQubits), dev.NumQubits)
	if err != nil {
		return nil, err
	}
	opts.DepthBound = nil // the passes emit nothing for a bound to track
	m := &x.m
	if err := m.prepare(a, dev, start, opts, true); err != nil {
		return nil, err
	}
	return m.reverseTraversal(a)
}

// reverseTraversal runs the two placement passes of InitialLayout on the
// mapper: forward over a from the mapper's layout, then backward from the
// forward pass's final layout, and returns the backward pass's final
// layout. The backward pass reads a reversed view of the assembly's SoA,
// built in the mapper's own memory (rev), so no reversed circuit is
// copied; a layout-only mapper never reads the gate values.
func (m *mapper) reverseTraversal(a *circuit.Assembly) (*arch.Layout, error) {
	if err := m.pass(a.Circ, a.SoA); err != nil {
		return nil, err
	}
	// The backward pass starts from the forward pass's final layout with
	// everything else a fresh mapper would have.
	if err := interrupt.Classify(m.opts.Ctx); err != nil {
		return nil, fmt.Errorf("sabre: %w", err)
	}
	m.resetDecay()
	m.swaps = 0
	m.check = interrupt.NewChecker(m.opts.Ctx, ctxCheckEvery)
	if m.rev == nil {
		m.rev = new(circuit.SoA)
	}
	m.rev.LoadReversed(a.SoA)
	rev := &circuit.Circuit{NumQubits: a.Circ.NumQubits, NumClbits: a.Circ.NumClbits}
	if err := m.pass(rev, m.rev); err != nil {
		return nil, err
	}
	return m.layout, nil
}

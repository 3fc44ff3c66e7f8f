package core

import (
	"fmt"
	"sort"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/interrupt"
	"codar/internal/schedule"
)

// StreamResult summarizes a RemapStream run. The schedule itself went to
// the sink chunk by chunk; the concatenation of those chunks is exactly the
// Gates slice of the batch Remap schedule for the same input and options
// (the differential test grid pins this byte for byte).
type StreamResult struct {
	// NumQubits is the device qubit count (the schedule's qubit space).
	NumQubits int
	// NumClbits is the stream's classical-bit count.
	NumClbits int
	// Gates is the total number of scheduled gates flushed (input + SWAPs).
	Gates int
	// InitialLayout and FinalLayout are the logical→physical maps before
	// and after execution.
	InitialLayout *arch.Layout
	FinalLayout   *arch.Layout
	// SwapCount is the number of SWAPs inserted.
	SwapCount int
	// Makespan is the weighted depth of the output (quantum clock cycles).
	Makespan int
	// Cycles is the number of simulated scheduling iterations.
	Cycles int
	// ForcedSwaps counts deadlock-forced SWAP launches.
	ForcedSwaps int
	// DirectRoutes counts deadlock-escape shortest-path routings.
	DirectRoutes int
	// Chunks is the number of sink flushes.
	Chunks int
}

// streamBatch is the window refill granularity: enough gates that the
// engine runs many cycles between starvations, but still O(1) in the
// stream length. The scan window plus look-ahead is the context one front
// query needs; twice that (with a floor) keeps refills off the hot path.
func streamBatch(o Options) int {
	b := 2 * (o.window() + o.lookahead())
	if b < 1024 {
		b = 1024
	}
	return b
}

// streamCursor is the engine state that lives between starvation pauses:
// the simulated clock plus enough of the cycle-local state to resume a
// cycle that a starved front query interrupted without double-counting it.
type streamCursor struct {
	t           int
	launchedAny bool
	midCycle    bool
}

// streamRun is run (codar.go) with starvation pauses: any front query may
// abort with r.starved set when the buffered gates cannot fill the scan
// window or look-ahead set while the source is still open. The engine
// returns without mutating any further state; the driver refills the
// buffer and resumes. Because starvation strikes before any launch or SWAP
// decision is taken on the underfull context, the decision sequence is
// identical to a batch run over the whole circuit.
func (r *remapper) streamRun(cur *streamCursor) {
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
		if r.opts.checkEvents {
			if want := r.allFreeScan(t); free != want {
				panic(fmt.Sprintf("codar: allFree(%d) = %v, scan says %v", t, free, want))
			}
		}
		if !launchedAny && !inserted && free {
			r.streak++
			if r.streak >= r.opts.deadlockStreak() {
				r.directRoute(front, t)
				r.streak = 0
			} else {
				r.forceSwap(front, t)
			}
		}

		nt := r.nextEvent(t)
		if r.opts.checkEvents {
			if want := r.nextEventScan(t); nt != want {
				panic(fmt.Sprintf("codar: nextEvent(%d) = %d, scan says %d", t, nt, want))
			}
		}
		if nt > t {
			t = nt
		}
	}
	cur.t = t
}

// settle drops the flushed schedule prefix out[:cut] and recycles its
// memory. The sink only borrowed the prefix, so the unflushed carry moves
// down to the front of the schedule buffer, and its qubit slices move to
// the front of the rewound arena (stashed first: a carry slice may sit
// where the rewound arena writes next).
func (r *remapper) settle(cut int) {
	carry := r.out[cut:]
	r.carryQ = r.carryQ[:0]
	for i := range carry {
		r.carryQ = append(r.carryQ, carry[i].Gate.Qubits...)
	}
	n := copy(r.out, carry)
	clear(r.out[n:])
	r.out = r.out[:n]
	r.arena.Reset()
	off := 0
	for i := range r.out {
		g := &r.out[i].Gate
		qs := r.arena.Take(len(g.Qubits))
		off += copy(qs, r.carryQ[off:])
		g.Qubits = qs
	}
}

// RemapStream runs CODAR over a gate stream, holding only a bounded window
// of the circuit and the unsettled suffix of the schedule in memory, and
// flushing finalized schedule chunks to the sink as the simulated clock
// passes them. The gate stream must be lowered to the base gate set
// (circuit.NewDecomposeSource) and fit the device. Output is byte-identical
// to Remap over the materialized circuit: the engine starves — pauses for
// a refill — whenever a decision would otherwise see less context than the
// batch path, and a schedule entry is flushed only once no future launch
// can sort before it (emission start times never decrease, and equal
// starts keep emission order). Chunks are in final order: their
// concatenation is the batch schedule's Gates slice.
//
// Cancellation (Options.Ctx) and early abandon (Options.DepthBound) behave
// as in Remap, except the caller has already received flushed chunks —
// inherent to streaming. The sink borrows each chunk only for the duration
// of its Flush call (schedule.Sink).
func RemapStream(src circuit.Source, dev *arch.Device, initial *arch.Layout, opts Options, sink schedule.Sink) (*StreamResult, error) {
	nl := src.NumQubits()
	if nl > dev.NumQubits {
		return nil, fmt.Errorf("codar: stream needs %d qubits but device %s has %d", nl, dev.Name, dev.NumQubits)
	}
	if !dev.Connected() {
		return nil, fmt.Errorf("codar: device %s is disconnected", dev.Name)
	}
	if initial == nil {
		initial = arch.NewTrivialLayout(nl, dev.NumQubits)
	}
	if initial.NumLogical() != nl || initial.NumPhysical() != dev.NumQubits {
		return nil, fmt.Errorf("codar: layout shape %d/%d does not match stream %d / device %d",
			initial.NumLogical(), initial.NumPhysical(), nl, dev.NumQubits)
	}
	if err := initial.Validate(); err != nil {
		return nil, fmt.Errorf("codar: %w", err)
	}
	if opts.Cost != nil {
		if err := opts.Cost.CompatibleWith(dev); err != nil {
			return nil, fmt.Errorf("codar: %w", err)
		}
	}
	if err := interrupt.Classify(opts.Ctx); err != nil {
		return nil, fmt.Errorf("codar: %w", err)
	}

	win := circuit.NewWindow(src, streamBatch(opts))
	if err := win.Fill(); err != nil {
		return nil, fmt.Errorf("codar: %w", err)
	}

	// One engine serves the whole stream. Each epoch re-indexes the
	// window's gates into the memory of the previous epoch's structures:
	// the window owns the gate slice and the SoA and the engine index into
	// it positionally, so eviction requires a re-index.
	r := newEngine(nl, dev, initial, opts)
	var (
		soa             circuit.SoA
		cur             streamCursor
		keep            []int
		flushed, chunks int
	)
	for {
		soa.Load(win.Gates())
		r.load(win.Gates(), &soa)
		r.sourceOpen, r.starved = win.Open(), false

		r.streamRun(&cur)
		if r.ctxErr != nil {
			return nil, fmt.Errorf("codar: %w", r.ctxErr)
		}
		if r.exceeded {
			return nil, ErrDepthBound
		}
		if !r.starved {
			break
		}

		// Epoch boundary: flush the settled schedule prefix — every future
		// emission starts at or after cur.t, and an equal-start emission
		// sorts after entries with earlier starts and before entries with
		// later ones, so entries with Start <= cur.t are final.
		cut := sort.Search(len(r.out), func(k int) bool { return r.out[k].Start > cur.t })
		if cut > 0 {
			if err := sink.Flush(r.out[:cut:cut]); err != nil {
				return nil, fmt.Errorf("codar: sink: %w", err)
			}
			flushed += cut
			chunks++
		}
		r.settle(cut)

		// Evict executed gates from the window and pull the next batch.
		keep = keep[:0]
		for i := r.head; i >= 0; i = r.next[i] {
			keep = append(keep, i)
		}
		win.Compact(keep)
		if err := win.Fill(); err != nil {
			return nil, fmt.Errorf("codar: %w", err)
		}
	}

	if len(r.out) > 0 {
		if err := sink.Flush(r.out); err != nil {
			return nil, fmt.Errorf("codar: sink: %w", err)
		}
		flushed += len(r.out)
		chunks++
	}
	return &StreamResult{
		NumQubits:     dev.NumQubits,
		NumClbits:     win.NumClbits(),
		Gates:         flushed,
		InitialLayout: r.initial,
		FinalLayout:   r.layout.Clone(),
		SwapCount:     r.swapCount,
		Makespan:      r.makespan,
		Cycles:        r.cycles,
		ForcedSwaps:   r.forced,
		DirectRoutes:  r.routed,
		Chunks:        chunks,
	}, nil
}

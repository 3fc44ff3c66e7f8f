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
// of its Flush call (schedule.Sink). The source may be read ahead on
// another goroutine (circuit.Window); it is released, and that goroutine
// gone, on every return.
func RemapStream(src circuit.Source, dev *arch.Device, initial *arch.Layout, opts Options, sink schedule.Sink) (*StreamResult, error) {
	initial, err := arch.StartLayout(src.NumQubits(), dev, initial, opts.Cost)
	if err != nil {
		return nil, fmt.Errorf("codar: %w", err)
	}
	if err := interrupt.Classify(opts.Ctx); err != nil {
		return nil, fmt.Errorf("codar: %w", err)
	}

	win := circuit.NewWindow(src, streamBatch(opts))
	defer win.Close()
	if err := win.Fill(); err != nil {
		return nil, fmt.Errorf("codar: %w", err)
	}

	// One engine serves the whole stream. Each epoch re-indexes the
	// window's gates into the memory of the previous epoch's structures:
	// the window owns the gate slice and the SoA and the engine index into
	// it positionally, so eviction requires a re-index.
	r := newEngine(win.NumQubits(), dev, initial, opts)
	var (
		soa             circuit.SoA
		cur             cursor
		keep            []int
		flushed, chunks int
	)
	for {
		soa.Load(win.Gates())
		r.load(win.Gates(), &soa)
		r.sourceOpen, r.starved = win.Open(), false

		r.run(&cur)
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

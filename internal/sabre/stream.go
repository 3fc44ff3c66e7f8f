package sabre

import (
	"fmt"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/interrupt"
	"codar/internal/schedule"
)

// StreamResult summarizes a RemapStream run. The mapped gates went to the
// sink chunk by chunk; the concatenation of the chunks' Gate values is
// exactly the batch Remap result circuit's gate sequence, annotated with
// the ASAP start times schedule.ASAP would assign it under the device
// durations (the differential test grid pins both).
type StreamResult struct {
	// NumQubits is the device qubit count (the output's qubit space).
	NumQubits int
	// NumClbits is the stream's classical-bit count, which the batch
	// result circuit declares too.
	NumClbits int
	// Gates is the total number of mapped gates flushed (input + SWAPs).
	Gates int
	// InitialLayout and FinalLayout bracket the run.
	InitialLayout *arch.Layout
	FinalLayout   *arch.Layout
	// SwapCount is the number of SWAPs inserted.
	SwapCount int
	// Makespan is the ASAP weighted depth of the flushed schedule.
	Makespan int
	// Chunks is the number of sink flushes.
	Chunks int
}

// streamBatchSize is the window refill granularity. SABRE's per-round
// context is the DAG front plus the ≤DefaultExtendedSize look-ahead — tiny
// — but the starvation rules (run) also pause on chain tails, so a roomy
// batch keeps refills rare.
const streamBatchSize = 1024

// RemapStream runs SABRE over a gate stream, holding only a bounded buffer
// of the circuit in memory and flushing mapped gates to the sink at every
// refill boundary, each annotated with its ASAP start time under the
// device durations. The stream must be lowered (circuit.NewDecomposeSource)
// and fit the device. Emission order is final the moment a gate is
// emitted, so unlike core.RemapStream nothing is held back: every epoch
// flushes all gates mapped since the previous flush. The concatenated
// chunks are byte-identical to the batch Remap output (with ASAP times
// appended); the differential grid pins this.
//
// The resident buffer is O(refill batch + live window) for circuits that
// keep their declared qubits active; a circuit whose qubit first appears
// (or whose per-qubit gap runs) millions of gates in forces the buffer to
// grow to that gap — the price of exact batch equivalence (DESIGN.md §14).
// As in core.RemapStream, the source may be read ahead on another
// goroutine and is released on every return.
func RemapStream(src circuit.Source, dev *arch.Device, initial *arch.Layout, opts Options, sink schedule.Sink) (*StreamResult, error) {
	return new(Mapper).RemapStream(src, dev, initial, opts, sink)
}

// RemapStream is the package's RemapStream on x.
func (x *Mapper) RemapStream(src circuit.Source, dev *arch.Device, initial *arch.Layout, opts Options, sink schedule.Sink) (*StreamResult, error) {
	initial, err := arch.StartLayout(src.NumQubits(), dev, initial, opts.Cost)
	if err != nil {
		return nil, fmt.Errorf("sabre: %w", err)
	}
	if err := interrupt.Classify(opts.Ctx); err != nil {
		return nil, fmt.Errorf("sabre: %w", err)
	}

	win := &x.win
	win.Reset(src, streamBatchSize)
	defer win.Close()
	if err := win.Fill(); err != nil {
		return nil, fmt.Errorf("sabre: %w", err)
	}

	// One mapper serves the whole stream; each epoch re-indexes the
	// window's gates into one SoA and reloads the mapper over it. The window
	// owns the gate slice and both index into it positionally, so eviction
	// requires a reload.
	m := &x.m
	m.reset(dev, initial, opts, false)
	x.asap.Reset(dev.NumQubits)
	var (
		cur             cursor
		flushed, chunks int
	)
	for {
		x.soa.Load(win.Gates())
		m.load(&circuit.Circuit{
			NumQubits: win.NumQubits(),
			NumClbits: win.NumClbits(),
			Gates:     win.Gates(),
		}, &x.soa, win.Open())
		m.run(&cur)
		if m.ctxErr != nil {
			return nil, fmt.Errorf("sabre: %w", m.ctxErr)
		}
		if m.exceeded {
			return nil, ErrDepthBound
		}

		// Emission order is final: flush everything mapped this epoch,
		// annotated by the carried ASAP recurrence (identical to running
		// schedule.ASAP over the concatenated output). The sink borrows the
		// chunk, so its buffer is reused.
		if len(m.out.Gates) > 0 {
			x.chunk = x.chunk[:0]
			for _, g := range m.out.Gates {
				dur := dev.Durations.Of(g.Op)
				x.chunk = append(x.chunk, schedule.ScheduledGate{Gate: g, Start: x.asap.Place(g.Qubits, dur), Duration: dur})
			}
			if err := sink.Flush(x.chunk); err != nil {
				return nil, fmt.Errorf("sabre: sink: %w", err)
			}
			flushed += len(x.chunk)
			chunks++
		}

		if !win.Open() {
			break
		}

		// Evict executed gates and remap the carried front onto the
		// compacted buffer (compaction preserves order, so front order —
		// which is emission order — is untouched).
		n := len(m.executedMark)
		oldToNew := circuit.Reuse(x.oldToNew, n)
		keep := x.keep[:0]
		for i := 0; i < n; i++ {
			if !m.executedMark[i] {
				oldToNew[i] = len(keep)
				keep = append(keep, i)
			} else {
				oldToNew[i] = -1
			}
		}
		x.oldToNew, x.keep = oldToNew, keep
		for i, k := range cur.front {
			cur.front[i] = oldToNew[k]
		}
		win.Compact(keep)
		if len(keep) == 0 {
			// Unreachable while the starvation rules hold (a drained buffer
			// means chain tails executed with the source open); rebuild the
			// front from scratch for defense in depth.
			cur.started = false
		}
		if err := win.Fill(); err != nil {
			return nil, fmt.Errorf("sabre: %w", err)
		}
	}

	return &StreamResult{
		NumQubits:     dev.NumQubits,
		NumClbits:     win.NumClbits(),
		Gates:         flushed,
		InitialLayout: m.initial,
		FinalLayout:   m.layout,
		SwapCount:     m.swaps,
		Makespan:      x.asap.Span(),
		Chunks:        chunks,
	}, nil
}

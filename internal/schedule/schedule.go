// Package schedule implements the duration-aware ASAP (as-soon-as-possible)
// scheduler that turns a hardware-compliant gate sequence into a timed
// execution and computes its weighted depth (makespan) — the paper's figure
// of merit. "The real execution time of the circuit is associated with the
// weighted depth, in which different gates have different duration
// weights" (§I).
package schedule

import (
	"fmt"
	"sort"
	"strings"

	"codar/internal/arch"
	"codar/internal/circuit"
)

// ScheduledGate is a gate with its assigned start time and duration in
// quantum clock cycles.
type ScheduledGate struct {
	Gate     circuit.Gate
	Start    int
	Duration int
}

// End returns the first cycle after the gate finishes.
func (s ScheduledGate) End() int { return s.Start + s.Duration }

// Schedule is a timed execution of a circuit.
type Schedule struct {
	// NumQubits is the number of (physical) qubits addressed.
	NumQubits int
	// Gates in non-decreasing start order.
	Gates []ScheduledGate
	// Makespan is the weighted depth: the end time of the last gate.
	Makespan int
}

// ASAP schedules the gates of c greedily in program order: each gate starts
// as soon as all of its qubits are free, and occupies them for its duration
// under τ. This is exactly the qubit-lock execution model of the paper
// (§IV-A): launching gate g at time t sets each operand's lock to t + τ(g).
//
// Program order must already respect dependencies (true for any circuit and
// for remapper outputs). Barriers synchronise their qubits at zero cost.
func ASAP(c *circuit.Circuit, durations arch.Durations) *Schedule {
	t := arch.NewASAPTracker(c.NumQubits) // per-qubit lock tend
	s := &Schedule{NumQubits: c.NumQubits, Gates: make([]ScheduledGate, 0, len(c.Gates))}
	for _, g := range c.Gates {
		dur := durations.Of(g.Op)
		start := t.Place(g.Qubits, dur)
		s.Gates = append(s.Gates, ScheduledGate{Gate: g.Clone(), Start: start, Duration: dur})
	}
	s.Makespan = t.Span()
	// ASAP in program order yields non-decreasing per-qubit times but not
	// necessarily globally sorted starts; sort stably for consumers.
	sort.SliceStable(s.Gates, func(i, j int) bool { return s.Gates[i].Start < s.Gates[j].Start })
	return s
}

// WeightedDepth returns the makespan of the ASAP schedule of c under τ:
// the paper's weighted circuit depth.
func WeightedDepth(c *circuit.Circuit, durations arch.Durations) int {
	t := arch.NewASAPTracker(c.NumQubits)
	for _, g := range c.Gates {
		t.Place(g.Qubits, durations.Of(g.Op))
	}
	return t.Span()
}

// Validate checks that no two gates overlap on a qubit and that durations
// are consistent with τ.
func (s *Schedule) Validate(durations arch.Durations) error {
	type interval struct{ start, end, idx int }
	perQubit := make([][]interval, s.NumQubits)
	for i, sg := range s.Gates {
		if sg.Duration != durations.Of(sg.Gate.Op) {
			return fmt.Errorf("schedule: gate %d (%s) duration %d != τ %d", i, sg.Gate, sg.Duration, durations.Of(sg.Gate.Op))
		}
		if sg.Start < 0 {
			return fmt.Errorf("schedule: gate %d (%s) starts at %d", i, sg.Gate, sg.Start)
		}
		for _, q := range sg.Gate.Qubits {
			if q < 0 || q >= s.NumQubits {
				return fmt.Errorf("schedule: gate %d (%s) addresses qubit %d of %d", i, sg.Gate, q, s.NumQubits)
			}
			perQubit[q] = append(perQubit[q], interval{sg.Start, sg.End(), i})
		}
	}
	for q, ivs := range perQubit {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				return fmt.Errorf("schedule: qubit %d double-booked: gate %d [%d,%d) overlaps gate %d [%d,%d)",
					q, ivs[i-1].idx, ivs[i-1].start, ivs[i-1].end, ivs[i].idx, ivs[i].start, ivs[i].end)
			}
		}
	}
	return nil
}

// Circuit reconstructs the plain gate sequence in start order.
func (s *Schedule) Circuit(name string) *circuit.Circuit {
	// The copy is independent of the schedule's (often arena-shared) gate
	// storage, but batches the per-gate qubit and parameter slices through
	// arenas: one allocation per few thousand gates instead of two per gate.
	c := &circuit.Circuit{
		Name:      name,
		NumQubits: s.NumQubits,
		Gates:     make([]circuit.Gate, 0, len(s.Gates)),
	}
	var qubits circuit.IntArena
	var params circuit.FloatArena
	for _, sg := range s.Gates {
		g := sg.Gate
		qs := qubits.Take(len(g.Qubits))
		copy(qs, g.Qubits)
		g.Qubits = qs
		if g.Params != nil {
			ps := params.Take(len(g.Params))
			copy(ps, g.Params)
			g.Params = ps
		}
		if g.Op == circuit.OpMeasure && g.Cbit >= c.NumClbits {
			c.NumClbits = g.Cbit + 1
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

// BusyCycles returns, per qubit, the total number of cycles the qubit is
// occupied by gates. Used by fidelity analysis (idle time = makespan - busy).
func (s *Schedule) BusyCycles() []int {
	busy := make([]int, s.NumQubits)
	for _, sg := range s.Gates {
		for _, q := range sg.Gate.Qubits {
			busy[q] += sg.Duration
		}
	}
	return busy
}

// String renders a compact timeline listing.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: %d qubits, %d gates, makespan %d\n", s.NumQubits, len(s.Gates), s.Makespan)
	for _, sg := range s.Gates {
		fmt.Fprintf(&b, "  [%4d,%4d) %s\n", sg.Start, sg.End(), sg.Gate)
	}
	return b.String()
}

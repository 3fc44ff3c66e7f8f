package arch

import (
	"fmt"

	"codar/internal/circuit"
)

// Durations is the maQAM gate-duration map τ: G -> N (paper Table II),
// expressed in integer quantum clock cycles τu. Per-op overrides take
// precedence over the class defaults.
type Durations struct {
	// Single is the default duration of single-qubit unitaries.
	Single int
	// Two is the default duration of two-qubit unitaries (CX, CZ, ...).
	Two int
	// Swap is the duration of the SWAP the remapper inserts. On hardware
	// without a native SWAP it is 3× the two-qubit gate duration.
	Swap int
	// Measure is the duration of a measurement (readout).
	Measure int
	// PerOp holds per-op overrides; a present entry wins over the class
	// default.
	PerOp map[circuit.Op]int
}

// Of returns τ(op). Barriers take zero time.
func (d Durations) Of(op circuit.Op) int {
	if t, ok := d.PerOp[op]; ok {
		return t
	}
	switch {
	case op == circuit.OpBarrier:
		return 0
	case op == circuit.OpSwap:
		return d.Swap
	case op == circuit.OpMeasure || op == circuit.OpReset:
		return d.Measure
	case op.SingleQubit():
		return d.Single
	case op.TwoQubit():
		return d.Two
	case op == circuit.OpCCX:
		// Pre-decomposition Toffoli: modelled as its 6-CX expansion depth.
		return 6*d.Two + 2*d.Single
	default:
		return d.Single
	}
}

// WithOverride returns a copy of d with τ(op) = cycles.
func (d Durations) WithOverride(op circuit.Op, cycles int) Durations {
	out := d
	out.PerOp = make(map[circuit.Op]int, len(d.PerOp)+1)
	for k, v := range d.PerOp {
		out.PerOp[k] = v
	}
	out.PerOp[op] = cycles
	return out
}

// MaxDuration bounds every duration, in cycles. It is over 1,800 times the
// longest preset duration, the ion-trap SWAP at 36 cycles, and keeps a
// mapping's schedule far inside the cycle range the CODAR engine's lock
// queue can hold.
const MaxDuration = 1 << 16

// Validate rejects non-positive class durations and any duration above
// MaxDuration.
func (d Durations) Validate() error {
	if d.Single <= 0 || d.Two <= 0 || d.Swap <= 0 {
		return fmt.Errorf("durations must be positive: single=%d two=%d swap=%d", d.Single, d.Two, d.Swap)
	}
	if d.Measure < 0 {
		return fmt.Errorf("measure duration must be non-negative: %d", d.Measure)
	}
	for op, t := range d.PerOp {
		if t < 0 {
			return fmt.Errorf("negative override for %v: %d", op, t)
		}
		if t > MaxDuration {
			return fmt.Errorf("override for %v is %d cycles, above the %d-cycle bound", op, t, MaxDuration)
		}
	}
	if longest := max(d.Single, d.Two, d.Swap, d.Measure); longest > MaxDuration {
		return fmt.Errorf("durations must be at most %d cycles: single=%d two=%d swap=%d measure=%d", MaxDuration, d.Single, d.Two, d.Swap, d.Measure)
	}
	return nil
}

// SuperconductingDurations is the paper's evaluation configuration (§V.b):
// symmetric superconducting technology where the two-qubit gate takes twice
// a single-qubit gate and SWAP is three CNOTs. Matches the motivating
// examples (T = 1 cycle, CX = 2 cycles, SWAP = 6 cycles) and the Table I
// superconducting column (1q ≈ 130 ns, 2q ≈ 250–450 ns).
func SuperconductingDurations() Durations {
	return Durations{Single: 1, Two: 2, Swap: 6, Measure: 5}
}

// IonTrapDurations models the Table I ion-trap column: single-qubit
// rotations ≈ 20 µs, two-qubit XX ≈ 250 µs, i.e. roughly 12× slower, with
// SWAP as three two-qubit gates. One cycle τu = 20 µs.
func IonTrapDurations() Durations {
	return Durations{Single: 1, Two: 12, Swap: 36, Measure: 15}
}

// NeutralAtomDurations models the Table I neutral-atom column: the
// two-qubit gate is *not* slower than a single-qubit gate (1q ≈ 1–20 µs,
// 2q ≈ 10 µs). One cycle τu = 5 µs.
func NeutralAtomDurations() Durations {
	return Durations{Single: 2, Two: 1, Swap: 3, Measure: 10}
}

// UniformDurations assigns every gate the same duration; this reduces
// weighted depth to plain depth and is used in ablations to show what
// duration-awareness alone contributes.
func UniformDurations() Durations {
	return Durations{Single: 1, Two: 1, Swap: 1, Measure: 1}
}

// durationPresets is the preset table behind DurationsByName.
var durationPresets = map[string]func() Durations{
	"superconducting": SuperconductingDurations,
	"iontrap":         IonTrapDurations,
	"neutralatom":     NeutralAtomDurations,
	"uniform":         UniformDurations,
}

// DurationsByName returns the preset of that exact name: superconducting,
// iontrap, neutralatom or uniform.
func DurationsByName(name string) (Durations, bool) {
	preset, ok := durationPresets[name]
	if !ok {
		return Durations{}, false
	}
	return preset(), true
}

package arch

import (
	"reflect"
	"testing"

	"codar/internal/circuit"
)

// TestTableI pins the paper's Table I structure: the superconducting
// two-qubit gate is at least 2x the single-qubit gate, the ion-trap system
// is ~1000x slower than superconducting in absolute time but relatively
// slower on two-qubit gates, and the neutral-atom two-qubit gate is NOT
// slower than its single-qubit gate.
func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 3 {
		t.Fatalf("TableI has %d rows, want 3", len(rows))
	}
	byTech := make(map[Technology]TechnologyParams)
	for _, r := range rows {
		byTech[r.Technology] = r
	}
	sc := byTech[Superconducting]
	ion := byTech[IonTrap]
	atom := byTech[NeutralAtom]

	if sc.Time2Q < 2*sc.Time1Q {
		t.Errorf("superconducting 2q (%g) should be >= 2x 1q (%g)", sc.Time2Q, sc.Time1Q)
	}
	if ion.Time1Q < 100*sc.Time1Q {
		t.Errorf("ion trap (%g ns) should be orders of magnitude slower than superconducting (%g ns)", ion.Time1Q, sc.Time1Q)
	}
	if atom.Time2Q > 2*atom.Time1Q*4 {
		t.Errorf("neutral atom 2q should not be much slower than 1q")
	}
	// Coherence: ion trap executes more gates before decoherence.
	if ion.T2/ion.Time2Q < sc.T2/sc.Time2Q {
		t.Error("ion trap should fit more 2q gates within T2 than superconducting")
	}
	// Fidelity sanity: all in (0, 1].
	for _, r := range rows {
		for _, f := range []float64{r.Fidelity1Q, r.Fidelity2Q, r.FidelityReadout} {
			if f <= 0 || f > 1 {
				t.Errorf("%v: fidelity %g out of range", r.Technology, f)
			}
		}
		if err := r.Durations.Validate(); err != nil {
			t.Errorf("%v: %v", r.Technology, err)
		}
	}
}

func TestParamsFor(t *testing.T) {
	p, err := ParamsFor(Superconducting)
	if err != nil {
		t.Fatal(err)
	}
	if p.Technology != Superconducting {
		t.Errorf("got %v", p.Technology)
	}
	if _, err := ParamsFor(Technology(99)); err == nil {
		t.Error("unknown technology accepted")
	}
}

func TestSuperconductingDurationsMatchPaperExamples(t *testing.T) {
	// The paper's motivating examples use T = 1 cycle, CX = 2 cycles,
	// SWAP = 6 cycles (Fig 1 and Fig 2).
	d := SuperconductingDurations()
	if d.Of(circuit.OpT) != 1 {
		t.Errorf("T duration = %d, want 1", d.Of(circuit.OpT))
	}
	if d.Of(circuit.OpCX) != 2 {
		t.Errorf("CX duration = %d, want 2", d.Of(circuit.OpCX))
	}
	if d.Of(circuit.OpSwap) != 6 {
		t.Errorf("SWAP duration = %d, want 6", d.Of(circuit.OpSwap))
	}
}

func TestDurationsOf(t *testing.T) {
	d := SuperconductingDurations()
	cases := []struct {
		op   circuit.Op
		want int
	}{
		{circuit.OpH, 1},
		{circuit.OpU3, 1},
		{circuit.OpCX, 2},
		{circuit.OpCZ, 2},
		{circuit.OpCP, 2},
		{circuit.OpSwap, 6},
		{circuit.OpMeasure, 5},
		{circuit.OpReset, 5},
		{circuit.OpBarrier, 0},
		{circuit.OpCCX, 14}, // 6*2 + 2*1
	}
	for _, tc := range cases {
		if got := d.Of(tc.op); got != tc.want {
			t.Errorf("Of(%v) = %d, want %d", tc.op, got, tc.want)
		}
	}
}

func TestDurationsOverride(t *testing.T) {
	d := SuperconductingDurations().WithOverride(circuit.OpCZ, 3)
	if d.Of(circuit.OpCZ) != 3 {
		t.Errorf("override ignored: %d", d.Of(circuit.OpCZ))
	}
	if d.Of(circuit.OpCX) != 2 {
		t.Errorf("override leaked to CX: %d", d.Of(circuit.OpCX))
	}
	// The original is unchanged.
	if SuperconductingDurations().Of(circuit.OpCZ) != 2 {
		t.Error("WithOverride mutated a shared value")
	}
	// Chained overrides accumulate.
	d2 := d.WithOverride(circuit.OpH, 4)
	if d2.Of(circuit.OpCZ) != 3 || d2.Of(circuit.OpH) != 4 {
		t.Error("chained overrides lost")
	}
}

func TestDurationsValidate(t *testing.T) {
	good := SuperconductingDurations()
	if err := good.Validate(); err != nil {
		t.Errorf("valid durations rejected: %v", err)
	}
	bad := Durations{Single: 0, Two: 2, Swap: 6}
	if err := bad.Validate(); err == nil {
		t.Error("zero single duration accepted")
	}
	neg := good.WithOverride(circuit.OpH, -1)
	if err := neg.Validate(); err == nil {
		t.Error("negative override accepted")
	}
}

func TestPresetShapes(t *testing.T) {
	// Ion trap: 2q much slower than 1q; swap = 3x 2q.
	ion := IonTrapDurations()
	if ion.Two < 10*ion.Single || ion.Swap != 3*ion.Two {
		t.Errorf("ion preset shape wrong: %+v", ion)
	}
	// Neutral atom: 2q not slower than 1q.
	atom := NeutralAtomDurations()
	if atom.Two > atom.Single {
		t.Errorf("neutral atom 2q should not exceed 1q: %+v", atom)
	}
	// Uniform: weighted depth == depth.
	u := UniformDurations()
	if u.Of(circuit.OpH) != u.Of(circuit.OpCX) || u.Of(circuit.OpSwap) != 1 {
		t.Errorf("uniform preset not uniform: %+v", u)
	}
}

// TestDurationsByName: every preset name resolves to its constructor's
// value, and lookup is exact (front doors fold case themselves).
func TestDurationsByName(t *testing.T) {
	for name, want := range map[string]Durations{
		"superconducting": SuperconductingDurations(),
		"iontrap":         IonTrapDurations(),
		"neutralatom":     NeutralAtomDurations(),
		"uniform":         UniformDurations(),
	} {
		got, ok := DurationsByName(name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("DurationsByName(%q) = %+v, %t; want %+v", name, got, ok, want)
		}
	}
	for _, bad := range []string{"", "IonTrap", "photonic"} {
		if _, ok := DurationsByName(bad); ok {
			t.Errorf("DurationsByName(%q) resolved", bad)
		}
	}
}

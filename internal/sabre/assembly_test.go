package sabre

import (
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
)

// TestAssembledSharingMatchesFresh pins the assembly-sharing contract: one
// Assembly fed through InitialLayoutAssembled and then reused for several
// RemapAssembled calls produces outputs byte-identical to the per-call
// Remap/InitialLayout paths that assemble from scratch.
func TestAssembledSharingMatchesFresh(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	c := randCircuit(11, 12, 400)
	asm := circuit.Assemble(c)

	freshLay, err := InitialLayout(c, dev, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharedLay, err := InitialLayoutAssembled(asm, dev, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !freshLay.Equal(sharedLay) {
		t.Fatalf("shared-assembly initial layout differs: %v vs %v", freshLay, sharedLay)
	}

	fresh, err := Remap(c, dev, freshLay, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // reuse the same assembly twice
		shared, err := RemapAssembled(asm, dev, sharedLay, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !fresh.Circuit.Equal(shared.Circuit) {
			t.Fatalf("reuse %d: shared-assembly output differs from fresh", i)
		}
		if !fresh.FinalLayout.Equal(shared.FinalLayout) || fresh.SwapCount != shared.SwapCount {
			t.Fatalf("reuse %d: final layout or swap count differs", i)
		}
	}
}

// TestLayoutOnlyPassMatchesFullRun pins the discard ("layout-only") mode the
// initial-layout passes run in: routing never reads the emitted output, so a
// discarded pass must land on the same final layout and swap count as a full
// run, while emitting nothing.
func TestLayoutOnlyPassMatchesFullRun(t *testing.T) {
	dev := arch.IBMQ16Melbourne()
	for seed := int64(1); seed <= 5; seed++ {
		c := randCircuit(seed, 9, 250)
		asm := circuit.Assemble(c)
		start := arch.NewTrivialLayout(c.NumQubits, dev.NumQubits)

		full, err := RemapAssembled(asm, dev, start, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lay, err := prepared(asm, dev, start, Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := lay.pass(asm.Circ, asm.SoA); err != nil {
			t.Fatal(err)
		}
		if !full.FinalLayout.Equal(lay.layout) {
			t.Fatalf("seed %d: layout-only final layout differs", seed)
		}
		if full.SwapCount != lay.swaps {
			t.Fatalf("seed %d: swap count %d != %d", seed, lay.swaps, full.SwapCount)
		}
		if lay.out != nil {
			t.Fatalf("seed %d: layout-only pass built an output of %d gates", seed, len(lay.out.Gates))
		}
	}
}

// TestDepthBoundDisablesDiscard: a depth-bounded run must keep emitting (the
// bound tracks emitted gates), even if a caller asks for layout-only mode.
func TestDepthBoundDisablesDiscard(t *testing.T) {
	dev := arch.IBMQ16Melbourne()
	c := randCircuit(3, 8, 120)
	asm := circuit.Assemble(c)
	bound := &arch.DepthBound{}
	m, err := prepared(asm, dev, nil, Options{DepthBound: bound}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.pass(asm.Circ, asm.SoA); err != nil {
		t.Fatal(err)
	}
	if len(m.out.Gates) == 0 {
		t.Fatal("depth-bounded run emitted nothing despite discard request")
	}
}

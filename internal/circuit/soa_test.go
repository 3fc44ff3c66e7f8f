package circuit

import (
	"errors"
	"slices"
	"testing"
)

func soaFixture() *Circuit {
	c := &Circuit{Name: "soa", NumQubits: 4, NumClbits: 4}
	c.H(0)
	c.CX(0, 1)
	c.RZ(0.25, 2)
	c.CX(2, 3)
	c.CX(1, 2)
	c.Measure(3, 3)
	return c
}

func TestSoAMirrorsGates(t *testing.T) {
	c := soaFixture()
	s := NewSoA(c)
	if s.Len() != len(c.Gates) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(c.Gates))
	}
	for i, g := range c.Gates {
		if s.Ops[i] != g.Op {
			t.Fatalf("gate %d: op %v, want %v", i, s.Ops[i], g.Op)
		}
		if s.Is2Q[i] != g.Op.TwoQubit() {
			t.Fatalf("gate %d: Is2Q %v, want %v", i, s.Is2Q[i], g.Op.TwoQubit())
		}
		if s.NumQubits(i) != len(g.Qubits) {
			t.Fatalf("gate %d: NumQubits %d, want %d", i, s.NumQubits(i), len(g.Qubits))
		}
		for k, q := range g.Qubits {
			if s.Qubit(i, k) != q {
				t.Fatalf("gate %d operand %d: %d, want %d", i, k, s.Qubit(i, k), q)
			}
		}
		if g.Op.TwoQubit() {
			a, b := s.Pair(i)
			if a != g.Qubits[0] || b != g.Qubits[1] {
				t.Fatalf("gate %d: Pair = (%d,%d), want (%d,%d)", i, a, b, g.Qubits[0], g.Qubits[1])
			}
		}
		ops := s.Operands(i)
		if len(ops) != len(g.Qubits) {
			t.Fatalf("gate %d: Operands len %d, want %d", i, len(ops), len(g.Qubits))
		}
	}
}

func TestSoASlotInverse(t *testing.T) {
	s := NewSoA(soaFixture())
	if len(s.SlotGate) != len(s.Qubits) {
		t.Fatalf("SlotGate len %d != Qubits len %d", len(s.SlotGate), len(s.Qubits))
	}
	for i := 0; i < s.Len(); i++ {
		for k := 0; k < s.NumQubits(i); k++ {
			slot := int(s.QOff[i]) + k
			if int(s.SlotGate[slot]) != i {
				t.Fatalf("slot %d: SlotGate says gate %d, want %d", slot, s.SlotGate[slot], i)
			}
		}
	}
	if int(s.QOff[s.Len()]) != len(s.Qubits) {
		t.Fatalf("QOff sentinel %d != pool size %d", s.QOff[s.Len()], len(s.Qubits))
	}
}

func TestSoAEmptyCircuit(t *testing.T) {
	s := NewSoA(&Circuit{NumQubits: 1})
	if s.Len() != 0 || len(s.QOff) != 1 || s.QOff[0] != 0 {
		t.Fatalf("empty SoA malformed: %+v", s)
	}
}

// TestSoALoadReversed: the reversed view equals the SoA of the reversed
// circuit field by field, also when it reuses a larger view's memory.
func TestSoALoadReversed(t *testing.T) {
	big := NewSoA(&Circuit{NumQubits: 6, Gates: randomGateSeq(99, 90, 6)})
	for seed := int64(1); seed <= 30; seed++ {
		c := &Circuit{NumQubits: 6, Gates: randomGateSeq(seed, 10+int(seed)*2, 6)}
		if seed%3 == 0 {
			c.Measure(1, 0)
			c.Gates = append(c.Gates, Gate{Op: OpBarrier, Qubits: []int{0, 2, 4, 5}})
			c.CCX(3, 0, 2)
		}
		var rev SoA
		rev.LoadReversed(big)
		rev.LoadReversed(NewSoA(c))
		want := NewSoA(c.Reversed())
		if !slices.Equal(rev.Ops, want.Ops) || !slices.Equal(rev.Is2Q, want.Is2Q) ||
			!slices.Equal(rev.QOff, want.QOff) || !slices.Equal(rev.Qubits, want.Qubits) ||
			!slices.Equal(rev.SlotGate, want.SlotGate) || !slices.Equal(rev.Basis, want.Basis) {
			t.Fatalf("seed %d: LoadReversed = %+v, want %+v", seed, rev, *want)
		}
	}
}

func TestAssemblyLazyAndCached(t *testing.T) {
	c := soaFixture()
	a := Assemble(c)
	if a.SoA == nil || a.SoA.Len() != len(c.Gates) {
		t.Fatal("SoA not built eagerly")
	}
	if err := a.Checked(); err != nil {
		t.Fatalf("lowered fixture failed Checked: %v", err)
	}
}

func TestAssemblyCheckedRejectsCompound(t *testing.T) {
	c := &Circuit{Name: "compound", NumQubits: 3}
	c.CCX(0, 1, 2)
	err := Assemble(c).Checked()
	if err == nil {
		t.Fatal("compound circuit passed Checked")
	}
	if got := err.Error(); got != `circuit "compound" contains compound gates; apply circuit.Decompose first` {
		t.Fatalf("unexpected error text: %s", got)
	}
}

func TestAssemblyCheckedPropagatesValidate(t *testing.T) {
	c := &Circuit{Name: "bad", NumQubits: 2}
	c.Gates = append(c.Gates, Gate{Op: OpCX, Qubits: []int{0, 0}})
	a := Assemble(c)
	err := a.Checked()
	if err == nil {
		t.Fatal("invalid circuit passed Checked")
	}
	if err2 := a.Checked(); !errors.Is(err2, err) && err2.Error() != err.Error() {
		t.Fatal("Checked verdict not cached")
	}
}

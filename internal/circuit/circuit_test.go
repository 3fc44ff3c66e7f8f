package circuit

import (
	"strings"
	"testing"
)

func TestBuilderChaining(t *testing.T) {
	c := New(3)
	c.H(0).CX(0, 1).CX(1, 2).T(2).Measure(2, 0)
	if c.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", c.Len())
	}
	if c.Gates[0].Op != OpH || c.Gates[4].Op != OpMeasure {
		t.Error("gate sequence mismatch")
	}
	if c.NumClbits != 1 {
		t.Errorf("NumClbits = %d, want 1 (auto-grown by Measure)", c.NumClbits)
	}
}

func TestAddPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add should panic on out-of-range qubit")
		}
	}()
	New(2).CX(0, 2)
}

func TestAddPanicsOnInvalidGate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add should panic on duplicate operands")
		}
	}()
	New(2).CX(1, 1)
}

func TestDepth(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Circuit
		want  int
	}{
		{"empty", func() *Circuit { return New(3) }, 0},
		{"parallel singles", func() *Circuit { return New(3).H(0).H(1).H(2) }, 1},
		{"serial chain", func() *Circuit { return New(1).H(0).T(0).H(0) }, 3},
		{"cx ladder", func() *Circuit { return New(3).CX(0, 1).CX(1, 2) }, 2},
		{"independent cx", func() *Circuit { return New(4).CX(0, 1).CX(2, 3) }, 1},
		{"barrier forces level", func() *Circuit {
			return New(2).H(0).Barrier(0, 1).H(1)
		}, 2},
		{"ghz-3", func() *Circuit { return New(3).H(0).CX(0, 1).CX(1, 2) }, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.build().Depth(); got != tc.want {
				t.Errorf("Depth() = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestCountOpsAndTwoQubitCount(t *testing.T) {
	c := New(4).H(0).H(1).CX(0, 1).CX(2, 3).CZ(1, 2).T(3)
	ops := c.CountOps()
	if ops[OpH] != 2 || ops[OpCX] != 2 || ops[OpCZ] != 1 || ops[OpT] != 1 {
		t.Errorf("CountOps() = %v", ops)
	}
	if got := c.TwoQubitCount(); got != 3 {
		t.Errorf("TwoQubitCount() = %d, want 3", got)
	}
}

func TestUsedQubits(t *testing.T) {
	c := New(10).H(0).CX(0, 5)
	if got := c.UsedQubits(); got != 2 {
		t.Errorf("UsedQubits() = %d, want 2", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New(2).CX(0, 1)
	d := c.Clone()
	d.Gates[0].Qubits[0] = 1
	d.Gates[0].Qubits[1] = 0
	if c.Gates[0].Qubits[0] != 0 {
		t.Error("Clone shares gate storage")
	}
	d.H(0)
	if c.Len() != 1 {
		t.Error("Clone shares the gate slice")
	}
}

func TestReversed(t *testing.T) {
	c := New(3).H(0).CX(0, 1).CX(1, 2)
	r := c.Reversed()
	if r.Len() != 3 {
		t.Fatalf("Reversed length = %d", r.Len())
	}
	if r.Gates[0].Op != OpCX || r.Gates[0].Qubits[0] != 1 {
		t.Errorf("Reversed()[0] = %v", r.Gates[0])
	}
	if r.Gates[2].Op != OpH {
		t.Errorf("Reversed()[2] = %v", r.Gates[2])
	}
	// Reversing twice restores the original order.
	if !r.Reversed().Equal(c) {
		t.Error("double reverse should equal original")
	}
}

func TestValidate(t *testing.T) {
	good := New(2).H(0).CX(0, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid circuit rejected: %v", err)
	}
	bad := &Circuit{NumQubits: 2, Gates: []Gate{New2Q(OpCX, 0, 5)}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range gate accepted")
	}
	zero := &Circuit{NumQubits: 0}
	if err := zero.Validate(); err == nil {
		t.Error("zero-qubit circuit accepted")
	}
}

func TestEqual(t *testing.T) {
	a := New(2).H(0).CX(0, 1)
	b := New(2).H(0).CX(0, 1)
	if !a.Equal(b) {
		t.Error("identical circuits unequal")
	}
	if a.Equal(New(2).H(0)) {
		t.Error("different lengths equal")
	}
	if a.Equal(New(3).H(0).CX(0, 1)) {
		t.Error("different widths equal")
	}
}

func TestBarrierDefaultsToAllQubits(t *testing.T) {
	c := New(3).Barrier()
	if len(c.Gates[0].Qubits) != 3 {
		t.Errorf("Barrier() spans %d qubits, want 3", len(c.Gates[0].Qubits))
	}
}

func TestAppendAll(t *testing.T) {
	a := New(3).H(0)
	b := New(3).CX(0, 1).CX(1, 2)
	a.AppendAll(b)
	if a.Len() != 3 {
		t.Fatalf("AppendAll length = %d, want 3", a.Len())
	}
	// Deep copy: mutating b must not affect a.
	b.Gates[0].Qubits[0] = 2
	if a.Gates[1].Qubits[0] != 0 {
		t.Error("AppendAll must deep-copy gates")
	}
}

func TestStringContainsSummary(t *testing.T) {
	c := NewNamed("demo", 2).H(0).CX(0, 1)
	s := c.String()
	for _, want := range []string{"demo", "2 qubits", "2 gates", "h q[0]", "cx q[0],q[1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in %q", want, s)
		}
	}
}

// TestAppendReportsCheck: Append returns the gate check's error without
// appending, and Add panics with the same error.
func TestAppendReportsCheck(t *testing.T) {
	c := New(2)
	err := c.Append(New2Q(OpCX, 1, 1))
	if err == nil || c.Len() != 0 {
		t.Fatalf("Append accepted a duplicate operand: %v", err)
	}
	defer func() {
		if r := recover(); r == nil || r.(error).Error() != err.Error() {
			t.Fatalf("Add panicked with %v, want %v", r, err)
		}
	}()
	c.Add(New2Q(OpCX, 1, 1))
}

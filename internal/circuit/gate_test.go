package circuit

import (
	"strings"
	"testing"
)

func TestOpMetadata(t *testing.T) {
	cases := []struct {
		op      Op
		name    string
		qubits  int
		params  int
		unitary bool
	}{
		{OpID, "id", 1, 0, true},
		{OpX, "x", 1, 0, true},
		{OpH, "h", 1, 0, true},
		{OpT, "t", 1, 0, true},
		{OpTdg, "tdg", 1, 0, true},
		{OpRX, "rx", 1, 1, true},
		{OpRZ, "rz", 1, 1, true},
		{OpU1, "u1", 1, 1, true},
		{OpU2, "u2", 1, 2, true},
		{OpU3, "u3", 1, 3, true},
		{OpCX, "cx", 2, 0, true},
		{OpCZ, "cz", 2, 0, true},
		{OpSwap, "swap", 2, 0, true},
		{OpCP, "cp", 2, 1, true},
		{OpRZZ, "rzz", 2, 1, true},
		{OpCCX, "ccx", 3, 0, true},
		{OpMeasure, "measure", 1, 0, false},
		{OpReset, "reset", 1, 0, false},
		{OpBarrier, "barrier", 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.op.Name(); got != tc.name {
				t.Errorf("Name() = %q, want %q", got, tc.name)
			}
			if got := tc.op.NumQubits(); got != tc.qubits {
				t.Errorf("NumQubits() = %d, want %d", got, tc.qubits)
			}
			if got := tc.op.NumParams(); got != tc.params {
				t.Errorf("NumParams() = %d, want %d", got, tc.params)
			}
			if got := tc.op.Unitary(); got != tc.unitary {
				t.Errorf("Unitary() = %v, want %v", got, tc.unitary)
			}
		})
	}
}

func TestOpByName(t *testing.T) {
	cases := []struct {
		in   string
		want Op
		ok   bool
	}{
		{"cx", OpCX, true},
		{"CX", OpCX, true},
		{"cnot", OpCX, true},
		{"h", OpH, true},
		{"u", OpU3, true},
		{"p", OpU1, true},
		{"phase", OpU1, true},
		{"cu1", OpCP, true},
		{"toffoli", OpCCX, true},
		{"tof", OpCCX, true},
		{"frobnicate", OpID, false},
		{"", OpID, false},
		{"BaRrIeR", OpBarrier, true},
		{"MS", OpRXX, true},
		{"Toffoli", OpCCX, true},
		{"toffolii", OpID, false},
		{"x\x00", OpID, false},
		{"\x00", OpID, false},
		{"cx\xff", OpID, false},
		{"\u0130d", OpID, true}, // Unicode lower-casing maps U+0130 to 'i'
	}
	for _, tc := range cases {
		got, ok := OpByName(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("OpByName(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSingleTwoQubitClassification(t *testing.T) {
	if !OpH.SingleQubit() || OpH.TwoQubit() {
		t.Error("H should be single-qubit only")
	}
	if !OpCX.TwoQubit() || OpCX.SingleQubit() {
		t.Error("CX should be two-qubit only")
	}
	if OpMeasure.SingleQubit() {
		t.Error("measure is not a unitary single-qubit gate")
	}
	if OpCCX.TwoQubit() || OpCCX.SingleQubit() {
		t.Error("CCX is neither single- nor two-qubit")
	}
}

func TestGateValidate(t *testing.T) {
	cases := []struct {
		name    string
		g       Gate
		wantErr bool
	}{
		{"valid h", New1Q(OpH, 0), false},
		{"valid cx", New2Q(OpCX, 0, 1), false},
		{"valid rz", New1QP(OpRZ, 2, 0.5), false},
		{"valid u3", New1QP(OpU3, 0, 1, 2, 3), false},
		{"cx same qubit", New2Q(OpCX, 1, 1), true},
		{"cx one operand", Gate{Op: OpCX, Qubits: []int{0}}, true},
		{"h two operands", Gate{Op: OpH, Qubits: []int{0, 1}}, true},
		{"rz missing param", Gate{Op: OpRZ, Qubits: []int{0}}, true},
		{"h stray param", Gate{Op: OpH, Qubits: []int{0}, Params: []float64{1}}, true},
		{"negative qubit", New1Q(OpH, -1), true},
		{"empty barrier", Gate{Op: OpBarrier}, true},
		{"barrier over 3", Gate{Op: OpBarrier, Qubits: []int{0, 1, 2}}, false},
		{"ccx dup qubit", Gate{Op: OpCCX, Qubits: []int{0, 1, 0}}, true},
		{"unknown op", Gate{Op: numOps + 3, Qubits: []int{0}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.g.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestGateOnAndShares(t *testing.T) {
	cx := New2Q(OpCX, 2, 5)
	if !cx.On(2) || !cx.On(5) || cx.On(3) {
		t.Error("On() misreports operands")
	}
	h := New1Q(OpH, 5)
	if !cx.SharesQubit(h) || !h.SharesQubit(cx) {
		t.Error("SharesQubit should be true for overlapping gates")
	}
	x := New1Q(OpX, 7)
	if cx.SharesQubit(x) {
		t.Error("SharesQubit should be false for disjoint gates")
	}
}

func TestGateRemap(t *testing.T) {
	g := New2QP(OpCP, 1, 3, 0.25)
	mapped := g.Remap(func(q int) int { return q * 10 })
	if mapped.Qubits[0] != 10 || mapped.Qubits[1] != 30 {
		t.Errorf("Remap produced %v", mapped.Qubits)
	}
	if g.Qubits[0] != 1 || g.Qubits[1] != 3 {
		t.Error("Remap must not mutate the original")
	}
	if mapped.Params[0] != 0.25 {
		t.Error("Remap must preserve params")
	}
}

func TestGateCloneIndependence(t *testing.T) {
	g := New2QP(OpRZZ, 0, 1, 1.5)
	c := g.Clone()
	c.Qubits[0] = 9
	c.Params[0] = 9
	if g.Qubits[0] != 0 || g.Params[0] != 1.5 {
		t.Error("Clone shares backing arrays with original")
	}
}

func TestGateEqual(t *testing.T) {
	a := New2QP(OpCP, 0, 1, 0.5)
	b := New2QP(OpCP, 0, 1, 0.5)
	if !a.Equal(b) {
		t.Error("identical gates should be Equal")
	}
	if a.Equal(New2QP(OpCP, 1, 0, 0.5)) {
		t.Error("operand order matters")
	}
	if a.Equal(New2QP(OpCP, 0, 1, 0.75)) {
		t.Error("params matter")
	}
	if a.Equal(New2Q(OpCZ, 0, 1)) {
		t.Error("op matters")
	}
}

func TestGateString(t *testing.T) {
	if got := New2Q(OpCX, 0, 3).String(); got != "cx q[0],q[3]" {
		t.Errorf("String() = %q", got)
	}
	if got := New1QP(OpRZ, 1, 0.5).String(); got != "rz(0.5) q[1]" {
		t.Errorf("String() = %q", got)
	}
	m := Gate{Op: OpMeasure, Qubits: []int{2}, Cbit: 2}
	if got := m.String(); !strings.Contains(got, "-> c[2]") {
		t.Errorf("measure String() = %q", got)
	}
}

// Package circuit provides the quantum circuit intermediate representation
// shared by every component of the CODAR reproduction: gates, circuits,
// dependency DAGs, gate-commutation rules and decomposition into the
// {1-qubit, CX} base set that the mapping algorithms operate on.
package circuit

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Op identifies a quantum operation kind. The set covers the gates used by
// the paper's benchmarks (OpenQASM 2.0 / qelib1 subset) plus the SWAP gate
// inserted by the remappers.
type Op uint8

// Supported operations. Ops up to OpU3 are single-qubit, OpCX..OpRZZ are
// two-qubit, OpCCX is three-qubit. OpMeasure, OpReset and OpBarrier are
// non-unitary circuit directives.
const (
	OpID      Op = iota // identity (no-op placeholder)
	OpX                 // Pauli-X
	OpY                 // Pauli-Y
	OpZ                 // Pauli-Z
	OpH                 // Hadamard
	OpS                 // phase gate S = diag(1, i)
	OpSdg               // S-dagger
	OpT                 // T = diag(1, e^{i pi/4})
	OpTdg               // T-dagger
	OpSX                // sqrt(X)
	OpRX                // rotation about X by Params[0]
	OpRY                // rotation about Y by Params[0]
	OpRZ                // rotation about Z by Params[0]
	OpU1                // diagonal phase gate diag(1, e^{i lambda})
	OpU2                // u2(phi, lambda) one-pulse gate
	OpU3                // u3(theta, phi, lambda) generic single-qubit gate
	OpCX                // controlled-X; Qubits[0] is control, Qubits[1] target
	OpCZ                // controlled-Z (symmetric)
	OpSwap              // SWAP (inserted by remappers; 3 CX equivalent)
	OpCP                // controlled-phase cp(lambda) (symmetric, diagonal)
	OpRZZ               // ZZ interaction rzz(theta) (symmetric, diagonal)
	OpRXX               // XX interaction rxx(theta): the ion-trap Mølmer–Sørensen gate (Table I)
	OpCCX               // Toffoli; Qubits[0,1] controls, Qubits[2] target
	OpMeasure           // measurement into classical bit Cbit
	OpReset             // reset qubit to |0>
	OpBarrier           // scheduling barrier across Qubits
	numOps
)

// opInfo carries static per-op metadata.
type opInfo struct {
	name    string // OpenQASM-style lowercase mnemonic
	qubits  int    // operand count (0 = variadic, only OpBarrier)
	params  int    // parameter count
	unitary bool
}

var opTable = [numOps]opInfo{
	OpID:      {"id", 1, 0, true},
	OpX:       {"x", 1, 0, true},
	OpY:       {"y", 1, 0, true},
	OpZ:       {"z", 1, 0, true},
	OpH:       {"h", 1, 0, true},
	OpS:       {"s", 1, 0, true},
	OpSdg:     {"sdg", 1, 0, true},
	OpT:       {"t", 1, 0, true},
	OpTdg:     {"tdg", 1, 0, true},
	OpSX:      {"sx", 1, 0, true},
	OpRX:      {"rx", 1, 1, true},
	OpRY:      {"ry", 1, 1, true},
	OpRZ:      {"rz", 1, 1, true},
	OpU1:      {"u1", 1, 1, true},
	OpU2:      {"u2", 1, 2, true},
	OpU3:      {"u3", 1, 3, true},
	OpCX:      {"cx", 2, 0, true},
	OpCZ:      {"cz", 2, 0, true},
	OpSwap:    {"swap", 2, 0, true},
	OpCP:      {"cp", 2, 1, true},
	OpRZZ:     {"rzz", 2, 1, true},
	OpRXX:     {"rxx", 2, 1, true},
	OpCCX:     {"ccx", 3, 0, true},
	OpMeasure: {"measure", 1, 0, false},
	OpReset:   {"reset", 1, 0, false},
	OpBarrier: {"barrier", 0, 0, false},
}

// Name returns the OpenQASM-style lowercase mnemonic for the op.
func (o Op) Name() string {
	if o >= numOps {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opTable[o].name
}

// String implements fmt.Stringer.
func (o Op) String() string { return o.Name() }

// NumQubits returns the operand count for the op; 0 means variadic
// (only OpBarrier).
func (o Op) NumQubits() int {
	if o >= numOps {
		return 0
	}
	return opTable[o].qubits
}

// NumParams returns the number of real parameters the op takes.
func (o Op) NumParams() int {
	if o >= numOps {
		return 0
	}
	return opTable[o].params
}

// Unitary reports whether the op is a unitary gate (as opposed to a
// measurement, reset or barrier directive).
func (o Op) Unitary() bool {
	if o >= numOps {
		return false
	}
	return opTable[o].unitary
}

// SingleQubit reports whether the op is a unitary acting on exactly one qubit.
func (o Op) SingleQubit() bool { return o.Unitary() && o.NumQubits() == 1 }

// TwoQubit reports whether the op is a unitary acting on exactly two qubits.
func (o Op) TwoQubit() bool { return o.Unitary() && o.NumQubits() == 2 }

// OpByName resolves an OpenQASM mnemonic (e.g. "cx", "u3") to its Op,
// ignoring case. It also accepts the common aliases "cnot" (cx),
// "p"/"phase" (u1), "u" (u3), "tof"/"toffoli" (ccx), "cphase"/"cu1" (cp)
// and "xx"/"ms" (rxx).
func OpByName(name string) (Op, bool) {
	k, ascii := opKey(name)
	if !ascii {
		// Unicode lower-casing maps some non-ASCII letters to ASCII ones
		// (U+0130 to 'i'), so such a name is folded first.
		k, _ = opKey(strings.ToLower(name))
	}
	op, ok := opNames[k]
	return op, ok
}

// opKey packs a name of one to 8 ASCII bytes, none of them NUL, lower-cased
// into a word; any other name packs to 0, the key of no name OpByName
// accepts. ascii reports whether the name is all ASCII.
func opKey(name string) (k uint64, ascii bool) {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return 0, false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c == 0 || i == 8 {
			k = 0
			break
		}
		k |= uint64(c) << (8 * i)
	}
	return k, true
}

// opNames maps the key of every name OpByName accepts to its op, built at
// init.
var opNames = map[uint64]Op{}

func init() {
	names := map[string]Op{
		"cnot": OpCX, "p": OpU1, "phase": OpU1, "u": OpU3, "tof": OpCCX, "toffoli": OpCCX,
		"cphase": OpCP, "cu1": OpCP, "xx": OpRXX, "ms": OpRXX,
	}
	for o := Op(0); o < numOps; o++ {
		names[opTable[o].name] = o
	}
	for name, op := range names {
		k, _ := opKey(name)
		if k == 0 {
			panic("circuit: op name " + name + " does not pack into a key")
		}
		opNames[k] = op
	}
}

// Gate is a single operation applied to specific qubits. Qubit indices are
// logical before mapping and physical after mapping; the IR does not
// distinguish, the surrounding context does.
type Gate struct {
	Op     Op
	Qubits []int
	Params []float64
	// Cbit is the classical destination bit for OpMeasure; unused otherwise.
	Cbit int
}

// New1Q constructs a single-qubit gate without parameters.
func New1Q(op Op, q int) Gate { return Gate{Op: op, Qubits: []int{q}} }

// New1QP constructs a parameterised single-qubit gate.
func New1QP(op Op, q int, params ...float64) Gate {
	return Gate{Op: op, Qubits: []int{q}, Params: params}
}

// New2Q constructs a two-qubit gate without parameters.
func New2Q(op Op, a, b int) Gate { return Gate{Op: op, Qubits: []int{a, b}} }

// New2QP constructs a parameterised two-qubit gate.
func New2QP(op Op, a, b int, params ...float64) Gate {
	return Gate{Op: op, Qubits: []int{a, b}, Params: params}
}

// Validate checks operand/parameter arity and operand distinctness.
func (g Gate) Validate() error {
	if g.Op >= numOps {
		return fmt.Errorf("circuit: unknown op %d", uint8(g.Op))
	}
	want := g.Op.NumQubits()
	if want > 0 && len(g.Qubits) != want {
		return fmt.Errorf("circuit: %s expects %d qubits, got %d", g.Op, want, len(g.Qubits))
	}
	if g.Op == OpBarrier && len(g.Qubits) == 0 {
		return fmt.Errorf("circuit: barrier needs at least one qubit")
	}
	if len(g.Params) != g.Op.NumParams() {
		return fmt.Errorf("circuit: %s expects %d params, got %d", g.Op, g.Op.NumParams(), len(g.Params))
	}
	for i := 0; i < len(g.Qubits); i++ {
		if g.Qubits[i] < 0 {
			return fmt.Errorf("circuit: %s has negative qubit %d", g.Op, g.Qubits[i])
		}
		for j := i + 1; j < len(g.Qubits); j++ {
			if g.Qubits[i] == g.Qubits[j] {
				return fmt.Errorf("circuit: %s uses qubit %d twice", g.Op, g.Qubits[i])
			}
		}
	}
	return nil
}

// On reports whether the gate acts on qubit q.
func (g Gate) On(q int) bool {
	for _, gq := range g.Qubits {
		if gq == q {
			return true
		}
	}
	return false
}

// SharesQubit reports whether g and h act on at least one common qubit.
func (g Gate) SharesQubit(h Gate) bool {
	for _, q := range g.Qubits {
		if h.On(q) {
			return true
		}
	}
	return false
}

// Remap returns a copy of the gate with every qubit index i replaced by
// f(i). Parameters and classical bits are preserved.
func (g Gate) Remap(f func(int) int) Gate {
	qs := make([]int, len(g.Qubits))
	for i, q := range g.Qubits {
		qs[i] = f(q)
	}
	out := g
	out.Qubits = qs
	return out
}

// Clone returns a deep copy of the gate.
func (g Gate) Clone() Gate {
	out := g
	out.Qubits = append([]int(nil), g.Qubits...)
	if g.Params != nil {
		out.Params = append([]float64(nil), g.Params...)
	}
	return out
}

// Equal reports structural equality (op, qubits, params, cbit).
func (g Gate) Equal(h Gate) bool {
	if g.Op != h.Op || len(g.Qubits) != len(h.Qubits) || len(g.Params) != len(h.Params) || g.Cbit != h.Cbit {
		return false
	}
	for i := range g.Qubits {
		if g.Qubits[i] != h.Qubits[i] {
			return false
		}
	}
	for i := range g.Params {
		if g.Params[i] != h.Params[i] {
			return false
		}
	}
	return true
}

// String renders the gate in OpenQASM-like syntax, e.g. "cx q[0],q[3]".
func (g Gate) String() string {
	var b strings.Builder
	b.WriteString(g.Op.Name())
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	if g.Op == OpMeasure {
		fmt.Fprintf(&b, " -> c[%d]", g.Cbit)
	}
	return b.String()
}

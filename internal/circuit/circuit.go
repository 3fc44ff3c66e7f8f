package circuit

import (
	"fmt"
	"strings"
)

// Circuit is an ordered sequence of gates over NumQubits qubits. The order
// is program order; actual execution order is constrained only by the
// dependency DAG (see dag.go) and gate commutation (see commute.go).
type Circuit struct {
	// Name identifies the circuit in reports and benchmark tables.
	Name string
	// NumQubits is the number of (logical or physical) qubits addressed.
	NumQubits int
	// NumClbits is the number of classical bits (for measurements).
	NumClbits int
	// Gates is the program-order gate sequence.
	Gates []Gate
}

// New creates an empty circuit over n qubits.
func New(n int) *Circuit { return &Circuit{NumQubits: n} }

// NewNamed creates an empty named circuit over n qubits.
func NewNamed(name string, n int) *Circuit { return &Circuit{Name: name, NumQubits: n} }

// Add appends a gate after validating it against the circuit size, and
// panics where Append returns an error. It returns the circuit to allow
// chaining.
func (c *Circuit) Add(g Gate) *Circuit {
	if err := c.Append(g); err != nil {
		panic(err)
	}
	return c
}

// Append validates a gate against the circuit size and appends it. An
// invalid gate is not appended; its error is returned.
func (c *Circuit) Append(g Gate) error {
	if err := c.check(g); err != nil {
		return err
	}
	c.Gates = append(c.Gates, g)
	return nil
}

// check validates the gate and its indices against the circuit.
func (c *Circuit) check(g Gate) error {
	if err := g.Validate(); err != nil {
		return err
	}
	for _, q := range g.Qubits {
		if q >= c.NumQubits {
			return fmt.Errorf("circuit %q: qubit %d out of range [0,%d)", c.Name, q, c.NumQubits)
		}
	}
	if g.Op == OpMeasure && g.Cbit >= c.NumClbits {
		c.NumClbits = g.Cbit + 1
	}
	return nil
}

// AppendAll appends every gate of other (validated against c's size).
func (c *Circuit) AppendAll(other *Circuit) *Circuit {
	for _, g := range other.Gates {
		c.Add(g.Clone())
	}
	return c
}

// Convenience builders. Each appends the corresponding gate and returns the
// circuit for chaining.

// I appends an identity gate on q.
func (c *Circuit) I(q int) *Circuit { return c.Add(New1Q(OpID, q)) }

// X appends a Pauli-X on q.
func (c *Circuit) X(q int) *Circuit { return c.Add(New1Q(OpX, q)) }

// Y appends a Pauli-Y on q.
func (c *Circuit) Y(q int) *Circuit { return c.Add(New1Q(OpY, q)) }

// Z appends a Pauli-Z on q.
func (c *Circuit) Z(q int) *Circuit { return c.Add(New1Q(OpZ, q)) }

// H appends a Hadamard on q.
func (c *Circuit) H(q int) *Circuit { return c.Add(New1Q(OpH, q)) }

// S appends an S gate on q.
func (c *Circuit) S(q int) *Circuit { return c.Add(New1Q(OpS, q)) }

// Sdg appends an S-dagger on q.
func (c *Circuit) Sdg(q int) *Circuit { return c.Add(New1Q(OpSdg, q)) }

// T appends a T gate on q.
func (c *Circuit) T(q int) *Circuit { return c.Add(New1Q(OpT, q)) }

// Tdg appends a T-dagger on q.
func (c *Circuit) Tdg(q int) *Circuit { return c.Add(New1Q(OpTdg, q)) }

// RX appends rx(theta) on q.
func (c *Circuit) RX(theta float64, q int) *Circuit { return c.Add(New1QP(OpRX, q, theta)) }

// RY appends ry(theta) on q.
func (c *Circuit) RY(theta float64, q int) *Circuit { return c.Add(New1QP(OpRY, q, theta)) }

// RZ appends rz(theta) on q.
func (c *Circuit) RZ(theta float64, q int) *Circuit { return c.Add(New1QP(OpRZ, q, theta)) }

// U1 appends u1(lambda) on q.
func (c *Circuit) U1(lambda float64, q int) *Circuit { return c.Add(New1QP(OpU1, q, lambda)) }

// U2 appends u2(phi, lambda) on q.
func (c *Circuit) U2(phi, lambda float64, q int) *Circuit { return c.Add(New1QP(OpU2, q, phi, lambda)) }

// U3 appends u3(theta, phi, lambda) on q.
func (c *Circuit) U3(theta, phi, lambda float64, q int) *Circuit {
	return c.Add(New1QP(OpU3, q, theta, phi, lambda))
}

// CX appends a CNOT with control a and target b.
func (c *Circuit) CX(a, b int) *Circuit { return c.Add(New2Q(OpCX, a, b)) }

// CZ appends a controlled-Z on a, b.
func (c *Circuit) CZ(a, b int) *Circuit { return c.Add(New2Q(OpCZ, a, b)) }

// Swap appends a SWAP on a, b.
func (c *Circuit) Swap(a, b int) *Circuit { return c.Add(New2Q(OpSwap, a, b)) }

// CP appends a controlled-phase cp(lambda) on a, b.
func (c *Circuit) CP(lambda float64, a, b int) *Circuit { return c.Add(New2QP(OpCP, a, b, lambda)) }

// RZZ appends rzz(theta) on a, b.
func (c *Circuit) RZZ(theta float64, a, b int) *Circuit { return c.Add(New2QP(OpRZZ, a, b, theta)) }

// CCX appends a Toffoli with controls a, b and target t.
func (c *Circuit) CCX(a, b, t int) *Circuit { return c.Add(Gate{Op: OpCCX, Qubits: []int{a, b, t}}) }

// Measure appends a measurement of q into classical bit cbit.
func (c *Circuit) Measure(q, cbit int) *Circuit {
	return c.Add(Gate{Op: OpMeasure, Qubits: []int{q}, Cbit: cbit})
}

// Barrier appends a barrier across the given qubits (all qubits if none given).
func (c *Circuit) Barrier(qs ...int) *Circuit {
	if len(qs) == 0 {
		qs = make([]int, c.NumQubits)
		for i := range qs {
			qs[i] = i
		}
	}
	return c.Add(Gate{Op: OpBarrier, Qubits: qs})
}

// Len returns the number of gates.
func (c *Circuit) Len() int { return len(c.Gates) }

// CountOps returns a histogram of op -> occurrence count.
func (c *Circuit) CountOps() map[Op]int {
	m := make(map[Op]int)
	for _, g := range c.Gates {
		m[g.Op]++
	}
	return m
}

// TwoQubitCount returns the number of two-qubit unitary gates.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Op.TwoQubit() {
			n++
		}
	}
	return n
}

// UsedQubits returns the number of distinct qubits referenced by gates.
func (c *Circuit) UsedQubits() int {
	seen := make([]bool, c.NumQubits)
	n := 0
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			if !seen[q] {
				seen[q] = true
				n++
			}
		}
	}
	return n
}

// Depth returns the standard (unweighted) circuit depth: the length of the
// longest chain of gates that share qubits, counting barriers as
// synchronisation points of zero depth.
func (c *Circuit) Depth() int {
	level := make([]int, c.NumQubits)
	maxDepth := 0
	for _, g := range c.Gates {
		start := 0
		for _, q := range g.Qubits {
			if level[q] > start {
				start = level[q]
			}
		}
		d := start
		if g.Op != OpBarrier {
			d++
		}
		for _, q := range g.Qubits {
			level[q] = d
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	return maxDepth
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	out.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		out.Gates[i] = g.Clone()
	}
	return out
}

// Reversed returns a new circuit with the gate order reversed. It is used by
// the SABRE reverse-traversal initial-mapping pass; gate inverses are not
// taken because only the dependency structure matters there. The gate
// values are shared with the receiver (qubit and parameter slices are not
// copied — gates are immutable throughout the codebase); use Clone first if
// the copy must be independent.
func (c *Circuit) Reversed() *Circuit {
	out := &Circuit{Name: c.Name + "_rev", NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	out.Gates = make([]Gate, len(c.Gates))
	for i := range c.Gates {
		out.Gates[i] = c.Gates[len(c.Gates)-1-i]
	}
	return out
}

// Validate checks every gate against the circuit bounds.
func (c *Circuit) Validate() error {
	if c.NumQubits <= 0 {
		return fmt.Errorf("circuit %q: non-positive qubit count %d", c.Name, c.NumQubits)
	}
	for i, g := range c.Gates {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
		for _, q := range g.Qubits {
			if q >= c.NumQubits {
				return fmt.Errorf("gate %d (%s): qubit %d out of range [0,%d)", i, g, q, c.NumQubits)
			}
		}
	}
	return nil
}

// Equal reports whether two circuits have identical size and gate sequences.
func (c *Circuit) Equal(o *Circuit) bool {
	if c.NumQubits != o.NumQubits || len(c.Gates) != len(o.Gates) {
		return false
	}
	for i := range c.Gates {
		if !c.Gates[i].Equal(o.Gates[i]) {
			return false
		}
	}
	return true
}

// String renders a short human-readable summary plus the gate listing.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %q: %d qubits, %d gates, depth %d\n", c.Name, c.NumQubits, len(c.Gates), c.Depth())
	for _, g := range c.Gates {
		b.WriteString("  ")
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	return b.String()
}

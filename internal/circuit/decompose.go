package circuit

// Decompose lowers a circuit to the base gate set the remappers operate on:
// arbitrary single-qubit gates plus CX (and CZ, which every built-in device
// supports natively). Compound ops are expanded:
//
//	ccx        -> 6-CX standard Toffoli decomposition
//	cp(l)      -> u1(l/2) a; cx a,b; u1(-l/2) b; cx a,b; u1(l/2) b
//	rzz(t)     -> cx a,b; rz(t) b; cx a,b
//	rxx(t)     -> h a; h b; cx a,b; rz(t) b; cx a,b; h a; h b
//	swap       -> cx a,b; cx b,a; cx a,b   (SWAPs appearing in *input* programs)
//
// Barriers, measurements and resets pass through unchanged. The original
// circuit is not modified.
func Decompose(c *Circuit) *Circuit {
	out := &Circuit{
		Name:      c.Name,
		NumQubits: c.NumQubits,
		NumClbits: c.NumClbits,
		// Lower bound: every input gate yields at least one output gate.
		Gates: make([]Gate, 0, len(c.Gates)),
	}
	d := decomposer{out: out}
	for _, g := range c.Gates {
		decomposeInto(&d, g)
	}
	return out
}

// decomposer batches the per-gate qubit and parameter slices of its output
// through arenas: pass-through copies of already-lowered gates (batch
// Decompose, which must not alias its input) and every gate of a compound
// expansion.
type decomposer struct {
	out    *Circuit
	qubits IntArena
	params FloatArena
}

// passThrough appends a deep copy of an already-base gate, with its qubit
// and parameter slices carved from the decomposer's arenas.
func (d *decomposer) passThrough(g Gate) {
	qs := d.qubits.Take(len(g.Qubits))
	copy(qs, g.Qubits)
	g.Qubits = qs
	if g.Params != nil {
		ps := d.params.Take(len(g.Params))
		copy(ps, g.Params)
		g.Params = ps
	}
	d.out.Add(g)
}

// add1 appends op on qubit q with the given parameters.
func (d *decomposer) add1(op Op, q int, params ...float64) {
	qs := d.qubits.Take(1)
	qs[0] = q
	g := Gate{Op: op, Qubits: qs}
	if len(params) > 0 {
		g.Params = d.params.Take(len(params))
		copy(g.Params, params)
	}
	d.out.Add(g)
}

// cx appends a CNOT with control a and target b.
func (d *decomposer) cx(a, b int) {
	qs := d.qubits.Take(2)
	qs[0], qs[1] = a, b
	d.out.Add(Gate{Op: OpCX, Qubits: qs})
}

// decomposeInto appends the base-set expansion of g to d.out.
func decomposeInto(d *decomposer, g Gate) {
	switch g.Op {
	case OpCCX:
		a, b, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
		d.add1(OpH, t)
		d.cx(b, t)
		d.add1(OpTdg, t)
		d.cx(a, t)
		d.add1(OpT, t)
		d.cx(b, t)
		d.add1(OpTdg, t)
		d.cx(a, t)
		d.add1(OpT, b)
		d.add1(OpT, t)
		d.add1(OpH, t)
		d.cx(a, b)
		d.add1(OpT, a)
		d.add1(OpTdg, b)
		d.cx(a, b)
	case OpCP:
		a, b := g.Qubits[0], g.Qubits[1]
		l := g.Params[0]
		d.add1(OpU1, a, l/2)
		d.cx(a, b)
		d.add1(OpU1, b, -l/2)
		d.cx(a, b)
		d.add1(OpU1, b, l/2)
	case OpRZZ:
		a, b := g.Qubits[0], g.Qubits[1]
		d.cx(a, b)
		d.add1(OpRZ, b, g.Params[0])
		d.cx(a, b)
	case OpRXX:
		a, b := g.Qubits[0], g.Qubits[1]
		d.add1(OpH, a)
		d.add1(OpH, b)
		d.cx(a, b)
		d.add1(OpRZ, b, g.Params[0])
		d.cx(a, b)
		d.add1(OpH, a)
		d.add1(OpH, b)
	case OpSwap:
		a, b := g.Qubits[0], g.Qubits[1]
		d.cx(a, b)
		d.cx(b, a)
		d.cx(a, b)
	default:
		d.passThrough(g)
	}
}

// IsBase reports whether the op belongs to the base set accepted by the
// remappers (single-qubit unitaries, CX, CZ, plus pass-through directives).
func IsBase(op Op) bool {
	switch op {
	case OpCCX, OpCP, OpRZZ, OpRXX, OpSwap:
		return false
	default:
		return true
	}
}

// IsLowered reports whether every gate of c is in the base set.
func IsLowered(c *Circuit) bool {
	for _, g := range c.Gates {
		if !IsBase(g.Op) {
			return false
		}
	}
	return true
}

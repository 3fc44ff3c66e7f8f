package circuit

// SoA is the struct-of-arrays mirror of a circuit's gate sequence, built
// once per circuit and shared by every traversal that only needs ops and
// operands (the CODAR commutative-front walk, the SWAP-candidate search,
// SABRE's front/extended-set scans). The gate slice ([]Gate, ~64 bytes per
// element with two pointer-backed slices) is cache-hostile for these loops:
// each step loads a full Gate value and chases Qubits through a separate
// allocation. Here the same information is four dense parallel arrays —
// an op byte, a two-qubit flag, and a flat operand pool addressed by
// offsets — so a window scan touches contiguous memory and the common
// "is gate i a blocked two-qubit gate, and on which pair?" question costs
// three indexed loads with no pointer chase.
//
// The offset scheme is the one the frontier engine already used privately:
// operand k of gate i lives at flat slot QOff[i]+k, and SlotGate inverts
// the mapping (slot → gate) for per-qubit chain bookkeeping. Lifting it
// here lets the frontier drop its private copies and every other consumer
// share one build.
type SoA struct {
	// Ops[i] is gate i's operation.
	Ops []Op
	// Is2Q[i] caches Ops[i].TwoQubit() — the hottest per-gate predicate.
	Is2Q []bool
	// QOff has len(Ops)+1 entries; gate i's operands occupy
	// Qubits[QOff[i]:QOff[i+1]].
	QOff []int32
	// Qubits is the flat operand pool.
	Qubits []int32
	// SlotGate[s] is the gate owning flat slot s (the inverse of QOff).
	SlotGate []int32
	// Basis[s] is the gate's commutation basis on the operand at slot s
	// (Gate.BasisOn of that qubit), so position-dependent commutation
	// checks compare two table bytes instead of walking Gate values.
	Basis []Basis
}

// NewSoA builds the struct-of-arrays layout for c's gates.
func NewSoA(c *Circuit) *SoA {
	s := &SoA{}
	s.Load(c.Gates)
	return s
}

// Load rebuilds the layout over gates in place, reusing the arrays'
// memory: the streaming remapper re-indexes its window once per epoch.
func (s *SoA) Load(gates []Gate) {
	n := len(gates)
	total := 0
	for i := range gates {
		total += len(gates[i].Qubits)
	}
	s.Ops = Reuse(s.Ops, n)
	s.Is2Q = Reuse(s.Is2Q, n)
	s.QOff = Reuse(s.QOff, n+1)
	s.Qubits = Reuse(s.Qubits, total)[:0]
	s.SlotGate = Reuse(s.SlotGate, total)
	s.Basis = Reuse(s.Basis, total)
	for i := range gates {
		g := &gates[i]
		s.Ops[i] = g.Op
		s.Is2Q[i] = g.Op.TwoQubit()
		s.QOff[i] = int32(len(s.Qubits))
		for k, q := range g.Qubits {
			if g.Op < numOps && k < 3 {
				s.Basis[len(s.Qubits)] = basisTab[g.Op][k]
			}
			s.SlotGate[len(s.Qubits)] = int32(i)
			s.Qubits = append(s.Qubits, int32(q))
		}
	}
	s.QOff[n] = int32(len(s.Qubits))
}

// LoadReversed rebuilds the layout in place as src's gates in reverse
// order: what NewSoA builds for the reversed circuit, without reversing the
// gate slice. SABRE's backward placement pass reads it.
func (s *SoA) LoadReversed(src *SoA) {
	n, total := src.Len(), len(src.Qubits)
	s.Ops = Reuse(s.Ops, n)
	s.Is2Q = Reuse(s.Is2Q, n)
	s.QOff = Reuse(s.QOff, n+1)
	s.Qubits = Reuse(s.Qubits, total)[:0]
	s.SlotGate = Reuse(s.SlotGate, total)
	s.Basis = Reuse(s.Basis, total)[:0]
	for i := 0; i < n; i++ {
		j := n - 1 - i
		s.Ops[i], s.Is2Q[i] = src.Ops[j], src.Is2Q[j]
		s.QOff[i] = int32(len(s.Qubits))
		lo, hi := src.QOff[j], src.QOff[j+1]
		for slot := len(s.Qubits); slot < len(s.Qubits)+int(hi-lo); slot++ {
			s.SlotGate[slot] = int32(i)
		}
		s.Qubits = append(s.Qubits, src.Qubits[lo:hi]...)
		s.Basis = append(s.Basis, src.Basis[lo:hi]...)
	}
	s.QOff[n] = int32(total)
}

// Len returns the number of gates.
func (s *SoA) Len() int { return len(s.Ops) }

// TwoQubitGates returns the number of two-qubit gates, from which both
// routers size their output.
func (s *SoA) TwoQubitGates() int {
	n := 0
	for _, two := range s.Is2Q {
		if two {
			n++
		}
	}
	return n
}

// NumQubits returns gate i's operand count.
func (s *SoA) NumQubits(i int) int { return int(s.QOff[i+1] - s.QOff[i]) }

// Qubit returns operand k of gate i.
func (s *SoA) Qubit(i, k int) int { return int(s.Qubits[int(s.QOff[i])+k]) }

// Pair returns the two operands of two-qubit gate i.
func (s *SoA) Pair(i int) (int, int) {
	off := s.QOff[i]
	return int(s.Qubits[off]), int(s.Qubits[off+1])
}

// Operands returns gate i's operand slice (a view into the flat pool; the
// caller must not mutate it).
func (s *SoA) Operands(i int) []int32 {
	return s.Qubits[s.QOff[i]:s.QOff[i+1]]
}

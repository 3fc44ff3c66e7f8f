package circuit

// DAG is the gate dependency graph of a circuit in compressed rows: gate j
// precedes gate k when j is the last earlier gate on one of k's qubits.
// This is the standard structure used by SABRE (Li et al., ASPLOS'19); it
// deliberately ignores commutation so that the baseline matches its
// published form. CODAR uses the commutative front instead (see
// commute.go). Each gate's successors are listed once, in ascending order.
//
// Load rebuilds every array in place, so one SABRE mapper reuses their
// memory across its passes and stream epochs.
type DAG struct {
	// Off has one entry per gate plus one: gate k's successors are
	// Succ[Off[k]:Off[k+1]].
	Off  []int32
	Succ []int32
	// InDeg[k] counts gate k's predecessors.
	InDeg []int32
	// last[q] is the latest gate on qubit q during a Load.
	last []int32
}

// Load rebuilds the graph over the gates of s, whose operands address
// numQubits qubits.
func (d *DAG) Load(s *SoA, numQubits int) {
	n := s.Len()
	d.Off = Reuse(d.Off, n+1)
	d.InDeg = Reuse(d.InDeg, n)
	d.edges(s, numQubits, false)
	for k := 0; k < n; k++ {
		d.Off[k+1] += d.Off[k]
	}
	d.Succ = Reuse(d.Succ, int(d.Off[n]))
	d.edges(s, numQubits, true)
	// Filling advanced each row's start to the next row's; shift back.
	copy(d.Off[1:], d.Off[:n])
	d.Off[0] = 0
}

// edges walks every edge j → k in ascending k. The counting walk tallies
// row j's length into Off[j+1] and k's in-degree; the filling walk writes
// k at row j's cursor Off[j], so each row comes out ascending.
func (d *DAG) edges(s *SoA, numQubits int, fill bool) {
	d.last = Reuse(d.last, numQubits)
	for q := range d.last {
		d.last[q] = -1
	}
	for k := int32(0); k < int32(s.Len()); k++ {
		ops := s.Operands(int(k))
		for i, q := range ops {
			j := d.last[q]
			if j < 0 || d.seen(ops[:i], j) {
				continue
			}
			if fill {
				d.Succ[d.Off[j]] = k
				d.Off[j]++
			} else {
				d.Off[j+1]++
				d.InDeg[k]++
			}
		}
		for _, q := range ops {
			d.last[q] = k
		}
	}
}

// seen reports whether gate j is already the last gate on one of qs, so
// that a gate sharing several qubits with j depends on it once.
func (d *DAG) seen(qs []int32, j int32) bool {
	for _, q := range qs {
		if d.last[q] == j {
			return true
		}
	}
	return false
}

// Succs returns gate k's successors, ascending.
func (d *DAG) Succs(k int) []int32 { return d.Succ[d.Off[k]:d.Off[k+1]] }

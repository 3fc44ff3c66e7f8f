package core

// computeFront returns the commutative front (CF) of the remaining gate
// sequence: the indices of gates that commute with every earlier remaining
// gate (Definition 1). The scan is bounded by the options window; gates on
// disjoint qubits commute trivially, so membership only involves earlier
// gates sharing one of a candidate's qubits. The incremental engine
// (frontier.go) does the work; frontCheck, when set, observes the result.
//
// With DisableCommutativity the front degrades to the plain dependency
// front (first unexecuted gate per qubit chain), which is what SABRE uses.
func (r *remapper) computeFront() []int {
	r.starved = false
	front := r.f.computeFront()
	if r.frontCheck != nil && !r.starved {
		r.frontCheck(front)
	}
	return front
}

// frontTwoQubit filters the front down to two-qubit unitaries, the gates
// that participate in the distance heuristics.
func (r *remapper) frontTwoQubit(front []int) []int {
	r.front2q = r.front2q[:0]
	for _, i := range front {
		if r.soa.Is2Q[i] {
			r.front2q = append(r.front2q, i)
		}
	}
	return r.front2q
}

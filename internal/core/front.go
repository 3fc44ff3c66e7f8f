package core

// computeFront returns the commutative front (CF) of the remaining gate
// sequence: the indices of gates that commute with every earlier remaining
// gate (Definition 1). The scan is bounded by the options window; gates on
// disjoint qubits commute trivially, so membership only involves earlier
// gates sharing one of a candidate's qubits. The incremental engine
// (frontier.go) does the work and keeps the look-ahead set beside the
// front; frontCheck, when set, observes both.
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

package circuit

import (
	"fmt"
	"sync"
)

// Assembly bundles a circuit with what every mapping pass over it reads:
// the struct-of-arrays gate layout, built eagerly, and the validity check
// (Validate + IsLowered, two O(gates) walks), memoised so a portfolio run
// over sixteen candidates pays for it once instead of sixteen times.
// SABRE's dependency DAG and the reversed view of its backward placement
// pass are rebuilt by the mapper in its own memory, not cached here.
//
// An Assembly treats its circuit as immutable from construction on;
// callers that mutate c.Gates afterwards get stale derived views. The
// check is synchronised, so one Assembly may be shared across the
// portfolio worker pool.
type Assembly struct {
	Circ *Circuit
	SoA  *SoA

	chkOnce sync.Once
	chkErr  error
}

// Assemble builds the assembly for c, eagerly constructing the SoA layout.
func Assemble(c *Circuit) *Assembly {
	return &Assembly{Circ: c, SoA: NewSoA(c)}
}

// Load points a at c, rebuilding the SoA layout in the memory of the
// previous load and forgetting the cached check: a reused compile context
// (compile.Worker) assembles every circuit into one Assembly. No goroutine
// may be using a.
func (a *Assembly) Load(c *Circuit) {
	if a.SoA == nil {
		a.SoA = new(SoA)
	}
	a.SoA.Load(c.Gates)
	a.Circ = c
	a.chkOnce, a.chkErr = sync.Once{}, nil
}

// Checked reports whether the circuit is valid and lowered to the base
// gate set, running the two O(gates) walks once and caching the verdict.
// Callers wrap the error with their own prefix ("codar:", "sabre:"), which
// reproduces the pre-assembly error text exactly.
func (a *Assembly) Checked() error {
	a.chkOnce.Do(func() {
		if err := a.Circ.Validate(); err != nil {
			a.chkErr = err
			return
		}
		if !IsLowered(a.Circ) {
			a.chkErr = fmt.Errorf("circuit %q contains compound gates; apply circuit.Decompose first", a.Circ.Name)
		}
	})
	return a.chkErr
}

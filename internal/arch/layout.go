package arch

import (
	"fmt"
	"math/rand"
	"sync"
)

// Layout is the dynamic mapping π: QP -> QH from logical to physical qubits
// (paper Table II). The number of physical qubits N may exceed the number
// of logical qubits n; physical qubits without a logical occupant map back
// to -1. SWAPs operate on physical qubits and permute whatever logical
// qubits (if any) occupy them.
type Layout struct {
	log2phys []int // logical -> physical, length n
	phys2log []int // physical -> logical or -1, length N
}

// NewTrivialLayout maps logical qubit i to physical qubit i.
func NewTrivialLayout(logical, physical int) *Layout {
	if logical > physical {
		panic(fmt.Sprintf("arch: %d logical qubits exceed %d physical", logical, physical))
	}
	l := &Layout{
		log2phys: make([]int, logical),
		phys2log: make([]int, physical),
	}
	for i := range l.phys2log {
		l.phys2log[i] = -1
	}
	for i := range l.log2phys {
		l.log2phys[i] = i
		l.phys2log[i] = i
	}
	return l
}

// NewLayout builds a layout from an explicit logical->physical assignment.
// The assignment must be injective and within [0, physical).
func NewLayout(log2phys []int, physical int) (*Layout, error) {
	if len(log2phys) > physical {
		return nil, fmt.Errorf("arch: %d logical qubits exceed %d physical", len(log2phys), physical)
	}
	l := &Layout{
		log2phys: append([]int(nil), log2phys...),
		phys2log: make([]int, physical),
	}
	for i := range l.phys2log {
		l.phys2log[i] = -1
	}
	for q, p := range l.log2phys {
		if p < 0 || p >= physical {
			return nil, fmt.Errorf("arch: logical %d mapped to out-of-range physical %d", q, p)
		}
		if l.phys2log[p] != -1 {
			return nil, fmt.Errorf("arch: physical %d assigned to both logical %d and %d", p, l.phys2log[p], q)
		}
		l.phys2log[p] = q
	}
	return l, nil
}

// NumLogical returns n, the number of logical qubits.
func (l *Layout) NumLogical() int { return len(l.log2phys) }

// NumPhysical returns N, the number of physical qubits.
func (l *Layout) NumPhysical() int { return len(l.phys2log) }

// Phys returns π(q), the physical qubit hosting logical qubit q.
func (l *Layout) Phys(q int) int { return l.log2phys[q] }

// Log returns the logical qubit hosted by physical qubit p, or -1.
func (l *Layout) Log(p int) int { return l.phys2log[p] }

// SwapPhysical exchanges the logical occupants of physical qubits a and b
// (either or both may be unoccupied). This is the layout effect of a SWAP
// gate inserted by a remapper.
func (l *Layout) SwapPhysical(a, b int) {
	la, lb := l.phys2log[a], l.phys2log[b]
	l.phys2log[a], l.phys2log[b] = lb, la
	if la >= 0 {
		l.log2phys[la] = b
	}
	if lb >= 0 {
		l.log2phys[lb] = a
	}
}

// Clone returns an independent copy.
func (l *Layout) Clone() *Layout {
	return &Layout{
		log2phys: append([]int(nil), l.log2phys...),
		phys2log: append([]int(nil), l.phys2log...),
	}
}

// Assignment returns a copy of the logical->physical table.
func (l *Layout) Assignment() []int { return append([]int(nil), l.log2phys...) }

// Equal reports whether two layouts encode the same assignment.
func (l *Layout) Equal(o *Layout) bool {
	if len(l.log2phys) != len(o.log2phys) || len(l.phys2log) != len(o.phys2log) {
		return false
	}
	for i := range l.log2phys {
		if l.log2phys[i] != o.log2phys[i] {
			return false
		}
	}
	return true
}

// Validate checks internal consistency (bijectivity over occupied qubits).
func (l *Layout) Validate() error {
	for q, p := range l.log2phys {
		if p < 0 || p >= len(l.phys2log) {
			return fmt.Errorf("arch: layout maps logical %d to invalid physical %d", q, p)
		}
		if l.phys2log[p] != q {
			return fmt.Errorf("arch: layout inverse broken at logical %d / physical %d", q, p)
		}
	}
	occupied := 0
	for p, q := range l.phys2log {
		if q == -1 {
			continue
		}
		occupied++
		if q < 0 || q >= len(l.log2phys) || l.log2phys[q] != p {
			return fmt.Errorf("arch: layout forward broken at physical %d / logical %d", p, q)
		}
	}
	if occupied != len(l.log2phys) {
		return fmt.Errorf("arch: layout occupies %d physical qubits for %d logical", occupied, len(l.log2phys))
	}
	return nil
}

// String renders the assignment compactly.
func (l *Layout) String() string {
	return fmt.Sprintf("layout%v", l.log2phys)
}

// RandomLayout maps logical qubit i to entry i of the seeded random
// permutation rand.New(rand.NewSource(seed)).Perm(physical): the random
// placement method and the start of SABRE's reverse traversal. Seeding
// math/rand's source costs more than a small compile's routing, so the
// permutations are memoized per (seed, physical) in a bounded table; every
// call still gets a layout of its own.
func RandomLayout(seed int64, logical, physical int) (*Layout, error) {
	if logical > physical {
		return nil, fmt.Errorf("arch: %d logical qubits exceed %d physical", logical, physical)
	}
	return NewLayout(seededPerm(seed, physical)[:logical], physical)
}

// permMemo is RandomLayout's table, shared by the whole process: a
// permutation depends only on its key, so sharing it changes no result. It
// holds at most len(ring) permutations, evicting the oldest first, so a
// service whose requests choose the seed keeps its memory bounded. A
// stored permutation is never written again.
var permMemo struct {
	sync.Mutex
	perms map[permKey][]int
	ring  [64]permKey // insertion order; next is the oldest once full
	next  int
}

type permKey struct {
	seed int64
	n    int
}

// seededPerm returns the memoized permutation of n for seed. The slice is
// shared and must not be modified.
func seededPerm(seed int64, n int) []int {
	m := &permMemo
	k := permKey{seed, n}
	m.Lock()
	defer m.Unlock()
	if p, ok := m.perms[k]; ok {
		return p
	}
	if m.perms == nil {
		m.perms = make(map[permKey][]int, len(m.ring))
	}
	if len(m.perms) == len(m.ring) {
		delete(m.perms, m.ring[m.next])
	}
	p := rand.New(rand.NewSource(seed)).Perm(n)
	m.perms[k] = p
	m.ring[m.next] = k
	m.next = (m.next + 1) % len(m.ring)
	return p
}

// StartLayout is the input check every mapper entry point shares: it
// rejects a circuit of numLogical qubits that does not fit dev, a
// disconnected dev, an initial layout of the wrong shape or inconsistent
// with itself, and a cost model built for another device (cost may be
// nil). It returns the layout the run starts from: initial, or the trivial
// layout when initial is nil.
func StartLayout(numLogical int, dev *Device, initial *Layout, cost *CostModel) (*Layout, error) {
	if numLogical > dev.NumQubits {
		return nil, fmt.Errorf("arch: circuit needs %d qubits but device %s has %d", numLogical, dev.Name, dev.NumQubits)
	}
	if !dev.Connected() {
		return nil, fmt.Errorf("arch: device %s is disconnected", dev.Name)
	}
	if initial == nil {
		initial = NewTrivialLayout(numLogical, dev.NumQubits)
	}
	if initial.NumLogical() != numLogical || initial.NumPhysical() != dev.NumQubits {
		return nil, fmt.Errorf("arch: layout shape %d/%d does not match circuit %d / device %d",
			initial.NumLogical(), initial.NumPhysical(), numLogical, dev.NumQubits)
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if cost != nil {
		if err := cost.CompatibleWith(dev); err != nil {
			return nil, err
		}
	}
	return initial, nil
}

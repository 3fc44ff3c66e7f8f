// Package arch implements the paper's Multi-architecture Adaptive Quantum
// Abstract Machine (maQAM, §III): a device is a coupling graph M = (QH, EH)
// over physical qubits together with a configurable gate-duration map τ and
// the all-pairs shortest-distance matrix D used by the CODAR heuristics.
// Built-in models cover the paper's four evaluation architectures (IBM Q16
// Melbourne, Enfield 6×6, IBM Q20 Tokyo, Google Q54 Sycamore) plus generic
// grids, lines and rings, and the technology parameter data of Table I.
package arch

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"codar/internal/circuit"
)

// Infinity is the distance reported between disconnected qubits
// (the paper's INT_MAX). It is small enough that sums of distances
// never overflow int.
const Infinity = math.MaxInt32 / 4

// Device size caps. NewDevice allocates two n×n tables, the coupler index
// and the distance matrix, about 8·n² bytes, before anything else can
// reject a graph; the caps bound that for every caller, the service's
// request bodies included.
const (
	// MaxQubits caps a device's qubit count: 1,024 covers grid32x32, and a
	// device at the cap keeps about 8.4 MB live.
	MaxQubits = 1024
	// MaxEdges caps the coupler list, sized for sparse hardware graphs: an
	// average degree of 16 at MaxQubits (a 32×32 grid has 1,984 couplers).
	MaxEdges = 8192
)

// ErrTooLarge marks a device over MaxQubits or MaxEdges.
var ErrTooLarge = errors.New("device too large")

// Coord is a 2-D lattice coordinate used by the Hfine heuristic
// (horizontal/vertical distance, paper Eq. 2).
type Coord struct {
	Row, Col int
}

// Device is the static structure As = (QH, G, M, τ, D) of the maQAM.
type Device struct {
	// Name identifies the device in reports.
	Name string
	// NumQubits is |QH|.
	NumQubits int
	// Edges are the undirected coupling pairs (a < b, sorted).
	Edges [][2]int
	// Durations is the gate-duration map τ in quantum clock cycles.
	Durations Durations

	adj [][]int
	// couplers holds each qubit's coupler row: couplers[q][k] is the edge
	// index of (q, adj[q][k]). The rows share one backing array, so the
	// SWAP-candidate loops walk a qubit's couplers without an n×n table
	// lookup per neighbour.
	couplers [][]int32
	// edgeIdx is the dense coupler-index table: edgeIdx[a*NumQubits+b] is
	// the stable index of edge (a, b) in both orientations, or -1 when the
	// pair is uncoupled. A flat array instead of a map keeps Adjacent and
	// EdgeIndex — both on the SWAP-search hot path — a single indexed load.
	edgeIdx []int32
	// dist is the all-pairs distance matrix D, stored row-major in one
	// contiguous allocation (dist[a*NumQubits+b]) so the heuristics' inner
	// loops index one backing array instead of chasing per-row pointers.
	dist []int32
	// diameter is the largest finite entry of dist, recorded by
	// computeDistances.
	diameter int
	coords   []Coord
	// cxDir, when non-nil, restricts native CX orientation: cxDir[[2]int{a,b}]
	// is true iff CX with control a and target b is directly implementable.
	// Routing treats couplers as undirected (a reversed CX costs four extra
	// H gates, not a SWAP); see internal/orient.
	cxDir map[[2]int]bool
}

// NewDevice builds a device from an undirected edge list. Durations default
// to the superconducting preset; coordinates are optional (see SetCoords).
// Self-loops and out-of-range endpoints are rejected; duplicate edges are
// merged. A device over MaxQubits or MaxEdges is rejected, wrapping
// ErrTooLarge, before anything is allocated.
func NewDevice(name string, numQubits int, edges [][2]int) (*Device, error) {
	if numQubits <= 0 {
		return nil, fmt.Errorf("arch: device %q: non-positive qubit count %d", name, numQubits)
	}
	if numQubits > MaxQubits {
		return nil, fmt.Errorf("arch: device %q: %d qubits exceed the limit of %d: %w", name, numQubits, MaxQubits, ErrTooLarge)
	}
	if len(edges) > MaxEdges {
		return nil, fmt.Errorf("arch: device %q: %d couplers exceed the limit of %d: %w", name, len(edges), MaxEdges, ErrTooLarge)
	}
	d := &Device{
		Name:      name,
		NumQubits: numQubits,
		Durations: SuperconductingDurations(),
		edgeIdx:   make([]int32, numQubits*numQubits),
	}
	for i := range d.edgeIdx {
		d.edgeIdx[i] = -1
	}
	if len(edges) > 0 {
		d.Edges = make([][2]int, 0, len(edges))
	}
	for _, e := range edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		if a == b {
			return nil, fmt.Errorf("arch: device %q: self-loop on qubit %d", name, a)
		}
		if a < 0 || b >= numQubits {
			return nil, fmt.Errorf("arch: device %q: edge (%d,%d) out of range [0,%d)", name, a, b, numQubits)
		}
		d.Edges = append(d.Edges, [2]int{a, b})
	}
	slices.SortFunc(d.Edges, func(x, y [2]int) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
	d.Edges = slices.Compact(d.Edges)
	// The adjacency lists and coupler rows are views into two flat arrays.
	// Filling them in sorted edge order leaves every list ascending: q's
	// lower neighbours a (edges (a, q)) come first, by a, then its higher
	// ones.
	deg := make([]int, numQubits)
	for _, e := range d.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	nbrs := make([]int, 2*len(d.Edges))
	ids := make([]int32, 2*len(d.Edges))
	d.adj = make([][]int, numQubits)
	d.couplers = make([][]int32, numQubits)
	off := 0
	for q, k := range deg {
		d.adj[q] = nbrs[off : off : off+k]
		d.couplers[q] = ids[off : off : off+k]
		off += k
	}
	for id, e := range d.Edges {
		a, b := e[0], e[1]
		d.adj[a] = append(d.adj[a], b)
		d.adj[b] = append(d.adj[b], a)
		d.couplers[a] = append(d.couplers[a], int32(id))
		d.couplers[b] = append(d.couplers[b], int32(id))
		d.edgeIdx[a*numQubits+b] = int32(id)
		d.edgeIdx[b*numQubits+a] = int32(id)
	}
	d.computeDistances()
	return d, nil
}

// MustNewDevice is NewDevice that panics on error; for package-internal
// construction of the vetted built-in topologies.
func MustNewDevice(name string, numQubits int, edges [][2]int) *Device {
	d, err := NewDevice(name, numQubits, edges)
	if err != nil {
		panic(err)
	}
	return d
}

// computeDistances fills the all-pairs shortest-path matrix D by BFS from
// every qubit (unit edge weights) and records the diameter on the way.
func (d *Device) computeDistances() {
	n := d.NumQubits
	d.dist = make([]int32, n*n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		row := d.dist[s*n : (s+1)*n]
		for i := range row {
			row[i] = Infinity
		}
		row[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range d.adj[u] {
				if row[v] == Infinity {
					row[v] = row[u] + 1
					d.diameter = max(d.diameter, int(row[v]))
					queue = append(queue, v)
				}
			}
		}
	}
}

// SetCoords attaches 2-D lattice coordinates (one per qubit) enabling the
// Hfine heuristic. Passing a slice of the wrong length is an error.
func (d *Device) SetCoords(coords []Coord) error {
	if len(coords) != d.NumQubits {
		return fmt.Errorf("arch: device %q: %d coords for %d qubits", d.Name, len(coords), d.NumQubits)
	}
	d.coords = append([]Coord(nil), coords...)
	return nil
}

// HasCoords reports whether the device carries 2-D coordinates.
func (d *Device) HasCoords() bool { return d.coords != nil }

// CoordOf returns the lattice coordinate of qubit q. It panics when the
// device has no coordinates; guard with HasCoords.
func (d *Device) CoordOf(q int) Coord { return d.coords[q] }

// HD returns the horizontal (column) distance between two physical qubits
// on the lattice; 0 when the device has no coordinates.
func (d *Device) HD(a, b int) int {
	if d.coords == nil {
		return 0
	}
	h := d.coords[a].Col - d.coords[b].Col
	if h < 0 {
		h = -h
	}
	return h
}

// VD returns the vertical (row) distance between two physical qubits on the
// lattice; 0 when the device has no coordinates.
func (d *Device) VD(a, b int) int {
	if d.coords == nil {
		return 0
	}
	v := d.coords[a].Row - d.coords[b].Row
	if v < 0 {
		v = -v
	}
	return v
}

// Adjacent reports whether a two-qubit gate may be applied directly between
// physical qubits a and b; false for out-of-range indices.
func (d *Device) Adjacent(a, b int) bool {
	if uint(a) >= uint(d.NumQubits) || uint(b) >= uint(d.NumQubits) {
		return false
	}
	return d.edgeIdx[a*d.NumQubits+b] >= 0
}

// Neighbors returns the sorted adjacency list of qubit q. The returned
// slice is shared; callers must not modify it.
func (d *Device) Neighbors(q int) []int { return d.adj[q] }

// Couplers returns the edge indices of qubit q's couplers, aligned with
// Neighbors: Couplers(q)[k] is EdgeIndex(q, Neighbors(q)[k]). The returned
// slice is shared; callers must not modify it.
func (d *Device) Couplers(q int) []int32 { return d.couplers[q] }

// Degree returns the number of couplers attached to qubit q.
func (d *Device) Degree(q int) int { return len(d.adj[q]) }

// Distance returns the shortest-path length D(a, b) in the coupling graph,
// or Infinity when a and b are disconnected.
func (d *Device) Distance(a, b int) int { return int(d.dist[a*d.NumQubits+b]) }

// DistTable returns the flat row-major hop-distance matrix
// (table[a*NumQubits+b]) — the same layout as CostModel.Table, so the
// mappers select one []int32 at construction and index it in their hot
// loops with no per-lookup dispatch. The slice is shared and must not be
// modified.
func (d *Device) DistTable() []int32 { return d.dist }

// EdgeIndex returns the stable index of the undirected edge (a, b), used
// for deterministic tie-breaking; ok is false when the pair is not coupled
// or out of range.
func (d *Device) EdgeIndex(a, b int) (int, bool) {
	if uint(a) >= uint(d.NumQubits) || uint(b) >= uint(d.NumQubits) {
		return -1, false
	}
	id := d.edgeIdx[a*d.NumQubits+b]
	return int(id), id >= 0
}

// Connected reports whether the coupling graph is a single component.
func (d *Device) Connected() bool {
	for q := 1; q < d.NumQubits; q++ {
		if d.dist[q] >= Infinity {
			return false
		}
	}
	return true
}

// Diameter returns the maximum finite pairwise distance.
func (d *Device) Diameter() int { return d.diameter }

// ShortestPath returns one BFS shortest path from a to b, inclusive of both
// endpoints, or nil when disconnected. Ties are broken toward the
// lowest-numbered neighbour, so the result is deterministic. The
// backtracking walk reads the target's contiguous distance row directly.
func (d *Device) ShortestPath(a, b int) []int {
	n := d.NumQubits
	toB := d.dist[b*n : (b+1)*n] // symmetric: toB[q] == D(q, b)
	if toB[a] >= Infinity {
		return nil
	}
	path := []int{a}
	cur := a
	for cur != b {
		next := -1
		for _, v := range d.adj[cur] {
			if toB[v] == toB[cur]-1 {
				next = v
				break
			}
		}
		if next < 0 {
			return nil // unreachable given dist invariants
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// Duration returns τ(op) in clock cycles for this device.
func (d *Device) Duration(op circuit.Op) int { return d.Durations.Of(op) }

// SetDirections declares the natively implementable CX orientations
// (control → target), one per coupler, for devices with directed coupling
// such as the early 5-qubit IBM QX chips (paper §II-A). Every directed
// pair must be an existing coupler and each coupler must appear in at
// least one direction. Calling SetDirections(nil) restores symmetric CX.
func (d *Device) SetDirections(pairs [][2]int) error {
	if pairs == nil {
		d.cxDir = nil
		return nil
	}
	dir := make(map[[2]int]bool, len(pairs))
	covered := make(map[int]bool)
	for _, p := range pairs {
		id, ok := d.EdgeIndex(p[0], p[1])
		if !ok {
			return fmt.Errorf("arch: %q: direction %v is not a coupler", d.Name, p)
		}
		dir[p] = true
		covered[id] = true
	}
	if len(covered) != len(d.Edges) {
		return fmt.Errorf("arch: %q: %d of %d couplers have no CX direction", d.Name, len(d.Edges)-len(covered), len(d.Edges))
	}
	d.cxDir = dir
	return nil
}

// Directed reports whether the device restricts CX orientation.
func (d *Device) Directed() bool { return d.cxDir != nil }

// CXAllowed reports whether a CX with control a and target b is natively
// implementable. On undirected devices it equals Adjacent.
func (d *Device) CXAllowed(a, b int) bool {
	if !d.Adjacent(a, b) {
		return false
	}
	if d.cxDir == nil {
		return true
	}
	return d.cxDir[[2]int{a, b}]
}

// String summarises the device.
func (d *Device) String() string {
	return fmt.Sprintf("%s: %d qubits, %d couplers, diameter %d", d.Name, d.NumQubits, len(d.Edges), d.Diameter())
}

// Validate performs internal consistency checks (used by tests and when
// loading user-defined devices).
func (d *Device) Validate() error {
	if d.NumQubits <= 0 {
		return fmt.Errorf("arch: %q: no qubits", d.Name)
	}
	if !d.Connected() {
		return fmt.Errorf("arch: %q: coupling graph is disconnected", d.Name)
	}
	if err := d.Durations.Validate(); err != nil {
		return fmt.Errorf("arch: %q: %w", d.Name, err)
	}
	return nil
}

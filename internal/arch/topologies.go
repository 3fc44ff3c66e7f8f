package arch

import (
	"fmt"
	"sort"
	"strings"
)

// Grid builds a rows×cols 2-D lattice with nearest-neighbour couplings.
// Qubit (r, c) has index r*cols + c; coordinates are attached for Hfine.
func Grid(name string, rows, cols int) *Device {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("arch: Grid(%d,%d): non-positive dimensions", rows, cols))
	}
	var edges [][2]int
	coords := make([]Coord, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			q := r*cols + c
			coords[q] = Coord{Row: r, Col: c}
			if c+1 < cols {
				edges = append(edges, [2]int{q, q + 1})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{q, q + cols})
			}
		}
	}
	d := MustNewDevice(name, rows*cols, edges)
	if err := d.SetCoords(coords); err != nil {
		panic(err)
	}
	return d
}

// Linear builds an n-qubit line (1-D nearest neighbour).
func Linear(n int) *Device {
	var edges [][2]int
	coords := make([]Coord, n)
	for q := 0; q < n; q++ {
		coords[q] = Coord{Row: 0, Col: q}
		if q+1 < n {
			edges = append(edges, [2]int{q, q + 1})
		}
	}
	d := MustNewDevice(fmt.Sprintf("linear-%d", n), n, edges)
	if err := d.SetCoords(coords); err != nil {
		panic(err)
	}
	return d
}

// Ring builds an n-qubit cycle.
func Ring(n int) *Device {
	if n < 3 {
		panic("arch: Ring needs at least 3 qubits")
	}
	var edges [][2]int
	for q := 0; q < n; q++ {
		edges = append(edges, [2]int{q, (q + 1) % n})
	}
	return MustNewDevice(fmt.Sprintf("ring-%d", n), n, edges)
}

// IBMQ5 is the 5-qubit IBM QX "bowtie" used by early mapping work
// (Siraichi et al.). Coupling treated as undirected, per the maQAM.
func IBMQ5() *Device {
	d := MustNewDevice("ibm-q5", 5, [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4},
	})
	// Approximate bowtie layout for Hfine.
	if err := d.SetCoords([]Coord{{0, 0}, {2, 0}, {1, 1}, {0, 2}, {2, 2}}); err != nil {
		panic(err)
	}
	return d
}

// IBMQX4 is the directed 5-qubit IBM QX4 model targeted by the early
// mapping work the paper surveys (§II-A): the bowtie coupling graph with
// fixed CX orientations. Reversed CXs cost four H gates (internal/orient).
func IBMQX4() *Device {
	d := MustNewDevice("ibm-qx4", 5, [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4},
	})
	if err := d.SetDirections([][2]int{
		{1, 0}, {2, 0}, {2, 1}, {3, 2}, {3, 4}, {2, 4},
	}); err != nil {
		panic(err)
	}
	if err := d.SetCoords([]Coord{{0, 0}, {2, 0}, {1, 1}, {0, 2}, {2, 2}}); err != nil {
		panic(err)
	}
	return d
}

// IBMQ16Melbourne is the paper's 16-qubit IBM Q16 Melbourne model: a 2×8
// ladder with the bottom row indexed right-to-left, as published in the
// Qiskit device information the paper cites.
//
//	0 --- 1 --- 2 --- 3 --- 4 --- 5 --- 6 --- 7
//	|     |     |     |     |     |     |     |
//	15 -- 14 -- 13 -- 12 -- 11 -- 10 -- 9 --- 8
func IBMQ16Melbourne() *Device {
	var edges [][2]int
	for c := 0; c < 7; c++ {
		edges = append(edges, [2]int{c, c + 1})     // top row
		edges = append(edges, [2]int{8 + c, 9 + c}) // bottom row
	}
	for c := 0; c < 8; c++ {
		edges = append(edges, [2]int{c, 15 - c}) // rungs
	}
	d := MustNewDevice("ibm-q16-melbourne", 16, edges)
	coords := make([]Coord, 16)
	for q := 0; q < 8; q++ {
		coords[q] = Coord{Row: 0, Col: q}
	}
	for q := 8; q < 16; q++ {
		coords[q] = Coord{Row: 1, Col: 15 - q}
	}
	if err := d.SetCoords(coords); err != nil {
		panic(err)
	}
	return d
}

// IBMQ20Tokyo is the 20-qubit IBM Q20 Tokyo model used by SABRE
// (Li et al., ASPLOS'19): a 4×5 grid with twelve extra diagonal couplers.
func IBMQ20Tokyo() *Device {
	var edges [][2]int
	// 4×5 grid part.
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			q := r*5 + c
			if c+1 < 5 {
				edges = append(edges, [2]int{q, q + 1})
			}
			if r+1 < 4 {
				edges = append(edges, [2]int{q, q + 5})
			}
		}
	}
	// Diagonal couplers per the published coupling map.
	diagonals := [][2]int{
		{1, 7}, {2, 6}, {3, 9}, {4, 8},
		{5, 11}, {6, 10}, {7, 13}, {8, 12},
		{11, 17}, {12, 16}, {13, 19}, {14, 18},
	}
	edges = append(edges, diagonals...)
	d := MustNewDevice("ibm-q20-tokyo", 20, edges)
	coords := make([]Coord, 20)
	for q := 0; q < 20; q++ {
		coords[q] = Coord{Row: q / 5, Col: q % 5}
	}
	if err := d.SetCoords(coords); err != nil {
		panic(err)
	}
	return d
}

// Enfield6x6 is the 6×6 grid model proposed by the Enfield project and
// used as the paper's third evaluation architecture.
func Enfield6x6() *Device { return Grid("enfield-6x6", 6, 6) }

// SycamoreQ54 models Google's 54-qubit Sycamore processor (Arute et al.,
// Nature 2019): a diagonal square lattice where every interior qubit has
// four couplers. We lay the 54 qubits on a 6×9 integer grid (index
// q = r*9 + c) with vertical couplers (r,c)-(r+1,c) plus alternating
// diagonal couplers, reproducing Sycamore's degree-4 diagonal-lattice
// connectivity. The substitution is documented in DESIGN.md.
func SycamoreQ54() *Device {
	const rows, cols = 6, 9
	var edges [][2]int
	for r := 0; r < rows-1; r++ {
		for c := 0; c < cols; c++ {
			q := r*cols + c
			edges = append(edges, [2]int{q, q + cols})
			if r%2 == 0 {
				if c > 0 {
					edges = append(edges, [2]int{q, q + cols - 1})
				}
			} else {
				if c+1 < cols {
					edges = append(edges, [2]int{q, q + cols + 1})
				}
			}
		}
	}
	d := MustNewDevice("google-q54-sycamore", rows*cols, edges)
	coords := make([]Coord, rows*cols)
	for q := range coords {
		coords[q] = Coord{Row: q / cols, Col: q % cols}
	}
	if err := d.SetCoords(coords); err != nil {
		panic(err)
	}
	return d
}

// EvaluationDevices returns the paper's four Fig-8 architectures in the
// order they appear in the evaluation.
func EvaluationDevices() []*Device {
	return []*Device{IBMQ16Melbourne(), Enfield6x6(), IBMQ20Tokyo(), SycamoreQ54()}
}

// ByName resolves a device by a user-facing name. Recognised names (case
// insensitive): q5, melbourne|q16, tokyo|q20, enfield|grid6x6, sycamore|q54,
// gridRxC (e.g. grid3x3), linearN, ringN; a parametric name over MaxQubits
// is rejected, wrapping ErrTooLarge.
func ByName(name string) (*Device, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	switch n {
	case "q5", "ibm-q5", "ibmq5":
		return IBMQ5(), nil
	case "qx4", "ibm-qx4", "ibmqx4":
		return IBMQX4(), nil
	case "melbourne", "q16", "ibm-q16-melbourne", "ibmq16":
		return IBMQ16Melbourne(), nil
	case "tokyo", "q20", "ibm-q20-tokyo", "ibmq20":
		return IBMQ20Tokyo(), nil
	case "enfield", "grid6x6", "6x6", "enfield-6x6":
		return Enfield6x6(), nil
	case "sycamore", "q54", "google-q54-sycamore":
		return SycamoreQ54(), nil
	}
	// A parametric name is checked against MaxQubits before its edge list
	// is built: the name is untrusted input and its size one number in it.
	tooLarge := func() error {
		return fmt.Errorf("arch: device %q exceeds the limit of %d qubits: %w", name, MaxQubits, ErrTooLarge)
	}
	var rows, cols, k int
	if _, err := fmt.Sscanf(n, "grid%dx%d", &rows, &cols); err == nil && rows > 0 && cols > 0 {
		if rows > MaxQubits || cols > MaxQubits || rows*cols > MaxQubits {
			return nil, tooLarge()
		}
		return Grid(n, rows, cols), nil
	}
	if _, err := fmt.Sscanf(n, "linear%d", &k); err == nil && k > 0 {
		if k > MaxQubits {
			return nil, tooLarge()
		}
		return Linear(k), nil
	}
	if _, err := fmt.Sscanf(n, "ring%d", &k); err == nil && k >= 3 {
		if k > MaxQubits {
			return nil, tooLarge()
		}
		return Ring(k), nil
	}
	return nil, fmt.Errorf("arch: unknown device %q (known: %s)", name, strings.Join(KnownNames(), ", "))
}

// KnownNames lists the canonical names accepted by ByName.
func KnownNames() []string {
	names := []string{"q5", "melbourne", "tokyo", "enfield", "sycamore", "gridRxC", "linearN", "ringN"}
	sort.Strings(names)
	return names
}

package arch

import (
	"errors"
	"testing"
	"testing/quick"

	"codar/internal/circuit"
)

func TestNewDeviceBasics(t *testing.T) {
	d, err := NewDevice("t", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Edges) != 3 {
		t.Errorf("duplicate edge not merged: %v", d.Edges)
	}
	if !d.Adjacent(0, 1) || !d.Adjacent(1, 0) {
		t.Error("Adjacent should be symmetric")
	}
	if d.Adjacent(0, 2) {
		t.Error("0 and 2 are not coupled")
	}
	if got := d.Neighbors(1); !equalInts(got, []int{0, 2}) {
		t.Errorf("Neighbors(1) = %v", got)
	}
	if d.Degree(1) != 2 || d.Degree(0) != 1 {
		t.Error("Degree mismatch")
	}
}

func TestNewDeviceErrors(t *testing.T) {
	if _, err := NewDevice("t", 0, nil); err == nil {
		t.Error("zero qubits accepted")
	}
	if _, err := NewDevice("t", 3, [][2]int{{1, 1}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewDevice("t", 3, [][2]int{{0, 3}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewDevice("t", 3, [][2]int{{-1, 0}}); err == nil {
		t.Error("negative endpoint accepted")
	}
}

// TestDeviceSizeCaps: one qubit or one coupler over the caps is rejected
// with ErrTooLarge, by NewDevice and by a parametric name alike, while the
// largest grid under the qubit cap still resolves.
func TestDeviceSizeCaps(t *testing.T) {
	if _, err := NewDevice("t", MaxQubits+1, nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("%d qubits: err = %v, want ErrTooLarge", MaxQubits+1, err)
	}
	edges := make([][2]int, MaxEdges+1)
	for i := range edges {
		edges[i] = [2]int{0, 1}
	}
	if _, err := NewDevice("t", 2, edges); !errors.Is(err, ErrTooLarge) {
		t.Errorf("%d couplers: err = %v, want ErrTooLarge", len(edges), err)
	}
	for _, name := range []string{"ring1025", "linear1025", "grid33x32", "grid1x100000", "grid4000000000x4000000000"} {
		if _, err := ByName(name); !errors.Is(err, ErrTooLarge) {
			t.Errorf("ByName(%q): err = %v, want ErrTooLarge", name, err)
		}
	}
	d, err := ByName("grid32x32")
	if err != nil || d.NumQubits != MaxQubits {
		t.Fatalf("ByName(grid32x32) = %v, %v", d, err)
	}
}

func TestDistances(t *testing.T) {
	d := Linear(5)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {4, 0, 4}, {1, 3, 2},
	}
	for _, tc := range cases {
		if got := d.Distance(tc.a, tc.b); got != tc.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDisconnectedDistanceIsInfinity(t *testing.T) {
	d, err := NewDevice("split", 4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Distance(0, 2) != Infinity {
		t.Errorf("Distance across components = %d, want Infinity", d.Distance(0, 2))
	}
	if d.Connected() {
		t.Error("split device reported connected")
	}
	if err := d.Validate(); err == nil {
		t.Error("Validate should reject disconnected device")
	}
}

// Property: distance is a metric on every built-in device (symmetric,
// zero-diagonal, triangle inequality) and adjacent pairs have distance 1.
func TestDistanceMetricProperties(t *testing.T) {
	for _, d := range EvaluationDevices() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			n := d.NumQubits
			for a := 0; a < n; a++ {
				if d.Distance(a, a) != 0 {
					t.Fatalf("Distance(%d,%d) != 0", a, a)
				}
				for b := 0; b < n; b++ {
					if d.Distance(a, b) != d.Distance(b, a) {
						t.Fatalf("asymmetric distance (%d,%d)", a, b)
					}
					if d.Adjacent(a, b) && d.Distance(a, b) != 1 {
						t.Fatalf("adjacent pair (%d,%d) has distance %d", a, b, d.Distance(a, b))
					}
				}
			}
			// Spot-check the triangle inequality on a deterministic sample.
			for a := 0; a < n; a++ {
				for b := 0; b < n; b += 3 {
					for c := 0; c < n; c += 5 {
						if d.Distance(a, b) > d.Distance(a, c)+d.Distance(c, b) {
							t.Fatalf("triangle violation %d,%d via %d", a, b, c)
						}
					}
				}
			}
		})
	}
}

func TestShortestPath(t *testing.T) {
	d := Grid("g", 3, 3)
	p := d.ShortestPath(0, 8)
	if len(p) != 5 {
		t.Fatalf("path length %d, want 5 (distance 4 + 1)", len(p))
	}
	if p[0] != 0 || p[len(p)-1] != 8 {
		t.Errorf("path endpoints %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !d.Adjacent(p[i], p[i+1]) {
			t.Errorf("path step %d-%d not an edge", p[i], p[i+1])
		}
	}
	// Same-node path.
	if p := d.ShortestPath(4, 4); len(p) != 1 || p[0] != 4 {
		t.Errorf("trivial path = %v", p)
	}
	// Disconnected path is nil.
	split, _ := NewDevice("split", 4, [][2]int{{0, 1}, {2, 3}})
	if split.ShortestPath(0, 3) != nil {
		t.Error("path across components should be nil")
	}
}

func TestEdgeIndexDeterminism(t *testing.T) {
	d := Grid("g", 2, 2)
	id1, ok1 := d.EdgeIndex(0, 1)
	id2, ok2 := d.EdgeIndex(1, 0)
	if !ok1 || !ok2 || id1 != id2 {
		t.Error("EdgeIndex must be orientation-independent")
	}
	if _, ok := d.EdgeIndex(0, 3); ok {
		t.Error("non-edge reported as edge")
	}
}

func TestCoordsAndHDVD(t *testing.T) {
	d := Grid("g", 3, 4)
	if !d.HasCoords() {
		t.Fatal("grid should carry coords")
	}
	if c := d.CoordOf(7); c.Row != 1 || c.Col != 3 {
		t.Errorf("CoordOf(7) = %+v", c)
	}
	if d.HD(0, 7) != 3 || d.VD(0, 7) != 1 {
		t.Errorf("HD/VD(0,7) = %d/%d, want 3/1", d.HD(0, 7), d.VD(0, 7))
	}
	// On grids, distance == HD + VD (Manhattan).
	f := func(seed int64) bool {
		a := int(uint64(seed) % 12)
		b := int((uint64(seed) / 12) % 12)
		return d.Distance(a, b) == d.HD(a, b)+d.VD(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	// Devices without coords report 0 and are still valid.
	r := Ring(5)
	if r.HasCoords() || r.HD(0, 2) != 0 || r.VD(0, 2) != 0 {
		t.Error("coordinate-free device should report 0 HD/VD")
	}
}

func TestSetCoordsWrongLength(t *testing.T) {
	d := Linear(3)
	if err := d.SetCoords([]Coord{{0, 0}}); err == nil {
		t.Error("SetCoords with wrong length accepted")
	}
}

func TestDurationDelegation(t *testing.T) {
	d := Linear(2)
	if d.Duration(circuit.OpT) != 1 || d.Duration(circuit.OpCX) != 2 || d.Duration(circuit.OpSwap) != 6 {
		t.Error("default superconducting durations expected")
	}
}

func TestDiameter(t *testing.T) {
	if got := Linear(5).Diameter(); got != 4 {
		t.Errorf("Linear(5) diameter = %d, want 4", got)
	}
	if got := Ring(6).Diameter(); got != 3 {
		t.Errorf("Ring(6) diameter = %d, want 3", got)
	}
	if got := Grid("g", 3, 3).Diameter(); got != 4 {
		t.Errorf("Grid(3,3) diameter = %d, want 4", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// builtinDevices is every named device plus one of each parametric family.
func builtinDevices() []*Device {
	return []*Device{
		IBMQ5(), IBMQX4(), IBMQ16Melbourne(), IBMQ20Tokyo(), Enfield6x6(), SycamoreQ54(),
		Grid("g34", 3, 4), Linear(7), Ring(8),
	}
}

// TestDistanceTablesSymmetric: both mappers score a candidate SWAP (a, b)
// from rows a and b of their distance table alone, reading D(o, a) as
// D(a, o). That holds for the hop table of every builtin device and for a
// non-uniform calibration-weighted table on each.
func TestDistanceTablesSymmetric(t *testing.T) {
	for _, dev := range builtinDevices() {
		weights := make([]float64, len(dev.Edges))
		for i := range weights {
			weights[i] = float64(i*37%11) / 4
		}
		cm, err := NewCostModel(dev, weights)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		n := dev.NumQubits
		for _, tab := range []struct {
			name string
			d    []int32
		}{{"hop", dev.DistTable()}, {"weighted", cm.Table()}} {
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if tab.d[a*n+b] != tab.d[b*n+a] {
						t.Fatalf("%s %s table: D(%d,%d) = %d but D(%d,%d) = %d",
							dev.Name, tab.name, a, b, tab.d[a*n+b], b, a, tab.d[b*n+a])
					}
				}
			}
		}
	}
}

// TestCouplerRowsMatchEdgeIndex: Couplers(q)[k] is the edge index of
// (q, Neighbors(q)[k]) on every builtin device.
func TestCouplerRowsMatchEdgeIndex(t *testing.T) {
	for _, dev := range builtinDevices() {
		for q := 0; q < dev.NumQubits; q++ {
			nbs, ids := dev.Neighbors(q), dev.Couplers(q)
			if len(ids) != len(nbs) {
				t.Fatalf("%s: qubit %d has %d couplers for %d neighbours", dev.Name, q, len(ids), len(nbs))
			}
			for k, nb := range nbs {
				if id, ok := dev.EdgeIndex(q, nb); !ok || int(ids[k]) != id {
					t.Fatalf("%s: Couplers(%d)[%d] = %d, EdgeIndex(%d,%d) = %d", dev.Name, q, k, ids[k], q, nb, id)
				}
			}
		}
	}
}

// TestDiameterIsLargestFiniteDistance: the diameter recorded at
// construction equals a scan of the distance table, on every builtin
// device and on a disconnected graph, where it ignores the Infinity
// entries.
func TestDiameterIsLargestFiniteDistance(t *testing.T) {
	split, err := NewDevice("split", 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range append(builtinDevices(), split) {
		want := 0
		for a := 0; a < dev.NumQubits; a++ {
			for b := 0; b < dev.NumQubits; b++ {
				if d := dev.Distance(a, b); d < Infinity && d > want {
					want = d
				}
			}
		}
		if got := dev.Diameter(); got != want {
			t.Errorf("%s: Diameter() = %d, scan says %d", dev.Name, got, want)
		}
	}
	if got := split.Diameter(); got != 3 {
		t.Errorf("split: Diameter() = %d, want 3", got)
	}
}

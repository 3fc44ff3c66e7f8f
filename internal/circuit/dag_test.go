package circuit

import (
	"slices"
	"testing"
	"testing/quick"
)

// loadDAG builds c's DAG through a fresh SoA.
func loadDAG(c *Circuit) *DAG {
	var d DAG
	d.Load(NewSoA(c), c.NumQubits)
	return &d
}

// succs returns gate k's successors as ints.
func succs(d *DAG, k int) []int {
	var out []int
	for _, s := range d.Succs(k) {
		out = append(out, int(s))
	}
	return out
}

func inDegrees(d *DAG) []int {
	deg := make([]int, len(d.InDeg))
	for k, v := range d.InDeg {
		deg[k] = int(v)
	}
	return deg
}

func TestDAGStructure(t *testing.T) {
	// h q0; cx q0,q1; cx q1,q2; t q0
	c := New(3).H(0).CX(0, 1).CX(1, 2).T(0)
	d := loadDAG(c)
	if len(d.InDeg) != 4 || len(d.Off) != 5 {
		t.Fatalf("len(InDeg) = %d, len(Off) = %d", len(d.InDeg), len(d.Off))
	}
	want := [][]int{{1}, {2, 3}, nil, nil}
	for k, w := range want {
		if got := succs(d, k); !equalInts(got, w) {
			t.Errorf("Succs(%d) = %v, want %v", k, got, w)
		}
	}
	if got := inDegrees(d); !equalInts(got, []int{0, 1, 1, 1}) {
		t.Errorf("InDeg = %v, want [0 1 1 1]", got)
	}
}

func TestDAGNoDuplicateEdges(t *testing.T) {
	// Two gates sharing BOTH qubits must produce a single dependency edge.
	c := New(2).CX(0, 1).CX(0, 1)
	d := loadDAG(c)
	if got := succs(d, 0); !equalInts(got, []int{1}) || d.InDeg[1] != 1 {
		t.Errorf("duplicate edges: succs=%v indeg=%d", got, d.InDeg[1])
	}
}

func TestDAGFrontLayer(t *testing.T) {
	// The front layer is the gates with no predecessors.
	c := New(4).H(0).H(1).CX(0, 1).CX(2, 3)
	d := loadDAG(c)
	var front []int
	for k, deg := range d.InDeg {
		if deg == 0 {
			front = append(front, k)
		}
	}
	if !equalInts(front, []int{0, 1, 3}) {
		t.Errorf("front layer = %v, want [0 1 3]", front)
	}
}

func TestDAGInDegrees(t *testing.T) {
	c := New(3).H(0).CX(0, 1).CX(1, 2)
	// Load rebuilds in place: a DAG that held a larger circuit first must
	// come out equal to a fresh one.
	var d DAG
	big := &Circuit{NumQubits: 5, Gates: randomGateSeq(1, 80, 5)}
	d.Load(NewSoA(big), big.NumQubits)
	d.Load(NewSoA(c), c.NumQubits)
	if got := inDegrees(&d); !equalInts(got, []int{0, 1, 1}) {
		t.Errorf("InDeg = %v, want [0 1 1]", got)
	}
	if len(d.Succ) != 2 || !equalInts(succs(&d, 0), []int{1}) || !equalInts(succs(&d, 1), []int{2}) {
		t.Errorf("reloaded rows: Off=%v Succ=%v", d.Off, d.Succ)
	}
}

func TestDAGLongestPathMatchesDepth(t *testing.T) {
	f := func(seed int64) bool {
		gates := randomGateSeq(seed, 60, 5)
		c := &Circuit{NumQubits: 5, Gates: gates}
		d := loadDAG(c)
		// Program order is topological, so one forward sweep relaxes
		// every edge after its source's distance is final.
		dist := make([]int, len(d.InDeg))
		best := 0
		for k := range dist {
			dist[k] = max(dist[k], 1)
			best = max(best, dist[k])
			for _, s := range d.Succs(k) {
				dist[s] = max(dist[s], dist[k]+1)
			}
		}
		return best == c.Depth()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the edges are exactly the pairs (j, k) where j is the last
// earlier gate on one of k's qubits, each pair once, with every row
// ascending and InDeg counting each gate's incoming edges.
func TestDAGEdgeProperties(t *testing.T) {
	f := func(seed int64) bool {
		gates := randomGateSeq(seed, 50, 6)
		c := &Circuit{NumQubits: 6, Gates: gates}
		d := loadDAG(c)
		want := make([][]int, len(gates))
		deg := make([]int, len(gates))
		last := []int{-1, -1, -1, -1, -1, -1}
		for k, g := range gates {
			for _, q := range g.Qubits {
				if j := last[q]; j >= 0 && !slices.Contains(want[j], k) {
					want[j] = append(want[j], k)
					deg[k]++
				}
			}
			for _, q := range g.Qubits {
				last[q] = k
			}
		}
		for j := range gates {
			if !equalInts(succs(d, j), want[j]) || !slices.IsSorted(succs(d, j)) {
				return false
			}
		}
		return equalInts(inDegrees(d), deg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

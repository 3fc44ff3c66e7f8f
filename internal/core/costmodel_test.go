package core

import (
	"testing"
	"testing/quick"

	"codar/internal/arch"
	"codar/internal/sabre"
	"codar/internal/workloads"
)

// zeroCost builds a calibration-weighted metric with every weight zero —
// exactly what calib.Snapshot.CostModel produces for a perfect device (or
// lambda < 0). Remap under it must be byte-identical to Remap without a
// cost model: the metric is CostScale times the hop matrix, and a uniform
// positive scaling of Hbasic/Hlook preserves every comparison, every tie and
// the Hbasic > 0 insertion gate.
func zeroCost(t testing.TB, dev *arch.Device) *arch.CostModel {
	t.Helper()
	cm, err := arch.NewCostModel(dev, make([]float64, len(dev.Edges)))
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestRemapIdenticalWithZeroCalibrationFig8Matrix pins the zero-calibration
// guarantee on the full Fig 8 device × workload matrix: every evaluation
// device, every eligible suite benchmark, shared SABRE initial layouts —
// the exact runs behind the four pinned avg-speedups.
func TestRemapIdenticalWithZeroCalibrationFig8Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig 8 matrix in -short mode")
	}
	for _, dev := range arch.EvaluationDevices() {
		cm := zeroCost(t, dev)
		for _, b := range workloads.Suite() {
			if b.Qubits > 16 && dev.NumQubits < 54 {
				continue // mirror the Fig 8 eligibility filter
			}
			if b.Qubits > dev.NumQubits {
				continue
			}
			c := b.Circuit()
			initial, err := sabre.InitialLayout(c, dev, 1, sabre.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, dev.Name, err)
			}
			plain, err := Remap(c, dev, initial, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, dev.Name, err)
			}
			calibrated, err := Remap(c, dev, initial, Options{Cost: cm})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, dev.Name, err)
			}
			if err := resultsIdentical(calibrated, plain); err != nil {
				t.Fatalf("%s on %s: zero-calibration output diverges: %v", b.Name, dev.Name, err)
			}
		}
	}
}

// TestRemapIdenticalWithZeroCalibrationProperty randomises circuits,
// devices and option rows, with every reference observing both runs.
func TestRemapIdenticalWithZeroCalibrationProperty(t *testing.T) {
	devices := propDevices()
	grid := []row{
		{opts: Options{}},
		{opts: Options{Lookahead: -1}},
		{opts: Options{DisableHfine: true}},
		{streak: 1},
	}
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		rw := grid[int(uint64(seed>>8)%uint64(len(grid)))]
		qubits := dev.NumQubits
		if qubits > 6 {
			qubits = 6
		}
		c := randCircuit(seed, qubits, 60)
		plain, err := remapObserved(c, dev, nil, rw.opts, rw.streak)
		if err != nil {
			t.Logf("plain: %v", err)
			return false
		}
		withCost := rw.opts
		withCost.Cost = zeroCost(t, dev)
		calibrated, err := remapObserved(c, dev, nil, withCost, rw.streak)
		if err != nil {
			t.Logf("calibrated: %v", err)
			return false
		}
		if err := resultsIdentical(calibrated, plain); err != nil {
			t.Logf("row %+v on %s: %v", rw, dev.Name, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCalibratedRemapIdenticalToNaiveScore extends the delta-scorer
// equivalence property to genuinely weighted metrics: with a non-uniform
// cost model attached, the scorer's cached keys, hop-gate values and
// progress filter must reproduce the reference pickBest rule at every pick
// of the run.
func TestCalibratedRemapIdenticalToNaiveScore(t *testing.T) {
	devices := propDevices()
	grid := []row{
		{opts: Options{}},
		{opts: Options{Lookahead: -1}},
		{streak: 1},
	}
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		rw := grid[int(uint64(seed>>8)%uint64(len(grid)))]
		// Deterministic non-uniform weights spread over [0, 2.5] hops.
		weights := make([]float64, len(dev.Edges))
		ws := uint64(seed)*2654435761 + 12345
		for i := range weights {
			ws ^= ws << 13
			ws ^= ws >> 7
			ws ^= ws << 17
			weights[i] = float64(ws%256) / 100
		}
		cm, err := arch.NewCostModel(dev, weights)
		if err != nil {
			t.Logf("cost model: %v", err)
			return false
		}
		opts := rw.opts
		opts.Cost = cm
		qubits := dev.NumQubits
		if qubits > 6 {
			qubits = 6
		}
		c := randCircuit(seed, qubits, 60)
		if _, err := remapObserved(c, dev, nil, opts, rw.streak); err != nil {
			t.Logf("row %+v on %s: %v", rw, dev.Name, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRemapRejectsForeignCostModel: a metric built for another device is a
// configuration error, not a silent misroute.
func TestRemapRejectsForeignCostModel(t *testing.T) {
	cm := zeroCost(t, arch.Linear(5))
	c := randCircuit(1, 4, 10)
	if _, err := Remap(c, arch.Ring(5), nil, Options{Cost: cm}); err == nil {
		t.Error("Remap accepted a cost model for a different device")
	}
}

// TestCalibratedRoutingAvoidsBadCoupler: a minimal behavioural check that a
// non-zero calibration actually changes routing. On a 6-ring with one very
// expensive edge on the short arc, the blocked CX must be routed over the
// clean long arc.
func TestCalibratedRoutingAvoidsBadCoupler(t *testing.T) {
	dev := arch.Ring(6)
	weights := make([]float64, len(dev.Edges))
	id, ok := dev.EdgeIndex(1, 2)
	if !ok {
		t.Fatal("ring(6) missing edge (1,2)")
	}
	weights[id] = 8
	cm, err := arch.NewCostModel(dev, weights)
	if err != nil {
		t.Fatal(err)
	}
	c := randCircuit(3, 6, 0)
	c.CX(0, 3)
	plain, err := Remap(c, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := Remap(c, dev, nil, Options{Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	usesBadEdge := func(r *Result) bool {
		for _, sg := range r.Schedule().Gates {
			q := sg.Gate.Qubits
			if len(q) == 2 {
				a, b := q[0], q[1]
				if (a == 1 && b == 2) || (a == 2 && b == 1) {
					return true
				}
			}
		}
		return false
	}
	if !usesBadEdge(plain) {
		t.Skip("uncalibrated route avoided (1,2) by tie-break; nothing to compare")
	}
	if usesBadEdge(calibrated) {
		t.Error("calibrated routing still crosses the expensive coupler")
	}
}

package sabre

import (
	"testing"
	"testing/quick"

	"codar/internal/arch"
	"codar/internal/workloads"
)

// zeroCost builds the all-zero-weight calibration metric: CostScale (a power
// of two) times the hop matrix, so every float quotient in H scales exactly
// and the SABRE output must stay bit-identical.
func zeroCost(t testing.TB, dev *arch.Device) *arch.CostModel {
	t.Helper()
	cm, err := arch.NewCostModel(dev, make([]float64, len(dev.Edges)))
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestRemapIdenticalWithZeroCalibration randomises circuits and devices;
// Remap with the zero-weight metric must reproduce plain Remap exactly.
func TestRemapIdenticalWithZeroCalibration(t *testing.T) {
	devices := []*arch.Device{
		arch.Linear(6), arch.Ring(7), arch.Grid("g33", 3, 3),
		arch.IBMQ16Melbourne(), arch.IBMQ20Tokyo(), arch.SycamoreQ54(),
	}
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		qubits := dev.NumQubits
		if qubits > 8 {
			qubits = 8
		}
		c := randCircuit(seed, qubits, 70)
		plain, err := Remap(c, dev, nil, Options{})
		if err != nil {
			t.Logf("plain: %v", err)
			return false
		}
		calibrated, err := Remap(c, dev, nil, Options{Cost: zeroCost(t, dev)})
		if err != nil {
			t.Logf("calibrated: %v", err)
			return false
		}
		if !sabreEquivalent(calibrated, plain) {
			t.Logf("%s: outputs differ (swaps %d vs %d)", dev.Name, calibrated.SwapCount, plain.SwapCount)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestInitialLayoutIdenticalWithZeroCalibration extends the guarantee
// through the reverse-traversal initial mapping on the Fig 8 devices and a
// workload-suite slice — the exact placement runs the pinned avg-speedups
// depend on.
func TestInitialLayoutIdenticalWithZeroCalibration(t *testing.T) {
	for _, dev := range arch.EvaluationDevices() {
		cm := zeroCost(t, dev)
		count := 0
		for _, b := range workloads.Suite() {
			if b.Qubits > dev.NumQubits || b.Qubits > 12 {
				continue
			}
			if count++; count > 8 {
				break // a slice per device keeps the grid fast; the core-side test sweeps the full matrix
			}
			c := b.Circuit()
			plain, err := InitialLayout(c, dev, 1, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, dev.Name, err)
			}
			calibrated, err := InitialLayout(c, dev, 1, Options{Cost: cm})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, dev.Name, err)
			}
			if !plain.Equal(calibrated) {
				t.Fatalf("%s on %s: initial layouts diverge under zero calibration", b.Name, dev.Name)
			}
		}
	}
}

// TestRemapRejectsForeignCostModel mirrors core's check.
func TestRemapRejectsForeignCostModel(t *testing.T) {
	cm := zeroCost(t, arch.Linear(5))
	c := randCircuit(1, 4, 10)
	if _, err := Remap(c, arch.Ring(5), nil, Options{Cost: cm}); err == nil {
		t.Error("Remap accepted a cost model for a different device")
	}
}

// weightedCost builds a deterministic non-uniform calibration metric for
// dev, weights spread over [0, 2.55] hops the way core's calibrated
// equivalence test builds them.
func weightedCost(t testing.TB, dev *arch.Device, seed int64) *arch.CostModel {
	t.Helper()
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
		t.Fatal(err)
	}
	return cm
}

// TestCalibratedRemapIdenticalToNaiveScore is the delta-scoring
// equivalence under a non-uniform weighted metric: the delta path reads
// each incident gate's term from the two candidate rows of the weighted
// table, the reference score reads every distance in the gate's own
// orientation, and every pick and score must still agree.
func TestCalibratedRemapIdenticalToNaiveScore(t *testing.T) {
	devices := []*arch.Device{
		arch.Linear(6), arch.Ring(7), arch.Grid("g33", 3, 3),
		arch.IBMQ16Melbourne(), arch.IBMQ20Tokyo(), arch.SycamoreQ54(),
	}
	f := func(seed int64) bool {
		dev := devices[int(uint64(seed)%uint64(len(devices)))]
		cm := weightedCost(t, dev, seed)
		qubits := min(dev.NumQubits, 8)
		c := randCircuit(seed, qubits, 70)
		if _, err := remapObserved(c, dev, nil, Options{Cost: cm}); err != nil {
			t.Logf("%s: %v", dev.Name, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCalibratedInitialLayoutIdenticalToNaiveScore extends the calibrated
// equivalence through the reverse-traversal passes, the placement-heavy
// path calibrated compiles take.
func TestCalibratedInitialLayoutIdenticalToNaiveScore(t *testing.T) {
	for _, dev := range []*arch.Device{arch.IBMQ20Tokyo(), arch.SycamoreQ54()} {
		for seed := int64(0); seed < 4; seed++ {
			opts := Options{Cost: weightedCost(t, dev, seed)}
			c := randCircuit(seed*97+5, 8, 120)
			got, err := initialLayoutObserved(c, dev, seed, opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", dev.Name, seed, err)
			}
			want, err := InitialLayout(c, dev, seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s seed %d: the observed passes land off InitialLayout's layout", dev.Name, seed)
			}
		}
	}
}

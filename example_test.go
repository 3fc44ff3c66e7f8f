package codar_test

import (
	"fmt"
	"os"
	"path/filepath"

	"codar"
)

// ExampleRemap is the canonical single-shot usage: build a circuit, pick a
// device, compute the paper's reverse-traversal initial mapping, and remap.
// A good initial mapping places this CX star swap-free on Tokyo — drop the
// SABREInitialLayout call (nil = trivial layout) and SWAPs appear.
func ExampleRemap() {
	c := codar.NewCircuit(5)
	c.H(0).CX(0, 1).CX(0, 2).CX(0, 3).CX(0, 4).T(2).CX(3, 1)

	dev, err := codar.DeviceByName("tokyo")
	if err != nil {
		panic(err)
	}
	initial, err := codar.SABREInitialLayout(c, dev, 1)
	if err != nil {
		panic(err)
	}
	res, err := codar.Remap(c, dev, initial, codar.Options{})
	if err != nil {
		panic(err)
	}
	if err := codar.Verify(c, res.Circuit, dev, res.InitialLayout, res.FinalLayout); err != nil {
		panic(err)
	}
	fmt.Printf("weighted depth %d cycles, %d swaps, verified\n",
		codar.WeightedDepth(res.Circuit, dev.Durations), res.SwapCount)
	// Output:
	// weighted depth 9 cycles, 0 swaps, verified
}

// ExampleMapPortfolio runs the multi-start portfolio search: every seed ×
// placement × algorithm candidate is mapped, the objective scores them, and
// selection is deterministic (objective, then depth, swaps, candidate
// index) — so this example's output is stable no matter how the candidates
// interleave.
func ExampleMapPortfolio() {
	c := codar.NewCircuit(5)
	c.H(0).CX(0, 1).CX(0, 2).CX(0, 3).CX(0, 4).T(2).CX(3, 1)

	dev, err := codar.DeviceByName("tokyo")
	if err != nil {
		panic(err)
	}
	res, err := codar.MapPortfolio(c, dev, codar.PortfolioOptions{
		Seeds:     []int64{1, 2},
		Objective: codar.ObjectiveMinDepth,
	})
	if err != nil {
		panic(err)
	}
	w := res.WinnerReport()
	fmt.Printf("%d candidates, winner: seed %d / %s / %s\n",
		len(res.Candidates), w.Seed, w.Placement, w.Algorithm)
	fmt.Printf("weighted depth %d cycles, %d swaps\n", res.Winner.WeightedDepth, res.Winner.Swaps)
	// Output:
	// 16 candidates, winner: seed 1 / dense / codar
	// weighted depth 9 cycles, 0 swaps
}

// ExampleLoadCalibration round-trips a calibration snapshot through JSON
// and attaches it to a mapping run: the cost model steers routing around
// unreliable couplers, and the snapshot scores the mapped schedule's
// estimated success probability.
func ExampleLoadCalibration() {
	dev, err := codar.DeviceByName("tokyo")
	if err != nil {
		panic(err)
	}
	// Real deployments load a backend's daily dump; the synthetic generator
	// stands in for one here, seeded per device so the file is stable.
	snap := codar.SyntheticCalibration(dev, 1)
	path := filepath.Join(os.TempDir(), "codar-example-calibration.json")
	if err := snap.Save(path); err != nil {
		panic(err)
	}
	defer os.Remove(path)

	loaded, err := codar.LoadCalibration(path)
	if err != nil {
		panic(err)
	}
	fmt.Printf("round-trip hash match: %v\n", loaded.Hash() == snap.Hash())

	cost, err := codar.NewCostModel(loaded, dev, 0) // 0 = default lambda
	if err != nil {
		panic(err)
	}
	c := codar.NewCircuit(5)
	c.H(0).CX(0, 1).CX(0, 2).CX(0, 3).CX(0, 4)
	res, err := codar.Remap(c, dev, nil, codar.Options{Cost: cost})
	if err != nil {
		panic(err)
	}
	esp, err := codar.EstimateSuccess(loaded, res.Schedule, dev)
	if err != nil {
		panic(err)
	}
	fmt.Printf("calibrated route: %d swaps, est. success %.2f\n", res.SwapCount, esp)
	// Output:
	// round-trip hash match: true
	// calibrated route: 4 swaps, est. success 0.76
}

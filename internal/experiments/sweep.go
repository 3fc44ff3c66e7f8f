package experiments

import (
	"fmt"
	"io"

	"codar/internal/arch"
	"codar/internal/compile"
	"codar/internal/core"
	"codar/internal/metrics"
	"codar/internal/workloads"
)

// DurationPoint is one point of the duration-heterogeneity sweep: the
// average CODAR-vs-SABRE speedup when the two-qubit gate takes Ratio times
// a single-qubit gate (SWAP = 3 two-qubit gates). Ratio 1 is the
// duration-blind regime every prior mapper assumes; ratio 2 is the paper's
// superconducting configuration; ratio 12 approximates the ion-trap column
// of Table I.
type DurationPoint struct {
	Ratio      int
	AvgSpeedup float64
	GeoMean    float64
}

// sweepBenchmarks is the representative subset the sweep maps at every
// ratio (the full suite would dominate runtime without changing the trend).
var sweepBenchmarks = []string{
	"qft_10", "qft_16", "rand_10_g300", "rand_16_g1000",
	"qv_12_d12", "revnet_12_s1", "ising_12_6", "adder_6",
	"grover_5", "wstate_12", "dj_balanced_12", "qaoa_12_p2",
}

// RunDurationSweep measures how CODAR's advantage scales with gate-duration
// heterogeneity on the given device — the "various NISQ devices" claim made
// quantitative. It is an extension beyond the paper's figures, built from
// the same machinery.
func RunDurationSweep(dev *arch.Device, ratios []int, opts core.Options) ([]DurationPoint, error) {
	if len(ratios) == 0 {
		ratios = []int{1, 2, 4, 8, 12}
	}
	base := dev.Durations
	defer func() { dev.Durations = base }()

	var out []DurationPoint
	for _, r := range ratios {
		if r <= 0 {
			return nil, fmt.Errorf("experiments: non-positive duration ratio %d", r)
		}
		dev.Durations = arch.Durations{Single: 1, Two: r, Swap: 3 * r, Measure: 5}
		var sp []float64
		for _, name := range sweepBenchmarks {
			b, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			res, err := compile.Run(b.Circuit(), dev, paperSpec(opts, true))
			if err != nil {
				return nil, err
			}
			sp = append(sp, float64(res.Baseline.WeightedDepth)/float64(res.WeightedDepth))
		}
		out = append(out, DurationPoint{
			Ratio:      r,
			AvgSpeedup: metrics.Mean(sp),
			GeoMean:    metrics.GeoMean(sp),
		})
	}
	return out, nil
}

// WriteDurationSweep renders the sweep.
func WriteDurationSweep(w io.Writer, dev *arch.Device, points []DurationPoint) error {
	fmt.Fprintf(w, "duration-heterogeneity sweep on %s (%d benchmarks per point)\n", dev.Name, len(sweepBenchmarks))
	t := metrics.NewTable("2q/1q ratio", "avg speedup", "geomean")
	for _, p := range points {
		t.AddRow(p.Ratio, p.AvgSpeedup, p.GeoMean)
	}
	return t.Render(w)
}

package experiments

import (
	"fmt"
	"io"

	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/compile"
	"codar/internal/core"
	"codar/internal/metrics"
	"codar/internal/portfolio"
	"codar/internal/workloads"
)

// PortfolioStudyRow is one benchmark of the portfolio study: the single-shot
// pipeline the paper evaluates (SABRE reverse-traversal placement at the
// fixed seed, then CODAR) against the multi-start portfolio winner.
type PortfolioStudyRow struct {
	Benchmark string
	Qubits    int
	Gates     int
	// SingleWD/PortWD are the weighted depths of the single-shot output and
	// the portfolio winner; SingleESP/PortESP the calibration-estimated
	// success probabilities when a snapshot is attached.
	SingleWD  int
	PortWD    int
	SingleESP float64
	PortESP   float64
	// Winner identifies the selected candidate.
	Winner portfolio.Candidate
	// Candidates/Completed/Abandoned summarise the grid outcome.
	Candidates int
	Completed  int
	Abandoned  int
}

// PortfolioStudyResult is the study over one device.
type PortfolioStudyResult struct {
	Device *arch.Device
	Snap   *calib.Snapshot
	Spec   portfolio.Spec
	Rows   []PortfolioStudyRow
}

// DepthWins counts benchmarks where the portfolio winner is strictly
// shallower than single-shot. The single-shot pipeline is itself a grid
// point (seed 1, sabre-reverse, codar), so the portfolio can tie but never
// lose on depth under the min-depth objective.
func (r PortfolioStudyResult) DepthWins() int {
	n := 0
	for _, row := range r.Rows {
		if row.PortWD < row.SingleWD {
			n++
		}
	}
	return n
}

// ESPWins counts benchmarks where the portfolio winner estimates strictly
// higher success probability.
func (r PortfolioStudyResult) ESPWins() int {
	n := 0
	for _, row := range r.Rows {
		if row.PortESP > row.SingleESP {
			n++
		}
	}
	return n
}

// MeanDepthRatio is the mean of PortWD/SingleWD (< 1 means the portfolio
// shortens schedules on average).
func (r PortfolioStudyResult) MeanDepthRatio() float64 {
	ratios := make([]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		if row.SingleWD > 0 {
			ratios = append(ratios, float64(row.PortWD)/float64(row.SingleWD))
		}
	}
	return metrics.Mean(ratios)
}

// portfolioCompareOn runs one benchmark of the portfolio study: the
// single-shot pipeline (SABRE reverse-traversal placement at the fixed
// seed, then CODAR under spec.Codar) against the full candidate grid of
// spec. snap may be nil (ESP columns read 0).
func portfolioCompareOn(b workloads.Benchmark, dev *arch.Device, snap *calib.Snapshot, spec portfolio.Spec) (PortfolioStudyRow, error) {
	c := b.Circuit()
	row := PortfolioStudyRow{Benchmark: b.Name, Qubits: b.Qubits, Gates: c.Len()}
	spec.Snapshot = snap

	single := paperSpec(spec.Codar, false)
	single.Cost, single.Snapshot = spec.Cost, snap
	res, err := compile.Run(c, dev, single)
	if err != nil {
		return row, fmt.Errorf("experiments: %s on %s: %w", b.Name, dev.Name, err)
	}
	row.SingleWD = res.WeightedDepth

	pres, err := portfolio.Run(c, dev, spec)
	if err != nil {
		return row, fmt.Errorf("experiments: %s on %s: %w", b.Name, dev.Name, err)
	}
	row.PortWD = pres.Winner.WeightedDepth
	row.Winner = pres.WinnerReport().Candidate
	row.Candidates = len(pres.Candidates)
	row.Completed = pres.Completed
	row.Abandoned = pres.Abandoned
	if snap != nil {
		row.SingleESP, row.PortESP = *res.ESP, *pres.Winner.ESP
	}
	return row, nil
}

// RunPortfolioStudy measures the portfolio against the single-shot pipeline
// over the device's Fig 8 suite slice. snap may be nil (ESP columns read 0);
// when non-nil it scores both outputs but does not steer routing, isolating
// the multi-start effect. The benchmark fan-out uses the RunBatch pool;
// each inner portfolio runs serially so the outer parallelism is the only
// fan-out, and every selection is deterministic, so worker count never
// changes the numbers.
func RunPortfolioStudy(dev *arch.Device, snap *calib.Snapshot, opts core.Options, workers int) (PortfolioStudyResult, error) {
	spec := portfolio.Spec{
		Objective:    portfolio.ObjectiveMinDepth,
		EarlyAbandon: true,
		Snapshot:     snap,
		Codar:        opts,
		Workers:      1,
	}
	res := PortfolioStudyResult{Device: dev, Snap: snap, Spec: spec}
	eligible := EligibleSuite(dev)
	rows := make([]PortfolioStudyRow, len(eligible))
	err := RunBatch(len(eligible), workers, func(i int) error {
		row, jerr := portfolioCompareOn(eligible[i], dev, snap, spec)
		if jerr != nil {
			return jerr
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// WritePortfolioStudy renders the study as a table plus win-rate summary.
func WritePortfolioStudy(w io.Writer, r PortfolioStudyResult) error {
	t := metrics.NewTable("benchmark", "qubits", "singleWD", "portWD", "ratio", "winner", "singleESP", "portESP", "abandoned")
	for _, row := range r.Rows {
		ratio := 0.0
		if row.SingleWD > 0 {
			ratio = float64(row.PortWD) / float64(row.SingleWD)
		}
		winner := fmt.Sprintf("s%d/%s/%s", row.Winner.Seed, row.Winner.Placement, row.Winner.Algorithm)
		t.AddRow(row.Benchmark, row.Qubits, row.SingleWD, row.PortWD, ratio, winner,
			row.SingleESP, row.PortESP, fmt.Sprintf("%d/%d", row.Abandoned, row.Candidates))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	n := len(r.Rows)
	_, err := fmt.Fprintf(w,
		"\n%s: benchmarks=%d  portfolio depth win-rate=%d/%d  mean depth ratio=%.3f  ESP win-rate=%d/%d\n\n",
		r.Device.Name, n, r.DepthWins(), n, r.MeanDepthRatio(), r.ESPWins(), n)
	return err
}

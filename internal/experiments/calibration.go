package experiments

import (
	"fmt"
	"io"

	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/compile"
	"codar/internal/core"
	"codar/internal/metrics"
	"codar/internal/schedule"
	"codar/internal/workloads"
)

// CalibrationRow is one benchmark measurement of the calibration study: the
// same circuit mapped by CODAR twice — once duration-only ("uncal"), once
// with the fidelity-weighted cost model ("cal") — and scored by the
// snapshot's estimated success probability (ESP).
type CalibrationRow struct {
	Benchmark string
	Qubits    int
	Gates     int
	// Swap counts and weighted depths of the two runs.
	UncalSwaps int
	CalSwaps   int
	UncalWD    int
	CalWD      int
	// Estimated success probabilities under the calibration snapshot.
	UncalESP float64
	CalESP   float64
}

// Gain is the per-benchmark ESP ratio cal/uncal (> 1 means the calibrated
// route is more reliable).
func (r CalibrationRow) Gain() float64 {
	if r.UncalESP <= 0 {
		return 0
	}
	return r.CalESP / r.UncalESP
}

// CalibrationResult is the study over one device and snapshot.
type CalibrationResult struct {
	Device *arch.Device
	Snap   *calib.Snapshot
	Lambda float64
	Rows   []CalibrationRow
}

// MeanESP returns the mean estimated success probabilities (uncal, cal).
func (r CalibrationResult) MeanESP() (uncal, cal float64) {
	for _, row := range r.Rows {
		uncal += row.UncalESP
		cal += row.CalESP
	}
	n := float64(len(r.Rows))
	if n == 0 {
		return 0, 0
	}
	return uncal / n, cal / n
}

// Improved counts the benchmarks where the calibrated route estimates
// strictly higher success probability.
func (r CalibrationResult) Improved() int {
	n := 0
	for _, row := range r.Rows {
		if row.CalESP > row.UncalESP {
			n++
		}
	}
	return n
}

// RunCalibrationStudy maps every eligible suite benchmark on dev twice —
// duration-only CODAR versus CODAR with the snapshot's fidelity-weighted
// cost model (placement included: the calibrated run also draws its SABRE
// reverse-traversal initial layout under the weighted metric) — and scores
// both outputs with the snapshot's ESP. lambda 0 selects
// calib.DefaultLambda. The benchmark fan-out reuses the RunBatch worker
// pool; every comparison is deterministic, so parallelism never changes the
// numbers.
func RunCalibrationStudy(dev *arch.Device, snap *calib.Snapshot, lambda float64, opts core.Options) (CalibrationResult, error) {
	return RunCalibrationStudyWorkers(dev, snap, lambda, opts, 0)
}

// RunCalibrationStudyWorkers is RunCalibrationStudy with an explicit worker
// budget (workers <= 0 means GOMAXPROCS).
func RunCalibrationStudyWorkers(dev *arch.Device, snap *calib.Snapshot, lambda float64, opts core.Options, workers int) (CalibrationResult, error) {
	res := CalibrationResult{Device: dev, Snap: snap, Lambda: lambda}
	if lambda == 0 {
		res.Lambda = calib.DefaultLambda
	}
	cm, err := snap.CostModel(dev, lambda)
	if err != nil {
		return res, fmt.Errorf("experiments: calibration study: %w", err)
	}
	eligible := EligibleSuite(dev)
	rows := make([]CalibrationRow, len(eligible))
	err = RunBatch(len(eligible), workers, func(i int) error {
		b := eligible[i]
		c := b.Circuit()
		row := CalibrationRow{Benchmark: b.Name, Qubits: b.Qubits, Gates: c.Len()}

		spec := paperSpec(opts, false)
		spec.Snapshot = snap
		plain, err := compile.Run(c, dev, spec)
		if err != nil {
			return fmt.Errorf("experiments: %s on %s: %w", b.Name, dev.Name, err)
		}
		spec.Cost = cm
		calibrated, err := compile.Run(c, dev, spec)
		if err != nil {
			return fmt.Errorf("experiments: %s on %s: %w", b.Name, dev.Name, err)
		}
		row.UncalSwaps, row.CalSwaps = plain.Swaps, calibrated.Swaps
		row.UncalWD, row.CalWD = plain.WeightedDepth, calibrated.WeightedDepth
		row.UncalESP, row.CalESP = *plain.ESP, *calibrated.ESP
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// WriteCalibrationStudy renders the study as a table plus summary means.
func WriteCalibrationStudy(w io.Writer, r CalibrationResult) error {
	t := metrics.NewTable("benchmark", "qubits", "swaps", "calSwaps", "WD", "calWD", "ESP", "calESP", "gain")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Qubits, row.UncalSwaps, row.CalSwaps,
			row.UncalWD, row.CalWD, row.UncalESP, row.CalESP, row.Gain())
	}
	if err := t.Render(w); err != nil {
		return err
	}
	uncal, cal := r.MeanESP()
	ratio := 0.0
	if uncal > 0 {
		ratio = cal / uncal
	}
	_, err := fmt.Fprintf(w,
		"\n%s: benchmarks=%d  lambda=%.1f  mean ESP uncalibrated=%.4f calibrated=%.4f (x%.3f)  improved=%d/%d\n\n",
		r.Device.Name, len(r.Rows), r.Lambda, uncal, cal, ratio, r.Improved(), len(r.Rows))
	return err
}

// CalibFidelityRow is one algorithm measurement of the calibrated Fig 9
// extension: trajectory-simulated fidelity of both routing modes under the
// snapshot's heterogeneous per-qubit noise.
type CalibFidelityRow struct {
	Benchmark  string
	UncalSwaps int
	CalSwaps   int
	UncalWD    int
	CalWD      int
	// Monte-Carlo fidelities under the snapshot-derived noise model.
	UncalFidelity float64
	CalFidelity   float64
}

// RunCalibrationFidelity replays the Fig 9 machinery on the calibration
// study: the famous-seven algorithms are mapped with and without the
// fidelity-weighted cost model (lambda 0 selects calib.DefaultLambda, the
// same convention as RunCalibrationStudy) on the 3×3 fidelity device
// carrying a synthetic calibration snapshot, then trajectory-simulated
// under the snapshot's per-qubit T1/T2 and mean depolarising gate errors
// (calib.Snapshot.NoiseModel). It validates the analytic ESP ordering with
// a full noisy simulation.
func RunCalibrationFidelity(trajectories int, lambda float64, opts core.Options) ([]CalibFidelityRow, error) {
	dev := FidelityDevice()
	snap := calib.Synthetic(dev, Seed)
	cm, err := snap.CostModel(dev, lambda)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	model := snap.NoiseModel()
	var rows []CalibFidelityRow
	for _, b := range workloads.FamousSeven() {
		c := b.Circuit()
		spec := paperSpec(opts, false)
		plain, err := compile.Run(c, dev, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		spec.Cost = cm
		calibrated, err := compile.Run(c, dev, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		pf, err := model.FidelityEstimate(schedule.ASAP(plain.Circuit, dev.Durations), trajectories, Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		cf, err := model.FidelityEstimate(schedule.ASAP(calibrated.Circuit, dev.Durations), trajectories, Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		rows = append(rows, CalibFidelityRow{
			Benchmark:  b.Name,
			UncalSwaps: plain.Swaps, CalSwaps: calibrated.Swaps,
			UncalWD: plain.WeightedDepth, CalWD: calibrated.WeightedDepth,
			UncalFidelity: pf, CalFidelity: cf,
		})
	}
	return rows, nil
}

// WriteCalibrationFidelity renders the simulated study.
func WriteCalibrationFidelity(w io.Writer, rows []CalibFidelityRow) error {
	t := metrics.NewTable("algorithm", "swaps", "calSwaps", "WD", "calWD", "fidelity", "calFidelity", "delta")
	var uncal, cal float64
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.UncalSwaps, r.CalSwaps, r.UncalWD, r.CalWD,
			r.UncalFidelity, r.CalFidelity, r.CalFidelity-r.UncalFidelity)
		uncal += r.UncalFidelity
		cal += r.CalFidelity
	}
	if err := t.Render(w); err != nil {
		return err
	}
	n := float64(len(rows))
	if n == 0 {
		n = 1
	}
	_, err := fmt.Fprintf(w, "\nmean simulated fidelity: uncalibrated=%.4f calibrated=%.4f\n", uncal/n, cal/n)
	return err
}

// Package experiments implements the paper's evaluation harnesses: the
// Fig 8 circuit-execution speedup sweep (CODAR vs SABRE weighted depth over
// the benchmark suite on four architectures) and the Fig 9 fidelity-
// maintenance experiment (seven well-known algorithms under dephasing- and
// damping-dominant noise). The same code backs cmd/speedup, cmd/fidelity
// and the root bench_test.go targets, so every reported number is
// regenerable from one place.
package experiments

import (
	"fmt"
	"io"

	"codar/internal/arch"
	"codar/internal/compile"
	"codar/internal/core"
	"codar/internal/metrics"
	"codar/internal/placement"
	"codar/internal/schedule"
	"codar/internal/sim"
	"codar/internal/workloads"
)

// Seed is the fixed experiment seed: the suite, initial mappings and noise
// trajectories are all deterministic functions of it.
const Seed = 1

// SpeedupRow is one benchmark × architecture measurement of Fig 8.
type SpeedupRow struct {
	Benchmark string
	Qubits    int
	Gates     int
	// CodarWD and SabreWD are the weighted depths (ASAP makespans under
	// the device duration map) of each mapper's output circuit.
	CodarWD int
	SabreWD int
	// Speedup is SabreWD / CodarWD — the paper's Fig 8 y-axis.
	Speedup float64
	// Swap counts of each mapper.
	CodarSwaps int
	SabreSwaps int
	// Unweighted output depths, for the duration-awareness ablation story.
	CodarDepth int
	SabreDepth int
}

// paperSpec is the paper's evaluation pipeline (§V-A): SABRE's reverse
// traversal at Seed places the circuit, CODAR routes it under opts and —
// with baseline — SABRE routes it again from the same layout.
func paperSpec(opts core.Options, baseline bool) compile.Spec {
	return compile.Spec{
		Algorithm: compile.Codar,
		Placement: placement.MethodSabreReverse,
		Seed:      Seed,
		Baseline:  baseline,
		Codar:     opts,
	}
}

// CompareOn maps one benchmark circuit with both mappers from the shared
// SABRE reverse-traversal initial layout (paper §V-A) and measures weighted
// depth of both outputs under the device duration map.
func CompareOn(b workloads.Benchmark, dev *arch.Device, opts core.Options) (SpeedupRow, error) {
	c := b.Circuit()
	res, err := compile.Run(c, dev, paperSpec(opts, true))
	if err != nil {
		return SpeedupRow{}, fmt.Errorf("experiments: %s on %s: %w", b.Name, dev.Name, err)
	}
	base := res.Baseline
	return SpeedupRow{
		Benchmark:  b.Name,
		Qubits:     b.Qubits,
		Gates:      c.Len(),
		CodarWD:    res.WeightedDepth,
		SabreWD:    base.WeightedDepth,
		Speedup:    float64(base.WeightedDepth) / float64(res.WeightedDepth),
		CodarSwaps: res.Swaps,
		SabreSwaps: base.Swaps,
		CodarDepth: res.Depth,
		SabreDepth: base.Depth,
	}, nil
}

// Fig8Result is the speedup sweep on one architecture.
type Fig8Result struct {
	Device *arch.Device
	Rows   []SpeedupRow
}

// Speedups extracts the per-benchmark speedup series.
func (r Fig8Result) Speedups() []float64 {
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.Speedup
	}
	return out
}

// AverageSpeedup is the arithmetic-mean speedup the paper quotes per
// architecture (1.212 / 1.241 / 1.214 / 1.258).
func (r Fig8Result) AverageSpeedup() float64 { return metrics.Mean(r.Speedups()) }

// RunFig8Device runs the Fig 8 sweep for one architecture, fanning the
// benchmarks across GOMAXPROCS workers via RunBatch (results stay in suite
// order, and every comparison is deterministic, so parallelism never
// changes the numbers). The paper tests 68 benchmarks on the three small
// devices and all 71 on the 54-qubit Sycamore; the suite is filtered
// accordingly.
func RunFig8Device(dev *arch.Device, opts core.Options) (Fig8Result, error) {
	return RunFig8DeviceWorkers(dev, opts, 0)
}

// EligibleSuite returns the device's slice of the benchmark suite under
// the Fig 8 eligibility rule: the paper tests 68 benchmarks on the three
// small devices and all 71 (including the 36-qubit programs) on the
// 54-qubit Sycamore. Every study that claims to mirror the Fig 8 sweep
// (speedup, calibration, portfolio) filters through this one helper.
func EligibleSuite(dev *arch.Device) []workloads.Benchmark {
	var eligible []workloads.Benchmark
	for _, b := range workloads.Suite() {
		if b.Qubits > 16 && dev.NumQubits < 54 {
			continue // the three 36-qubit programs run only on Sycamore
		}
		if b.Qubits > dev.NumQubits {
			continue
		}
		eligible = append(eligible, b)
	}
	return eligible
}

// RunFig8DeviceWorkers is RunFig8Device with an explicit worker budget:
// workers <= 0 means GOMAXPROCS, 1 runs strictly serially (the honest
// baseline for driver-scaling measurements).
func RunFig8DeviceWorkers(dev *arch.Device, opts core.Options, workers int) (Fig8Result, error) {
	res := Fig8Result{Device: dev}
	eligible := EligibleSuite(dev)
	rows := make([]SpeedupRow, len(eligible))
	err := RunBatch(len(eligible), workers, func(i int) error {
		var jerr error
		rows[i], jerr = CompareOn(eligible[i], dev, opts)
		return jerr
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// WriteFig8CSV emits the sweep as CSV for external plotting; withHeader
// controls the header row so multiple devices can share one file.
func WriteFig8CSV(w io.Writer, r Fig8Result, withHeader bool) error {
	if withHeader {
		if _, err := fmt.Fprintln(w, "device,benchmark,qubits,gates,sabre_wd,codar_wd,speedup,sabre_swaps,codar_swaps,sabre_depth,codar_depth"); err != nil {
			return err
		}
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%.6f,%d,%d,%d,%d\n",
			r.Device.Name, row.Benchmark, row.Qubits, row.Gates,
			row.SabreWD, row.CodarWD, row.Speedup,
			row.SabreSwaps, row.CodarSwaps, row.SabreDepth, row.CodarDepth); err != nil {
			return err
		}
	}
	return nil
}

// WriteFig8 renders one architecture's sweep as a table plus summary.
func WriteFig8(w io.Writer, r Fig8Result) error {
	t := metrics.NewTable("benchmark", "qubits", "gates", "sabreWD", "codarWD", "speedup", "sabreSwaps", "codarSwaps")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Qubits, row.Gates, row.SabreWD, row.CodarWD, row.Speedup, row.SabreSwaps, row.CodarSwaps)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	sp := r.Speedups()
	_, err := fmt.Fprintf(w, "\n%s: benchmarks=%d  avg speedup=%.3f  geomean=%.3f  median=%.3f  min=%.3f  max=%.3f  codar wins=%d/%d\n\n",
		r.Device.Name, len(sp), metrics.Mean(sp), metrics.GeoMean(sp), metrics.Median(sp), metrics.Min(sp), metrics.Max(sp),
		metrics.CountAtLeast(sp, 1), len(sp))
	return err
}

// FidelityDevice returns the device used for the Fig 9 experiment: a 3×3
// grid keeps the trajectory statevector (2^9 amplitudes) cheap while still
// forcing non-trivial routing for the seven algorithms.
func FidelityDevice() *arch.Device { return arch.Grid("fidelity-3x3", 3, 3) }

// Fig 9 noise regimes: dephasing-dominant (left panel) and damping-
// dominant (right panel), time constants in clock cycles. The constants
// are chosen so that the longest of the seven schedules (~200 cycles) sees
// appreciable decoherence, making mapper differences visible, while the
// short ones stay near fidelity 1 — the spread Fig 9 shows.
const (
	DephasingT2 = 400.0
	DampingT1   = 400.0
)

// FidelityRow is one algorithm × regime measurement of Fig 9.
type FidelityRow struct {
	Benchmark string
	Regime    string // "dephasing" or "damping"
	// Weighted depths of the two mapped circuits.
	CodarWD int
	SabreWD int
	// Monte-Carlo fidelity estimates of the two mapped circuits.
	CodarFidelity float64
	SabreFidelity float64
}

// RunFig9 runs the fidelity-maintenance experiment: each of the seven
// famous algorithms is mapped by both mappers onto the fidelity device and
// simulated under both noise regimes with the given number of trajectories.
func RunFig9(trajectories int, opts core.Options) ([]FidelityRow, error) {
	dev := FidelityDevice()
	regimes := []struct {
		name  string
		model sim.NoiseModel
	}{
		{"dephasing", sim.DephasingDominant(DephasingT2)},
		{"damping", sim.DampingDominant(DampingT1)},
	}
	var rows []FidelityRow
	for _, b := range workloads.FamousSeven() {
		res, err := compile.Run(b.Circuit(), dev, paperSpec(opts, true))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		sSched := schedule.ASAP(res.Baseline.Circuit, dev.Durations)
		cSched := schedule.ASAP(res.Circuit, dev.Durations)
		for _, reg := range regimes {
			cf, err := reg.model.FidelityEstimate(cSched, trajectories, Seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", b.Name, reg.name, err)
			}
			sf, err := reg.model.FidelityEstimate(sSched, trajectories, Seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", b.Name, reg.name, err)
			}
			rows = append(rows, FidelityRow{
				Benchmark:     b.Name,
				Regime:        reg.name,
				CodarWD:       res.WeightedDepth,
				SabreWD:       res.Baseline.WeightedDepth,
				CodarFidelity: cf,
				SabreFidelity: sf,
			})
		}
	}
	return rows, nil
}

// GateErrorRow is one algorithm measurement of the §V-B trade-off study
// (an extension beyond Fig 9): CODAR inserts more SWAPs than SABRE, which
// adds gate noise, while its shorter schedule removes decoherence
// exposure. This study runs both effects together.
type GateErrorRow struct {
	Benchmark  string
	CodarSwaps int
	SabreSwaps int
	CodarWD    int
	SabreWD    int
	// Fidelities under combined decoherence + depolarising gate error.
	CodarFidelity float64
	SabreFidelity float64
}

// Gate-error study parameters: Table I superconducting fidelities
// (1q ≈ 99.7%, 2q ≈ 96.5%) scaled down to keep seven-algorithm circuits
// in a measurable fidelity band.
const (
	Gate1QError = 0.0005
	Gate2QError = 0.005
)

// RunGateErrorStudy measures both mappers under decoherence plus
// depolarising gate errors.
func RunGateErrorStudy(trajectories int, opts core.Options) ([]GateErrorRow, error) {
	dev := FidelityDevice()
	model := sim.NoiseModel{
		T1: DampingT1 * 4, T2: DephasingT2 * 4,
		Gate1QError: Gate1QError, Gate2QError: Gate2QError,
	}
	var rows []GateErrorRow
	for _, b := range workloads.FamousSeven() {
		res, err := compile.Run(b.Circuit(), dev, paperSpec(opts, true))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
		}
		base := res.Baseline
		cf, err := model.FidelityEstimate(schedule.ASAP(res.Circuit, dev.Durations), trajectories, Seed)
		if err != nil {
			return nil, err
		}
		sf, err := model.FidelityEstimate(schedule.ASAP(base.Circuit, dev.Durations), trajectories, Seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GateErrorRow{
			Benchmark:  b.Name,
			CodarSwaps: res.Swaps, SabreSwaps: base.Swaps,
			CodarWD: res.WeightedDepth, SabreWD: base.WeightedDepth,
			CodarFidelity: cf, SabreFidelity: sf,
		})
	}
	return rows, nil
}

// WriteGateErrorStudy renders the trade-off table.
func WriteGateErrorStudy(w io.Writer, rows []GateErrorRow) error {
	t := metrics.NewTable("algorithm", "sabreSwaps", "codarSwaps", "sabreWD", "codarWD", "sabreF", "codarF")
	var cTot, sTot float64
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.SabreSwaps, r.CodarSwaps, r.SabreWD, r.CodarWD, r.SabreFidelity, r.CodarFidelity)
		cTot += r.CodarFidelity
		sTot += r.SabreFidelity
	}
	if err := t.Render(w); err != nil {
		return err
	}
	n := float64(len(rows))
	_, err := fmt.Fprintf(w, "\nmean fidelity with gate errors: codar=%.4f sabre=%.4f\n", cTot/n, sTot/n)
	return err
}

// WriteFig9 renders the fidelity comparison with per-regime means (the
// paper's claim: better than SABRE under dephasing, about the same under
// damping).
func WriteFig9(w io.Writer, rows []FidelityRow) error {
	t := metrics.NewTable("algorithm", "regime", "sabreWD", "codarWD", "sabreF", "codarF", "delta")
	sums := map[string][2]float64{} // regime -> (codar, sabre)
	counts := map[string]int{}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Regime, r.SabreWD, r.CodarWD, r.SabreFidelity, r.CodarFidelity, r.CodarFidelity-r.SabreFidelity)
		s := sums[r.Regime]
		s[0] += r.CodarFidelity
		s[1] += r.SabreFidelity
		sums[r.Regime] = s
		counts[r.Regime]++
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	for _, regime := range []string{"dephasing", "damping"} {
		if n := counts[regime]; n > 0 {
			fmt.Fprintf(w, "mean fidelity under %-9s codar=%.4f sabre=%.4f\n",
				regime+":", sums[regime][0]/float64(n), sums[regime][1]/float64(n))
		}
	}
	return nil
}

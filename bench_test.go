package codar

// Benchmark harness: one target per table/figure of the paper plus
// micro-benchmarks of the hot paths and ablations of the design choices
// called out in DESIGN.md. Regenerate everything with:
//
//	go test -bench=. -benchmem .
//
// The per-figure benchmarks report the headline metric of the figure
// (average speedup, mean fidelity) via b.ReportMetric, so the bench output
// doubles as the experiment record; EXPERIMENTS.md captures paper-vs-
// measured for each.

import (
	"runtime"
	"strings"
	"testing"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/experiments"
	"codar/internal/optimize"
	"codar/internal/placement"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/sim"
	"codar/internal/transpile"
	"codar/internal/verify"
	"codar/internal/workloads"
)

// --- Table I: the maQAM device models and technology presets -------------

// BenchmarkTableI builds every built-in architecture, including the
// all-pairs distance matrices the heuristics consume, under each Table I
// technology preset.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, dev := range arch.EvaluationDevices() {
			for _, params := range arch.TableI() {
				dev.Durations = params.Durations
				if dev.Duration(circuit.OpCX) <= 0 {
					b.Fatal("bad duration")
				}
			}
		}
	}
}

// --- Fig 8: speedup sweep per architecture --------------------------------

func benchFig8(b *testing.B, dev *arch.Device) {
	b.ReportAllocs()
	var avg float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8Device(dev, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		avg = res.AverageSpeedup()
	}
	b.ReportMetric(avg, "avg-speedup")
}

// BenchmarkFig8IBMQ16Melbourne regenerates the Fig 8 panel on IBM Q16
// Melbourne (paper average speedup: 1.212).
func BenchmarkFig8IBMQ16Melbourne(b *testing.B) { benchFig8(b, arch.IBMQ16Melbourne()) }

// BenchmarkFig8Enfield6x6 regenerates the Fig 8 panel on the Enfield 6×6
// grid (paper average speedup: 1.241).
func BenchmarkFig8Enfield6x6(b *testing.B) { benchFig8(b, arch.Enfield6x6()) }

// BenchmarkFig8IBMQ20Tokyo regenerates the Fig 8 panel on IBM Q20 Tokyo
// (paper average speedup: 1.214).
func BenchmarkFig8IBMQ20Tokyo(b *testing.B) { benchFig8(b, arch.IBMQ20Tokyo()) }

// BenchmarkFig8SycamoreQ54 regenerates the Fig 8 panel on Google Q54
// Sycamore, including the three 36-qubit programs (paper average speedup:
// 1.258).
func BenchmarkFig8SycamoreQ54(b *testing.B) { benchFig8(b, arch.SycamoreQ54()) }

// BenchmarkFig8TokyoSerial runs the Q20 Tokyo sweep on a single worker —
// the baseline quantifying what the experiments.RunBatch fan-out buys on
// multi-core hosts (compare against BenchmarkFig8IBMQ20Tokyo).
func BenchmarkFig8TokyoSerial(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	b.ReportAllocs()
	var avg float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8DeviceWorkers(dev, core.Options{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		avg = res.AverageSpeedup()
	}
	b.ReportMetric(avg, "avg-speedup")
}

// --- Fig 9: fidelity maintenance ------------------------------------------

// BenchmarkFig9Fidelity regenerates the fidelity comparison of the seven
// famous algorithms under dephasing- and damping-dominant noise.
func BenchmarkFig9Fidelity(b *testing.B) {
	var codarMean, sabreMean float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig9(12, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		codarMean, sabreMean = 0, 0
		for _, r := range rows {
			codarMean += r.CodarFidelity
			sabreMean += r.SabreFidelity
		}
		codarMean /= float64(len(rows))
		sabreMean /= float64(len(rows))
	}
	b.ReportMetric(codarMean, "codar-fidelity")
	b.ReportMetric(sabreMean, "sabre-fidelity")
}

// --- Ablations of the design choices (DESIGN.md §4) ------------------------

// ablationSubset is a representative slice of the suite for the cheaper
// ablation sweeps.
var ablationSubset = []string{
	"qft_10", "qft_16", "rand_10_g300", "rand_16_g1000",
	"qv_12_d12", "revnet_12_s1", "ising_12_6", "adder_6", "grover_5",
}

func benchAblation(b *testing.B, opts core.Options) {
	dev := arch.IBMQ20Tokyo()
	var avg float64
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for _, name := range ablationSubset {
			bench, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			row, err := experiments.CompareOn(bench, dev, opts)
			if err != nil {
				b.Fatal(err)
			}
			sum += row.Speedup
		}
		avg = sum / float64(len(ablationSubset))
	}
	b.ReportMetric(avg, "avg-speedup")
}

// BenchmarkAblationFull is the reference point for the ablations below.
func BenchmarkAblationFull(b *testing.B) { benchAblation(b, core.Options{}) }

// BenchmarkAblationNoCommutativity replaces the commutative front with the
// plain dependency front (§IV-B turned off).
func BenchmarkAblationNoCommutativity(b *testing.B) {
	benchAblation(b, core.Options{DisableCommutativity: true})
}

// BenchmarkAblationNoHfine drops the fine-priority tie-breaker (Eq. 2 off).
func BenchmarkAblationNoHfine(b *testing.B) { benchAblation(b, core.Options{DisableHfine: true}) }

// BenchmarkAblationNoLookahead disables the look-ahead tie-breaker,
// yielding the paper-exact heuristic.
func BenchmarkAblationNoLookahead(b *testing.B) { benchAblation(b, core.Options{Lookahead: -1}) }

// BenchmarkAblationSmallWindow shrinks the commutative-front scan window.
func BenchmarkAblationSmallWindow(b *testing.B) { benchAblation(b, core.Options{Window: 16}) }

// BenchmarkAblationUniformDurations maps against a duration-blind τ
// (every gate 1 cycle) but still *measures* weighted depth under the real
// superconducting τ — quantifying what duration awareness contributes.
func BenchmarkAblationUniformDurations(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	blind := arch.IBMQ20Tokyo()
	blind.Durations = arch.UniformDurations()
	real := arch.SuperconductingDurations()
	var avg float64
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for _, name := range ablationSubset {
			bench, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			c := bench.Circuit()
			initial, err := sabre.InitialLayout(c, dev, experiments.Seed, sabre.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sres, err := sabre.Remap(c, dev, initial, sabre.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cres, err := core.Remap(c, blind, initial, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sum += float64(schedule.WeightedDepth(sres.Circuit, real)) /
				float64(schedule.WeightedDepth(cres.Circuit, real))
		}
		avg = sum / float64(len(ablationSubset))
	}
	b.ReportMetric(avg, "avg-speedup")
}

// --- Micro-benchmarks of the hot paths -------------------------------------

func benchRemapper(b *testing.B, name string, dev *arch.Device, useSabre bool) {
	bench, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Circuit()
	initial, err := sabre.InitialLayout(c, dev, experiments.Seed, sabre.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if useSabre {
			if _, err := sabre.Remap(c, dev, initial, sabre.Options{}); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := core.Remap(c, dev, initial, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCODARQFT16Tokyo times CODAR on the 640-gate QFT-16 / Q20 pair.
func BenchmarkCODARQFT16Tokyo(b *testing.B) { benchRemapper(b, "qft_16", arch.IBMQ20Tokyo(), false) }

// BenchmarkSABREQFT16Tokyo is the matching baseline cost.
func BenchmarkSABREQFT16Tokyo(b *testing.B) { benchRemapper(b, "qft_16", arch.IBMQ20Tokyo(), true) }

// BenchmarkCODARRandom16Sycamore times CODAR on a 1000-gate random circuit
// over the 54-qubit device.
func BenchmarkCODARRandom16Sycamore(b *testing.B) {
	benchRemapper(b, "rand_16_g1000", arch.SycamoreQ54(), false)
}

// BenchmarkSABRERandom16Sycamore is the matching baseline cost.
func BenchmarkSABRERandom16Sycamore(b *testing.B) {
	benchRemapper(b, "rand_16_g1000", arch.SycamoreQ54(), true)
}

// BenchmarkCODARStreamTokyo times the streaming CODAR engine alone: a
// 200k-gate random circuit (45% CX, the stream-1m shape at a fifth of its
// length), lowered once outside the timer, mapped onto Q20 Tokyo from a
// SliceSource into a sink that discards the chunks, so neither parsing nor
// output is timed. It reports ns per input gate.
func BenchmarkCODARStreamTokyo(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	c := circuit.Decompose(workloads.Random(16, 200_000, 45, 1))
	discard := schedule.FuncSink(func([]schedule.ScheduledGate) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RemapStream(circuit.NewSliceSource(c), dev, nil, core.Options{}, discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Len()), "ns/gate")
}

// BenchmarkCommutativeFront times CF computation over a 1000-gate window.
func BenchmarkCommutativeFront(b *testing.B) {
	bench, err := workloads.ByName("rand_16_g1000")
	if err != nil {
		b.Fatal(err)
	}
	gates := bench.Circuit().Gates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := circuit.CommutativeFront(gates, 256); len(f) == 0 {
			b.Fatal("empty front")
		}
	}
}

// BenchmarkDistanceMatrix times maQAM construction for Sycamore (BFS
// all-pairs distances over 54 qubits).
func BenchmarkDistanceMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if d := arch.SycamoreQ54(); d.NumQubits != 54 {
			b.Fatal("bad device")
		}
	}
}

// BenchmarkASAPSchedule times duration-aware scheduling of a mapped
// 1000-gate circuit.
func BenchmarkASAPSchedule(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	bench, err := workloads.ByName("rand_16_g1000")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Circuit()
	res, err := core.Remap(c, dev, nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := schedule.ASAP(res.Circuit, dev.Durations); s.Makespan == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// BenchmarkNoisyTrajectory times one dephasing+damping trajectory of a
// mapped GHZ-6 on the 3×3 fidelity device.
func BenchmarkNoisyTrajectory(b *testing.B) {
	dev := experiments.FidelityDevice()
	c := workloads.GHZ(6)
	res, err := core.Remap(circuit.Decompose(c), dev, nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := schedule.ASAP(res.Circuit, dev.Durations)
	model := sim.NoiseModel{T1: 1500, T2: 1500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.NoisyRun(s, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQASMParse times the OpenQASM front end over every suite
// circuit, and reports the time and the bytes allocated per parsed gate.
// "write" parses the texts as Write renders them, the texts every perfbench
// workload parses, whose gate applications all have the canonical shape
// the parser reads straight from its buffer. "spaced" parses the same
// texts with a space after each comma and before each semicolon, which
// sends every statement down the token path.
func BenchmarkQASMParse(b *testing.B) {
	for _, shape := range []struct {
		name   string
		render *strings.Replacer
	}{
		{"write", strings.NewReplacer()},
		{"spaced", strings.NewReplacer(",", ", ", ";", " ;")},
	} {
		b.Run(shape.name, func(b *testing.B) {
			var srcs []string
			gates, size := 0, 0
			for _, bench := range workloads.Suite() {
				c := bench.Circuit()
				src := shape.render.Replace(qasm.Write(c))
				srcs = append(srcs, src)
				gates += c.Len()
				size += len(src)
			}
			b.SetBytes(int64(size))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					if _, err := qasm.Parse(src); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			parsed := float64(b.N) * float64(gates)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/parsed, "ns/gate")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/parsed, "B/gate")
		})
	}
}

// BenchmarkSABREInitialLayout times the shared reverse-traversal
// initial-mapping pass.
func BenchmarkSABREInitialLayout(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	bench, err := workloads.ByName("qft_16")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Circuit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sabre.InitialLayout(c, dev, experiments.Seed, sabre.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension-study benchmarks -------------------------------------------

// BenchmarkDurationSweep regenerates the duration-heterogeneity extension
// study at two representative ratios.
func BenchmarkDurationSweep(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	var pts float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunDurationSweep(dev, []int{1, 12}, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pts = points[len(points)-1].AvgSpeedup
	}
	b.ReportMetric(pts, "avg-speedup-r12")
}

// BenchmarkInitialMappingStudy regenerates the placement sensitivity study.
func BenchmarkInitialMappingStudy(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunInitialMappingStudy(dev, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateErrorStudy regenerates the §V-B gate-error trade-off study.
func BenchmarkGateErrorStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGateErrorStudy(8, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Compiler-pass micro-benchmarks ----------------------------------------

// BenchmarkOptimizePipeline times the peephole pipeline on a 1000-gate
// random circuit.
func BenchmarkOptimizePipeline(b *testing.B) {
	bench, err := workloads.ByName("rand_16_g1000")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Circuit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, _ := optimize.Pipeline(c); out.Len() == 0 {
			b.Fatal("pipeline emptied the circuit")
		}
	}
}

// BenchmarkTranspileIonTrap times ion-native lowering of a mapped QFT-8.
func BenchmarkTranspileIonTrap(b *testing.B) {
	dev := arch.Linear(8)
	bench, err := workloads.ByName("qft_8")
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Remap(bench.Circuit(), dev, nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transpile.To(res.Circuit, transpile.IonTrap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyEquivalence times the permutation-tracked equivalence
// checker on a mapped 1000-gate circuit.
func BenchmarkVerifyEquivalence(b *testing.B) {
	dev := arch.IBMQ20Tokyo()
	bench, err := workloads.ByName("rand_16_g1000")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Circuit()
	res, err := core.Remap(c, dev, nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verify.Equivalence(c, res.Circuit, res.InitialLayout); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatevector16 times full statevector simulation of a 16-qubit
// benchmark.
func BenchmarkStatevector16(b *testing.B) {
	bench, err := workloads.ByName("qft_16")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Circuit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDensePlacement times the greedy interaction-aware placement.
func BenchmarkDensePlacement(b *testing.B) {
	dev := arch.SycamoreQ54()
	bench, err := workloads.ByName("rand_16_g1000")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Circuit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Dense(c, dev); err != nil {
			b.Fatal(err)
		}
	}
}

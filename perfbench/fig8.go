package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"codar/internal/arch"
	"codar/internal/circuit"
	"codar/internal/core"
	"codar/internal/experiments"
	cmetrics "codar/internal/metrics"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/schedule"
	"codar/internal/verify"
	"codar/internal/workloads"
)

// fig8Pins are the paper-reproduction pins: the arithmetic-mean Fig 8
// speedup per evaluation device (melbourne, enfield6x6, tokyo, sycamore),
// to three decimals.
var fig8Pins = []float64{1.133, 1.184, 1.114, 1.185}

// fig8Pair is one (device, circuit) compilation of the suite.
type fig8Pair struct {
	dev   int // index into the evaluation devices
	bench int // position in the device's eligible suite
	id    string
	src   string // the circuit as QASM text
	gates int
}

// pairResult is one compiled pair plus what its checks need.
type pairResult struct {
	orig    *circuit.Circuit
	initial *arch.Layout
	codar   *core.Result
	sabre   *sabre.Result
	speedup float64
	bytes   int
}

// compilePair runs the Fig 8 pipeline on one pair: parse, lower, assemble,
// SABRE reverse-traversal placement, both mappers, both weighted depths and
// the QASM rendering of CODAR's output. Each layer call is a child span of
// root when tr is non-nil.
func compilePair(p *fig8Pair, dev *arch.Device, tr *tracer, root int) (pairResult, error) {
	var r pairResult
	sp := tr.begin("qasm.parse", p.id, root)
	parsed, err := qasm.Parse(p.src)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("circuit.decompose", p.id, root)
	r.orig = circuit.Decompose(parsed)
	tr.end(sp)
	sp = tr.begin("circuit.assemble", p.id, root)
	asm := circuit.Assemble(r.orig)
	tr.end(sp)
	sp = tr.begin("placement", p.id, root)
	r.initial, err = sabre.InitialLayoutAssembled(asm, dev, experiments.Seed, sabre.Options{})
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("sabre.route", p.id, root)
	r.sabre, err = sabre.RemapAssembled(asm, dev, r.initial, sabre.Options{})
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("core.route", p.id, root)
	r.codar, err = core.RemapAssembled(asm, dev, r.initial, core.Options{})
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("schedule.depth", p.id, root)
	sWD := schedule.WeightedDepth(r.sabre.Circuit, dev.Durations)
	cWD := schedule.WeightedDepth(r.codar.Circuit, dev.Durations)
	tr.end(sp)
	r.speedup = float64(sWD) / float64(cWD)
	sp = tr.begin("qasm.write", p.id, root)
	r.bytes = len(qasm.Write(r.codar.Circuit))
	tr.end(sp)
	return r, nil
}

// checkMapping is the correctness check on a mapped circuit: every
// two-qubit gate on a coupled pair, and the output un-mapping, through its
// SWAPs, to a commutation-respecting reordering of the input.
func checkMapping(orig, mapped *circuit.Circuit, dev *arch.Device, initial *arch.Layout) error {
	if err := verify.Compliance(mapped, dev); err != nil {
		return err
	}
	return verify.Equivalence(orig, mapped, initial)
}

// fig8Sweep is the tally of one pass over every pair.
type fig8Sweep struct {
	compile time.Duration // summed compile time, checks excluded
	gates   int
	allocs  uint64
	traced  bool
}

func runFig8(cfg config) (*outcome, error) {
	o := newOutcome()
	var devs []*arch.Device
	setup, err := timeSetup(200, func() error {
		devs = arch.EvaluationDevices()
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup

	// Inputs: every eligible suite circuit rendered once as QASM text.
	var pairs []fig8Pair
	texts := map[string]string{}
	var twoQ, maxQ int
	perDev := make([]int, len(devs))
	for di, dev := range devs {
		eligible := experiments.EligibleSuite(dev)
		if cfg.smoke {
			eligible = smallest(eligible, 2)
		}
		perDev[di] = len(eligible)
		for bi, b := range eligible {
			c := b.Circuit()
			src, ok := texts[b.Name]
			if !ok {
				src = qasm.Write(c)
				texts[b.Name] = src
			}
			pairs = append(pairs, fig8Pair{dev: di, bench: bi, id: dev.Name + "/" + b.Name, src: src, gates: c.Len()})
			twoQ += c.TwoQubitCount()
			if c.NumQubits > maxQ {
				maxQ = c.NumQubits
			}
		}
	}
	sweepGates := 0
	for _, p := range pairs {
		sweepGates += p.gates
	}
	o.inputs["pairs"] = float64(len(pairs))
	o.inputs["gates_per_sweep"] = float64(sweepGates)
	o.inputs["qubits_max"] = float64(maxQ)
	o.inputs["twoq_share"] = float64(twoQ) / float64(sweepGates)
	o.values["input.gates_per_op"] = float64(sweepGates) / float64(len(pairs))
	o.values["input.qubits_max"] = float64(maxQ)
	o.values["input.twoq_share"] = float64(twoQ) / float64(sweepGates)

	rng := rand.New(rand.NewSource(cfg.seed))
	rt := newRuntimeReader()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(true)
	}
	var (
		sweeps     []fig8Sweep
		pairTimes  = make([][]float64, len(pairs)) // ms, untraced sweeps
		speedups   []float64
		peakLive   uint64
		counts     = map[string]float64{}
		start      = time.Now()
		rtBefore   = rt.read()
		nTraced    int
		haveCounts bool
		lastSweep  time.Duration
	)
	for another(start, cfg.budget, len(sweeps), lastSweep) || (cfg.trace && nTraced == 0) {
		sweepStart := time.Now()
		// A traced run alternates untraced and traced sweeps, so the two
		// can be compared for the tracing overhead.
		var str *tracer
		if cfg.trace && len(sweeps)%2 == 1 {
			str = tr
			nTraced++
		}
		sw := fig8Sweep{traced: str != nil}
		perPair := make([][]float64, len(devs))
		for di := range perPair {
			perPair[di] = make([]float64, perDev[di])
		}
		sweepCounts := map[string]float64{}
		for _, k := range rng.Perm(len(pairs)) {
			p := &pairs[k]
			dev := devs[p.dev]
			root := str.begin("pair", p.id, -1)
			a0 := rt.read().allocBytes
			t0 := time.Now()
			res, err := compilePair(p, dev, str, root)
			elapsed := time.Since(t0)
			snap := rt.read()
			sw.allocs += snap.allocBytes - a0
			if snap.liveBytes > peakLive {
				peakLive = snap.liveBytes
			}
			if err == nil {
				sp := str.begin("verify", p.id, root)
				err = checkMapping(res.orig, res.codar.Circuit, dev, res.initial)
				str.end(sp)
			}
			str.end(root)
			o.check(pairErr(p, err))
			if err != nil {
				continue
			}
			sw.compile += elapsed
			sw.gates += p.gates
			if str == nil {
				pairTimes[k] = append(pairTimes[k], float64(elapsed)/float64(time.Millisecond))
			}
			perPair[p.dev][p.bench] = res.speedup
			sweepCounts["sabre.swaps"] += float64(res.sabre.SwapCount)
			sweepCounts["core.swaps"] += float64(res.codar.SwapCount)
			sweepCounts["core.cycles"] += float64(res.codar.Cycles)
			sweepCounts["core.forced_swaps"] += float64(res.codar.ForcedSwaps)
			sweepCounts["core.direct_routes"] += float64(res.codar.DirectRoutes)
			sweepCounts["qasm.write.bytes"] += float64(res.bytes)
		}
		// The pins are means in suite order, so they do not depend on the
		// seeded compile order.
		if !cfg.smoke {
			for di, sp := range perPair {
				got := math.Round(cmetrics.Mean(sp)*1000) / 1000
				if got != fig8Pins[di] {
					o.check(fmt.Errorf("%s: average speedup %.3f, pinned %.3f", devs[di].Name, got, fig8Pins[di]))
				} else {
					o.check(nil)
				}
			}
		}
		if !haveCounts {
			counts, haveCounts = sweepCounts, true
			for _, sp := range perPair {
				speedups = append(speedups, sp...)
			}
		}
		sweeps = append(sweeps, sw)
		lastSweep = time.Since(sweepStart)
	}
	rtAfter := rt.read()

	var allocRates, tracedTimes, plainTimes []float64
	for _, sw := range sweeps {
		if sw.gates == 0 {
			continue
		}
		if sw.traced {
			tracedTimes = append(tracedTimes, sw.compile.Seconds())
			continue
		}
		plainTimes = append(plainTimes, sw.compile.Seconds())
		allocRates = append(allocRates, float64(sw.allocs)/float64(sw.gates))
	}
	if len(plainTimes) == 0 {
		return o, nil
	}
	// Each pair's compile time is its median over the run's sweeps, and a
	// sweep's time is the sum of those.
	perPair := medians(pairTimes)
	var sweepMs float64
	for _, t := range perPair {
		sweepMs += t
	}
	o.inputs["sweeps"] = float64(len(sweeps))
	o.values["gates_per_s"] = float64(sweepGates) / (sweepMs / 1000)
	o.values["requests_per_s"] = float64(len(perPair)) / (sweepMs / 1000)
	o.values["compile_ms_p50"] = percentile(perPair, 0.50)
	o.values["compile_ms_p90"] = percentile(perPair, 0.90)
	o.values["speedup_geomean"] = cmetrics.GeoMean(speedups)
	o.values["alloc_bytes_per_gate"] = cmetrics.Median(allocRates)

	if cfg.trace {
		for k, v := range counts {
			o.values[k] = v
		}
		if counts["core.swaps"] > 0 {
			o.values["core.forced_swap_share"] = counts["core.forced_swaps"] / counts["core.swaps"]
		}
		o.values["trace.overhead"] = cmetrics.Median(tracedTimes) / cmetrics.Median(plainTimes)
		o.reportRuntime(rtBefore, rtAfter, float64(sweepGates*len(sweeps)), peakLive)
		if err := o.reportLayers(cfg, "fig8-suite", tr, float64(sweepGates*nTraced), nTraced); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// pairErr names the pair a failure belongs to.
func pairErr(p *fig8Pair, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", p.id, err)
}

// smallest returns the n circuits of bs with the fewest gates, in suite
// order, for the smoke-size sweep.
func smallest(bs []workloads.Benchmark, n int) []workloads.Benchmark {
	idx := make([]int, len(bs))
	size := make([]int, len(bs))
	for i, b := range bs {
		idx[i], size[i] = i, b.Circuit().Len()
	}
	sort.SliceStable(idx, func(a, b int) bool { return size[idx[a]] < size[idx[b]] })
	if n > len(idx) {
		n = len(idx)
	}
	keep := append([]int(nil), idx[:n]...)
	sort.Ints(keep)
	out := make([]workloads.Benchmark, n)
	for i, k := range keep {
		out[i] = bs[k]
	}
	return out
}

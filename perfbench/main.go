// Command perfbench is codar's benchmark of record. One invocation runs one
// workload for a fixed wall-clock budget, checks every output it produced,
// and prints a single JSON result line:
//
//	perfbench --workload fig8-suite --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - fig8-suite: the paper's 275 (device, circuit) pairs compiled one at a
//     time, parse to QASM output, in a seeded order.
//   - stream-1m: one seeded 1M-gate circuit mapped through the streaming
//     path (pull parser, bounded window, chunked CODAR engine).
//   - service-mix: an in-process codard under a closed loop of two clients
//     sending a seeded mix of cache hits, misses, streams and portfolio jobs.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer split, measured by spans the benchmark records
// around its own calls into each layer (see README.md). Any failed
// correctness check marks the result incorrect and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"gates_per_s", "gates/s"},
	{"requests_per_s", "req/s"},
	{"compile_ms_p50", "ms"},
	{"compile_ms_p90", "ms"},
	{"speedup_geomean", "ratio"},
	{"alloc_bytes_per_gate", "B"},
}

// layerTimes are the layers whose self time a traced run reports, per
// input gate of the workload. A layer the workload never calls reads 0.
var layerTimes = []string{
	"qasm.parse", "circuit.decompose", "circuit.assemble", "placement",
	"sabre.route", "core.route", "schedule.depth", "qasm.write", "verify",
	"qasm.stream", "core.stream", "qasm.stream_write", "sabre.stream",
}

// layerAllocs are the fig8-suite layers whose allocations a traced run
// reports, in bytes per sweep.
var layerAllocs = []string{"qasm.parse", "placement", "sabre.route", "core.route"}

// serviceClasses are the service-mix request classes.
var serviceClasses = []string{"hit", "miss", "stream", "job"}

// perLayer lists every metric of a traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layerTimes {
		defs = append(defs, metricDef{l + ".ns_per_gate", "ns/gate"})
	}
	for _, l := range layerAllocs {
		defs = append(defs, metricDef{l + ".alloc_bytes", "B"})
	}
	defs = append(defs,
		metricDef{"sabre.swaps", "count"},
		metricDef{"core.swaps", "count"},
		metricDef{"core.cycles", "count"},
		metricDef{"core.forced_swaps", "count"},
		metricDef{"core.direct_routes", "count"},
		metricDef{"core.forced_swap_share", "ratio"},
		metricDef{"qasm.write.bytes", "B"},
		metricDef{"qasm.stream.gates", "count"},
		metricDef{"core.stream.chunks", "count"},
		metricDef{"core.stream.swaps", "count"},
		metricDef{"core.stream.cycles", "count"},
		metricDef{"qasm.stream_write.bytes", "B"},
		metricDef{"runtime.gc_cycles", "1/Mgate"},
		metricDef{"runtime.gc_cpu_fraction", "ratio"},
		metricDef{"runtime.heap_live_peak_mb", "MB"},
	)
	for _, c := range serviceClasses {
		defs = append(defs,
			metricDef{"service.handler." + c + ".ms_per_req", "ms/req"},
			metricDef{"http.overhead." + c + ".ms_per_req", "ms/req"},
		)
	}
	defs = append(defs,
		metricDef{"service.store.hits", "count"},
		metricDef{"service.store.misses", "count"},
		metricDef{"service.store.hit_ratio", "ratio"},
		metricDef{"service.store.evictions", "count"},
		metricDef{"service.store.collapsed", "count"},
		metricDef{"service.mappings", "count"},
		metricDef{"service.admission.rejected", "count"},
		metricDef{"service.admission.queue_depth_max", "count"},
		metricDef{"jobs.queue_wait.ms_per_job", "ms/job"},
		metricDef{"jobs.run.ms_per_job", "ms/job"},
		metricDef{"portfolio.candidates", "count"},
		metricDef{"persist.appends", "count"},
		metricDef{"persist.dropped", "count"},
		metricDef{"input.gates_per_op", "gates"},
		metricDef{"input.qubits_max", "count"},
		metricDef{"input.twoq_share", "ratio"},
	)
	for _, c := range serviceClasses {
		defs = append(defs, metricDef{"input.share." + c, "ratio"})
	}
	return append(defs, metricDef{"trace.overhead", "ratio"})
}()

// config is one invocation's settings.
type config struct {
	seed    int64
	budget  time.Duration
	trace   bool
	smoke   bool   // tiny inputs, for the package's own tests
	workDir string // scratch files (inputs, persist log, spans)
}

// outcome is what a workload hands back: its operation tally, the metric
// values it measured and the input properties it ran on.
type outcome struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	inputs            map[string]float64
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, inputs: map[string]float64{}}
}

// check counts one checked operation and records it as failed unless err
// is nil.
func (o *outcome) check(err error) {
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, err.Error())
	}
}

// runners maps --workload names to their runners.
var runners = map[string]func(config) (*outcome, error){
	"fig8-suite":  runFig8,
	"stream-1m":   runStream,
	"service-mix": runService,
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildResult selects the metrics of the run's mode. A missing, negative or
// non-finite value is a harness fault and fails the run, as does a zero
// end-to-end value (every end-to-end metric is positive when measured).
func buildResult(o *outcome, trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !trace && (!ok || v <= 0) {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return res, fmt.Errorf("metric %s has invalid value %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams injected, for the package's tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig8-suite, stream-1m or service-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports the traced per-layer split instead of end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny inputs (for the package's tests)")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := runners[*name]
	if !ok {
		names := make([]string, 0, len(runners))
		for n := range runners {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		smoke:   *smoke,
		workDir: *workDir,
	}
	o, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if in, err := json.Marshal(o.inputs); err == nil {
		fmt.Fprintf(stderr, "perfbench: %s inputs %s\n", *name, in)
	}
	for _, f := range o.failures {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, f)
	}
	res, err := buildResult(o, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	cmetrics "codar/internal/metrics"
)

// span is one timed call the benchmark made into a layer, or an aggregate
// of many short calls (Calls > 1) that would be too costly to keep apart.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"` // pair or request the span belongs to
	Parent int    `json:"parent"`       // index of the enclosing span; -1 at a root
	Start  int64  `json:"start_ns"`     // since the tracer started
	Dur    int64  `json:"dur_ns"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
	Calls  int    `json:"calls"`

	alloc0 uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	allocs *runtimeReader // non-nil: attribute heap allocations to spans
	spans  []span
	roots  map[string]int // request ID -> root span, for server-side spans
}

// newTracer starts a tracer. withAllocs reads the heap allocation counter
// at every span edge; that is only meaningful when one goroutine does all
// the work.
func newTracer(withAllocs bool) *tracer {
	t := &tracer{t0: time.Now(), roots: map[string]int{}}
	if withAllocs {
		t.allocs = newRuntimeReader()
	}
	return t
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, ID: id, Parent: parent, Calls: 1}
	if t.allocs != nil {
		s.alloc0 = t.allocs.read().allocBytes
	}
	if parent < 0 && id != "" {
		t.roots[id] = len(t.spans)
	}
	s.Start = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.Dur = now - s.Start
	if t.allocs != nil {
		s.Alloc = t.allocs.read().allocBytes - s.alloc0
	}
}

// add records a span measured elsewhere: calls short calls totalling dur,
// the first starting at start. parent < 0 attaches it to the root span of
// request id, if one was opened. It returns the new span's index.
func (t *tracer) add(name, id string, parent int, start time.Time, dur time.Duration, calls int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		if r, ok := t.roots[id]; ok {
			parent = r
		}
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: dur.Nanoseconds(), Calls: calls,
	})
	return len(t.spans) - 1
}

// childTime sums, per parent span, the durations of its children named
// name.
func (t *tracer) childTime(name string) map[int]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]int64{}
	for _, s := range t.spans {
		if s.Name == name && s.Parent >= 0 {
			out[s.Parent] += s.Dur
		}
	}
	return out
}

// layerTotal is one layer's self time and self allocation over a run.
type layerTotal struct {
	ns, alloc int64
	calls     int
}

// selfTotals sums each span name's self time (duration minus the part its
// child spans cover) and self allocation.
func (t *tracer) selfTotals() map[string]layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make([]int64, len(t.spans))
	childAlloc := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.Dur
			childAlloc[s.Parent] += int64(s.Alloc)
		}
	}
	out := map[string]layerTotal{}
	for i, s := range t.spans {
		tot := out[s.Name]
		tot.ns += s.Dur - childNs[i]
		tot.alloc += int64(s.Alloc) - childAlloc[i]
		tot.calls += s.Calls
		out[s.Name] = tot
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportLayers fills the per-layer metrics of a traced run from tr: each
// layer's self time per input gate, and the fig8-suite layers' self
// allocation per unit of work. It writes the spans next to the run's other
// scratch files and reports where.
func (o *outcome) reportLayers(cfg config, workload string, tr *tracer, gates float64, units int) error {
	totals := tr.selfTotals()
	for _, l := range layerTimes {
		o.values[l+".ns_per_gate"] = float64(totals[l].ns) / gates
	}
	for _, l := range layerAllocs {
		o.values[l+".alloc_bytes"] = float64(totals[l].alloc) / float64(units)
	}
	path := fmt.Sprintf("%s/%s-seed%d.spans.jsonl", cfg.workDir, workload, cfg.seed)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %s self %-24s %10.3f ms %8d calls\n", workload, n, float64(totals[n].ns)/1e6, totals[n].calls)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s spans written to %s\n", workload, path)
	return nil
}

// rtSnapshot is a reading of the runtime counters the benchmark reports.
type rtSnapshot struct {
	allocBytes, liveBytes, gcCycles uint64
	gcCPU, totalCPU                 float64
}

// runtimeReader reads runtime/metrics, which unlike ReadMemStats does not
// stop the world. It is not safe for concurrent use.
type runtimeReader struct {
	samples []metrics.Sample
}

func newRuntimeReader() *runtimeReader {
	names := []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/live:bytes",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
	}
	r := &runtimeReader{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		r.samples[i].Name = n
	}
	return r
}

func (r *runtimeReader) read() rtSnapshot {
	metrics.Read(r.samples)
	return rtSnapshot{
		allocBytes: r.samples[0].Value.Uint64(),
		liveBytes:  r.samples[1].Value.Uint64(),
		gcCycles:   r.samples[2].Value.Uint64(),
		gcCPU:      r.samples[3].Value.Float64(),
		totalCPU:   r.samples[4].Value.Float64(),
	}
}

// reportRuntime fills the runtime per-layer metrics from the counters
// before and after a measurement window that processed gates input gates,
// and the peak post-GC live heap seen during it.
func (o *outcome) reportRuntime(before, after rtSnapshot, gates float64, peakLive uint64) {
	o.values["runtime.gc_cycles"] = float64(after.gcCycles-before.gcCycles) / (gates / 1e6)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		o.values["runtime.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	}
	o.values["runtime.heap_live_peak_mb"] = float64(peakLive) / (1 << 20)
}

// percentile is the nearest-rank percentile of xs (unsorted).
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return cmetrics.Percentile(s, p)
}

// medians returns the median of each non-empty row of samples: the typical
// time of each repeated unit of work, which a burst of outside load on a
// shared host does not move.
func medians(samples [][]float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, row := range samples {
		if len(row) > 0 {
			out = append(out, cmetrics.Median(row))
		}
	}
	return out
}

// another reports whether a time-boxed loop that has run n units, the last
// taking last, should start one more: always the first, then only while
// the next should end within the budget.
func another(start time.Time, budget time.Duration, n int, last time.Duration) bool {
	return n == 0 || time.Since(start)+last <= budget
}

// timeSetup runs fn reps times and returns the median wall time in
// seconds: the set-up figure is a median so one slow repetition does not
// move it.
func timeSetup(reps int, fn func() error) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return cmetrics.Median(times), nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"codar/api"
	"codar/client"
	"codar/internal/arch"
	"codar/internal/circuit"
	cmetrics "codar/internal/metrics"
	"codar/internal/persist"
	"codar/internal/qasm"
	"codar/internal/sabre"
	"codar/internal/service"
	"codar/internal/workloads"
)

// service-mix shape: two closed-loop clients against a two-worker server,
// a hot set primed in set-up, and the request classes' shares in percent.
// The result cache and the job store are sized far beyond what a run
// fills: codard's default job store holds 1024 jobs, which a 35 s run on
// a fast host exceeds, and a full store answers 429.
const (
	serviceClients  = 2
	serviceWorkers  = 2
	serviceCache    = 1 << 16
	serviceJobs     = 1 << 16
	hotSetSize      = 32
	hitPercent      = 80
	missPercent     = 14
	streamPercent   = 3
	streamGatesReq  = 4000
	sampleChecks    = 16 // outputs per class kept for the post-run checks
	traceSlice      = time.Second
	statsEveryNthOp = 25 // traced runs sample the admission queue this often
)

// opKey carries an operation ID through a request context; opTransport
// copies it into opHeader so the server-side span can find its client span.
type opKey struct{}

const opHeader = "X-Perfbench-Op"

type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(opKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, id)
	}
	return t.base.RoundTrip(r)
}

// timedHandler records the server time of every request carrying an
// operation ID as a service.handler span under that operation.
type timedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(opHeader)
	if id == "" {
		th.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	th.h.ServeHTTP(w, r)
	th.tr.add("service.handler", id, -1, start, time.Since(start), 1)
}

// serviceEnv is one running codard with its persist log and clients.
type serviceEnv struct {
	srv       *service.Server
	ts        *httptest.Server
	log       *persist.Log
	dir       string
	transport *http.Transport
	client    *client.Client
}

// startService boots codard in-process behind httptest on loopback, with
// two workers, jobs on and a persist log in a fresh directory under
// workDir (no log when workDir is empty). A non-nil tr wraps the handler
// so server time shows in the trace.
func startService(workDir string, tr *tracer) (*serviceEnv, error) {
	e := &serviceEnv{}
	cfg := service.Config{Workers: serviceWorkers, CacheSize: serviceCache, JobsCapacity: serviceJobs}
	if workDir != "" {
		dir, err := os.MkdirTemp(workDir, "persist-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		if e.log, err = persist.Open(filepath.Join(dir, "codard.plog"), persist.Options{}); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		cfg.Persist = e.log
	}
	e.srv = service.New(cfg)
	var h http.Handler = e.srv
	if tr != nil {
		h = timedHandler{h: e.srv, tr: tr}
	}
	e.ts = httptest.NewServer(h)
	e.transport = &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}
	c, err := client.New(e.ts.URL, client.WithHTTPClient(&http.Client{Transport: opTransport{e.transport}}))
	if err != nil {
		e.close()
		return nil, err
	}
	e.client = c
	return e, nil
}

// close stops the server, waits for its jobs, and removes the log.
func (e *serviceEnv) close() {
	e.ts.Close()
	e.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Drain(ctx)
	if e.log != nil {
		e.log.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// hotCircuit is one member of the primed hot set.
type hotCircuit struct {
	src         string
	gates, twoQ int
	qubits      int
}

// hotSet returns the n suite circuits of up to 16 qubits with the fewest
// gates, rendered as QASM.
func hotSet(n int) []hotCircuit {
	var out []hotCircuit
	for _, b := range smallest(workloads.SmallSuite(), n) {
		c := b.Circuit()
		out = append(out, hotCircuit{src: qasm.Write(c), gates: c.Len(), twoQ: c.TwoQubitCount(), qubits: c.NumQubits})
	}
	return out
}

// prime maps every hot circuit once, so later requests for them are hits.
func (e *serviceEnv) prime(hot []hotCircuit) error {
	for _, h := range hot {
		res, err := e.client.Map(context.Background(), &api.MapRequest{QASM: h.src, Arch: "tokyo"})
		if err != nil {
			return fmt.Errorf("prime: %w", err)
		}
		if res.Cache != "miss" {
			return fmt.Errorf("prime: first request answered %q, want miss", res.Cache)
		}
	}
	return nil
}

// serviceOp is one completed client operation.
type serviceOp struct {
	class      string
	latency    time.Duration
	gates      int
	twoQ       int
	qubits     int
	speedup    float64 // SABRE/CODAR weighted depth from the response; 0 if none
	traced     bool
	span       int
	queueWait  time.Duration // jobs: started - created
	run        time.Duration // jobs: finished - started
	candidates int
	done       time.Duration // completion, since the measurement started
}

// sample is an output kept for the post-run checks.
type sample struct {
	req    api.MapRequest
	mapped string           // miss: mapped_qasm; stream: header + chunks
	resp   *api.MapResponse // job result
}

// clientState is one closed-loop client's private tally.
type clientState struct {
	rng      *rand.Rand
	ops      []serviceOp
	errs     []error
	samples  map[string][]sample
	rt       *runtimeReader
	peakLive uint64
	queueMax int64
}

// pickClass draws a request class from the seeded schedule.
func pickClass(rng *rand.Rand) string {
	switch u := rng.Intn(100); {
	case u < hitPercent:
		return "hit"
	case u < hitPercent+missPercent:
		return "miss"
	case u < hitPercent+missPercent+streamPercent:
		return "stream"
	}
	return "job"
}

// randomRequest builds a circuit never sent before: 8–16 qubits,
// 100–1000 gates, drawn from rng.
func randomRequest(rng *rand.Rand) (*circuit.Circuit, api.MapRequest) {
	c := workloads.Random(8+rng.Intn(9), 100+rng.Intn(901), 45, rng.Int63())
	return c, api.MapRequest{QASM: qasm.Write(c), Arch: "tokyo"}
}

// jobPortfolio is the job class's 4-candidate portfolio block.
func jobPortfolio() *api.PortfolioSpec {
	return &api.PortfolioSpec{
		Seeds:      []int64{1},
		Placements: []string{"trivial", "sabre-reverse"},
		Algorithms: []string{"codar", "sabre"},
	}
}

// doOp runs one operation of the given class and checks its disposition.
func (cs *clientState) doOp(ctx context.Context, c *client.Client, class string, hot []hotCircuit) (serviceOp, *sample, error) {
	op := serviceOp{class: class}
	switch class {
	case "hit":
		h := hot[cs.rng.Intn(len(hot))]
		op.gates, op.twoQ, op.qubits = h.gates, h.twoQ, h.qubits
		t0 := time.Now()
		res, err := c.Map(ctx, &api.MapRequest{QASM: h.src, Arch: "tokyo"})
		op.latency = time.Since(t0)
		if err != nil {
			return op, nil, err
		}
		op.speedup = res.Speedup
		if res.Cache != "hit" {
			return op, nil, fmt.Errorf("hit request answered %s=%q", api.HeaderCache, res.Cache)
		}
		return op, nil, nil
	case "miss":
		circ, req := randomRequest(cs.rng)
		op.gates, op.twoQ, op.qubits = circ.Len(), circ.TwoQubitCount(), circ.NumQubits
		t0 := time.Now()
		res, err := c.Map(ctx, &req)
		op.latency = time.Since(t0)
		if err != nil {
			return op, nil, err
		}
		op.speedup = res.Speedup
		if res.Cache != "miss" {
			return op, nil, fmt.Errorf("miss request answered %s=%q", api.HeaderCache, res.Cache)
		}
		return op, &sample{req: req, mapped: res.MappedQASM}, nil
	case "stream":
		circ := workloads.Random(16, streamGatesReq, 45, cs.rng.Int63())
		op.gates, op.twoQ, op.qubits = circ.Len(), circ.TwoQubitCount(), circ.NumQubits
		req := api.MapRequest{QASM: qasm.Write(circ), Arch: "tokyo"}
		var body strings.Builder
		t0 := time.Now()
		res, err := c.MapStream(ctx, &req, func(ch *api.StreamChunk) error {
			body.WriteString(ch.QASM)
			return nil
		})
		op.latency = time.Since(t0)
		if err != nil {
			return op, nil, err
		}
		if res.Cache != api.CacheBypass {
			return op, nil, fmt.Errorf("stream request answered %s=%q", api.HeaderCache, res.Cache)
		}
		return op, &sample{req: req, mapped: res.Header.QASMHeader + body.String()}, nil
	}
	circ, req := randomRequest(cs.rng)
	req.Portfolio = jobPortfolio()
	op.gates, op.twoQ, op.qubits = circ.Len(), circ.TwoQubitCount(), circ.NumQubits
	t0 := time.Now()
	st, err := c.SubmitJob(ctx, &req)
	if err != nil {
		return op, nil, err
	}
	last := *st
	err = c.JobEvents(ctx, st.ID, func(s api.JobStatus) bool {
		last = s
		return s.State == api.JobQueued || s.State == api.JobRunning
	})
	if err != nil {
		return op, nil, err
	}
	res, err := c.JobResult(ctx, st.ID)
	op.latency = time.Since(t0)
	if err != nil {
		return op, nil, err
	}
	if last.State != api.JobDone || last.Cache != "miss" {
		return op, nil, fmt.Errorf("job ended %s with cache %q, want done and miss", last.State, last.Cache)
	}
	if res.Portfolio != nil {
		op.candidates = len(res.Portfolio.Candidates)
	}
	created, err1 := time.Parse(time.RFC3339Nano, last.Created)
	started, err2 := time.Parse(time.RFC3339Nano, last.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, last.Finished)
	if err1 != nil || err2 != nil || err3 != nil {
		return op, nil, fmt.Errorf("job timestamps %q %q %q do not parse", last.Created, last.Started, last.Finished)
	}
	op.queueWait, op.run = started.Sub(created), finished.Sub(started)
	return op, &sample{req: req, resp: &res.MapResponse}, nil
}

// loop is one closed-loop client: it sends its next operation only when
// the previous one has completed, until the budget runs out.
func (cs *clientState) loop(e *serviceEnv, hot []hotCircuit, id int, start time.Time, budget time.Duration, tr *tracer) {
	for n := 0; time.Since(start) < budget; n++ {
		class := pickClass(cs.rng)
		ctx := context.Background()
		traced := tr != nil && int(time.Since(start)/traceSlice)%2 == 1
		span := -1
		if traced {
			opID := fmt.Sprintf("c%d-%d", id, n)
			span = tr.begin("op."+class, opID, -1)
			ctx = context.WithValue(ctx, opKey{}, opID)
		}
		op, smp, err := cs.doOp(ctx, e.client, class, hot)
		tr.end(span)
		if err != nil {
			cs.errs = append(cs.errs, fmt.Errorf("%s: %w", class, err))
			continue
		}
		op.traced, op.span, op.done = traced, span, time.Since(start)
		cs.ops = append(cs.ops, op)
		if smp != nil && len(cs.samples[class]) < sampleChecks {
			cs.samples[class] = append(cs.samples[class], *smp)
		}
		if live := cs.rt.read().liveBytes; live > cs.peakLive {
			cs.peakLive = live
		}
		if tr != nil && n%statsEveryNthOp == 0 {
			if st, err := e.client.Stats(context.Background()); err == nil && st.QueueDepth > cs.queueMax {
				cs.queueMax = st.QueueDepth
			}
		}
	}
}

func runService(cfg config) (*outcome, error) {
	o := newOutcome()
	hotN, budget := hotSetSize, cfg.budget
	if cfg.smoke {
		hotN = 4
	}
	hot := hotSet(hotN)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(false)
	}

	// Set-up: server start and hot-set priming, five times; the last
	// server stays up for the measurement.
	var e *serviceEnv
	const setupReps = 5
	rep := 0
	setup, err := timeSetup(setupReps, func() error {
		rep++
		env, err := startService(cfg.workDir, tr)
		if err != nil {
			return err
		}
		if err := env.prime(hot); err != nil {
			env.close()
			return err
		}
		if rep < setupReps {
			env.close()
		} else {
			e = env
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer e.close()
	o.values["setup_s"] = setup

	statsBefore, err := e.client.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	rt := newRuntimeReader()
	clients := make([]*clientState, serviceClients)
	for i := range clients {
		clients[i] = &clientState{
			rng:     rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(i))),
			samples: map[string][]sample{},
			rt:      newRuntimeReader(),
		}
	}
	rtBefore := rt.read()
	start := time.Now()
	var wg sync.WaitGroup
	for i, cs := range clients {
		wg.Add(1)
		go func(i int, cs *clientState) {
			defer wg.Done()
			cs.loop(e, hot, i, start, budget, tr)
		}(i, cs)
	}
	wg.Wait()
	wall := time.Since(start)
	rtAfter := rt.read()
	statsAfter, err := e.client.Stats(context.Background())
	if err != nil {
		return nil, err
	}

	var (
		ops      []serviceOp
		samples  = map[string][]sample{}
		peakLive uint64
		queueMax int64
	)
	for _, cs := range clients {
		ops = append(ops, cs.ops...)
		for _, err := range cs.errs {
			o.check(err)
		}
		for k, v := range cs.samples {
			samples[k] = append(samples[k], v...)
		}
		if cs.peakLive > peakLive {
			peakLive = cs.peakLive
		}
		if cs.queueMax > queueMax {
			queueMax = cs.queueMax
		}
	}
	if len(ops) == 0 {
		return o, nil
	}
	// The window is cut into one-second slices; rates and latency
	// percentiles are medians over the slices, which keeps a burst of
	// outside load from moving the figures.
	nSlices := int(wall / time.Second)
	if nSlices < 1 {
		nSlices = 1
	}
	sliceOps := make([]float64, nSlices)
	sliceGates := make([]float64, nSlices)
	sliceLat := make([][]float64, nSlices)
	byClass := map[string]int{}
	var speedups []float64
	var gates, twoQ, maxQ int
	for _, op := range ops {
		o.check(nil)
		byClass[op.class]++
		if s := int(op.done / time.Second); s < nSlices {
			sliceOps[s]++
			sliceGates[s] += float64(op.gates)
			sliceLat[s] = append(sliceLat[s], float64(op.latency)/float64(time.Millisecond))
		}
		gates += op.gates
		twoQ += op.twoQ
		if op.qubits > maxQ {
			maxQ = op.qubits
		}
		if op.speedup > 0 {
			speedups = append(speedups, op.speedup)
		}
	}

	// Store counters must match the schedule exactly: every hit-class
	// request a store hit, every miss and job a store miss.
	hits := statsAfter.CacheHits - statsBefore.CacheHits
	misses := statsAfter.CacheMisses - statsBefore.CacheMisses
	if hits != uint64(byClass["hit"]) || misses != uint64(byClass["miss"]+byClass["job"]) {
		o.check(fmt.Errorf("store counted %d hits / %d misses, schedule sent %d hits / %d misses",
			hits, misses, byClass["hit"], byClass["miss"]+byClass["job"]))
	} else {
		o.check(nil)
	}
	checkSamples(o, samples)

	var p50s, p90s []float64
	for _, l := range sliceLat {
		if len(l) > 0 {
			p50s = append(p50s, percentile(l, 0.50))
			p90s = append(p90s, percentile(l, 0.90))
		}
	}
	o.values["gates_per_s"] = cmetrics.Median(sliceGates)
	o.values["requests_per_s"] = cmetrics.Median(sliceOps)
	o.values["compile_ms_p50"] = cmetrics.Median(p50s)
	o.values["compile_ms_p90"] = cmetrics.Median(p90s)
	o.values["speedup_geomean"] = cmetrics.GeoMean(speedups)
	o.values["alloc_bytes_per_gate"] = float64(rtAfter.allocBytes-rtBefore.allocBytes) / float64(gates)

	o.inputs["ops"] = float64(len(ops))
	o.inputs["gates_per_op"] = float64(gates) / float64(len(ops))
	o.inputs["qubits_max"] = float64(maxQ)
	o.inputs["twoq_share"] = float64(twoQ) / float64(gates)
	o.values["input.gates_per_op"] = float64(gates) / float64(len(ops))
	o.values["input.qubits_max"] = float64(maxQ)
	o.values["input.twoq_share"] = float64(twoQ) / float64(gates)
	for _, c := range serviceClasses {
		share := float64(byClass[c]) / float64(len(ops))
		o.inputs["share_"+c] = share
		o.values["input.share."+c] = share
		var cl []float64
		for _, op := range ops {
			if op.class == c && !op.traced {
				cl = append(cl, float64(op.latency)/float64(time.Millisecond))
			}
		}
		if len(cl) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: service-mix %-6s n=%-5d p50=%.3fms p90=%.3fms p99=%.3fms\n",
				c, len(cl), percentile(cl, 0.5), percentile(cl, 0.9), percentile(cl, 0.99))
		}
	}

	if cfg.trace {
		o.values["service.store.hits"] = float64(hits)
		o.values["service.store.misses"] = float64(misses)
		if hits+misses > 0 {
			o.values["service.store.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		o.values["service.store.evictions"] = float64(statsAfter.CacheEvictions - statsBefore.CacheEvictions)
		o.values["service.store.collapsed"] = float64(statsAfter.Collapsed - statsBefore.Collapsed)
		o.values["service.mappings"] = float64(statsAfter.Mappings - statsBefore.Mappings)
		o.values["service.admission.rejected"] = float64(statsAfter.Rejected + statsAfter.QuotaRejected -
			statsBefore.Rejected - statsBefore.QuotaRejected)
		o.values["service.admission.queue_depth_max"] = float64(queueMax)
		if statsAfter.Persist != nil && statsBefore.Persist != nil {
			o.values["persist.appends"] = float64(statsAfter.Persist.Appended - statsBefore.Persist.Appended)
			o.values["persist.dropped"] = float64(statsAfter.Persist.Dropped - statsBefore.Persist.Dropped)
		}
		reportServiceLayers(o, ops, tr)
		o.reportRuntime(rtBefore, rtAfter, float64(gates), peakLive)
		if err := o.reportLayers(cfg, "service-mix", tr, float64(gates), 1); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// reportServiceLayers fills the per-class server and transport times of a
// traced run, the job timings, and the tracing overhead on hits.
func reportServiceLayers(o *outcome, ops []serviceOp, tr *tracer) {
	server := tr.childTime("service.handler")
	var jobs int
	var wait, run time.Duration
	var cands int
	for _, op := range ops {
		if op.class == "job" {
			jobs++
			wait += op.queueWait
			run += op.run
			cands += op.candidates
		}
	}
	if jobs > 0 {
		o.values["jobs.queue_wait.ms_per_job"] = float64(wait) / float64(time.Millisecond) / float64(jobs)
		o.values["jobs.run.ms_per_job"] = float64(run) / float64(time.Millisecond) / float64(jobs)
		o.values["portfolio.candidates"] = float64(cands) / float64(jobs)
	}
	for _, c := range serviceClasses {
		var n int
		var srv, total int64
		for _, op := range ops {
			if op.class == c && op.traced {
				n++
				srv += server[op.span]
				total += op.latency.Nanoseconds()
			}
		}
		if n > 0 {
			o.values["service.handler."+c+".ms_per_req"] = float64(srv) / 1e6 / float64(n)
			o.values["http.overhead."+c+".ms_per_req"] = float64(total-srv) / 1e6 / float64(n)
		}
	}
	var plain, traced []float64
	for _, op := range ops {
		if op.class != "hit" {
			continue
		}
		if op.traced {
			traced = append(traced, op.latency.Seconds())
		} else {
			plain = append(plain, op.latency.Seconds())
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		o.values["trace.overhead"] = cmetrics.Median(traced) / cmetrics.Median(plain)
	}
}

// checkSamples re-checks the kept outputs against independent references:
// miss outputs are parsed back and verified against their input; stream
// and job outputs must equal a sync mapping of the same request by a fresh
// server that never saw it.
func checkSamples(o *outcome, samples map[string][]sample) {
	dev := arch.IBMQ20Tokyo()
	for _, s := range samples["miss"] {
		o.check(checkServedMapping(s.req.QASM, s.mapped, dev))
	}
	if len(samples["stream"]) == 0 && len(samples["job"]) == 0 {
		return
	}
	ref, err := startService("", nil)
	if err != nil {
		o.check(err)
		return
	}
	defer ref.close()
	ctx := context.Background()
	for _, s := range samples["stream"] {
		req := s.req
		off := false
		req.Baseline = &off
		res, err := ref.client.Map(ctx, &req)
		if err == nil && res.MappedQASM != s.mapped {
			err = fmt.Errorf("streamed output (%d bytes) differs from sync mapped_qasm (%d bytes)", len(s.mapped), len(res.MappedQASM))
		}
		o.check(err)
	}
	for _, s := range samples["job"] {
		req := s.req
		res, err := ref.client.Map(ctx, &req)
		if err == nil {
			want, _ := json.Marshal(&res.MapResponse)
			got, _ := json.Marshal(s.resp)
			if string(want) != string(got) {
				err = fmt.Errorf("job result differs from a sync mapping of the same request")
			}
		}
		o.check(err)
	}
}

// checkServedMapping parses a served mapping back and verifies it against
// its input under the server's initial layout (SABRE reverse traversal,
// seed 1).
func checkServedMapping(src, mapped string, dev *arch.Device) error {
	parsed, err := qasm.Parse(src)
	if err != nil {
		return err
	}
	orig := circuit.Decompose(parsed)
	out, err := qasm.Parse(mapped)
	if err != nil {
		return fmt.Errorf("mapped output does not parse: %w", err)
	}
	initial, err := sabre.InitialLayout(orig, dev, 1, sabre.Options{})
	if err != nil {
		return err
	}
	return checkMapping(orig, out, dev, initial)
}

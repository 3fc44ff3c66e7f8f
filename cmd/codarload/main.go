// Command codarload is a load generator for the codard mapping service: it
// replays internal/workloads benchmark circuits against a running server
// through the official Go client (package client) and reports throughput,
// latency percentiles and cache behaviour, giving CI and perf work a
// serving-path benchmark that complements the in-process ones in
// bench_test.go.
//
// Usage:
//
//	codard -addr 127.0.0.1:8723 &
//	codarload -server http://127.0.0.1:8723 -arch tokyo -repeat 3 -concurrency 8
//
// -repeat > 1 replays the same circuits, so the steady-state hit rate of
// the server's result cache shows up directly in the report; concurrent
// identical requests that the server collapsed into one computation are
// reported as "collapsed". -client names the load run for the server's
// per-client quota accounting (X-Codard-Client).
//
// Chaos mode (DESIGN.md §11): -timeout sets the per-request mapping
// deadline via the X-Codard-Timeout header, and -cancel-fraction abandons
// that fraction of requests client-side shortly after dispatch, exercising
// the server's disconnect-cancellation path. Canceled, rejected (429) and
// deadline-exceeded (504) outcomes are reported separately from failures
// and do not fail the run — only unexpected errors do. The CI chaos-smoke
// job drives this against a codard started with -chaos-* flags:
//
//	codarload -cancel-fraction 0.3 -timeout 50ms
//
// Alternate request shapes: -jobs sends every request through the async
// job API (submit, poll, fetch — the result bytes are contract-identical
// to the sync path), -batch N packs requests into /v1/map/batch calls of N
// items whose outcomes are decoded individually (an item carrying an error
// envelope is counted by its code, never as a success), and -portfolio
// turns every request into a multi-start portfolio search — the heavy
// workload for router scale-out runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"codar/api"
	"codar/client"
	"codar/internal/compile"
	"codar/internal/experiments"
	"codar/internal/metrics"
	"codar/internal/qasm"
	"codar/internal/workloads"
)

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		// Flag-syntax errors already printed usage via the FlagSet; our own
		// validation errors still need surfacing. Either way exit non-zero —
		// a load run with a nonsense configuration must not report success.
		fmt.Fprintln(os.Stderr, "codarload:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "codarload:", err)
		os.Exit(1)
	}
}

// loadConfig is the parsed codarload command line.
type loadConfig struct {
	server      string
	archName    string
	algo        string
	durations   string
	seed        int64
	family      string
	maxQubits   int
	limit       int
	repeat      int
	concurrency int
	// clientID names this run in the X-Codard-Client header, so a server
	// running with -quota-rps accounts the load against one bucket.
	clientID string
	// timeout is the per-request mapping deadline: sent to the server as
	// the X-Codard-Timeout header (so expiry shows up as a 504 and the
	// deadline-exceeded counter, not a client-side abort) and enforced
	// client-side with slack on top. 0 disables the header.
	timeout time.Duration
	// cancelFraction abandons this fraction of requests client-side shortly
	// after dispatch — the load-generator half of the fault-injection
	// harness, driving the server's disconnect-cancellation path (499s and
	// the canceled counter) under real HTTP. 0 disables.
	cancelFraction float64
	// jobs routes every request through the async job API: submit, poll to
	// completion, fetch the result. Latency covers the full round trip.
	jobs bool
	// batch groups requests into /v1/map/batch calls of this many items
	// (0 = single-request mode). Items are decoded individually and counted
	// by their envelope code.
	batch int
	// portfolio replaces each single-shot mapping with the server-default
	// multi-start portfolio search.
	portfolio bool
}

// parseFlags parses and validates the command line. Leftover positional
// arguments (silently ignored by package flag) and out-of-range values are
// errors printed to stderr with usage, so main exits non-zero.
func parseFlags(args []string, stderr io.Writer) (*loadConfig, error) {
	fs := flag.NewFlagSet("codarload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &loadConfig{}
	fs.StringVar(&cfg.server, "server", "http://127.0.0.1:8723", "codard base URL")
	fs.StringVar(&cfg.archName, "arch", "tokyo", "target architecture for every request")
	fs.StringVar(&cfg.algo, "algo", "codar", "mapping algorithm: codar or sabre")
	fs.StringVar(&cfg.durations, "durations", "", "duration preset (empty = device default)")
	fs.Int64Var(&cfg.seed, "seed", 1, "initial-mapping seed")
	fs.StringVar(&cfg.family, "family", "", "only replay benchmarks of this workload family (ghz, qft, bv, ...)")
	fs.IntVar(&cfg.maxQubits, "max-qubits", 16, "skip benchmarks wider than this")
	fs.IntVar(&cfg.limit, "limit", 0, "cap the number of distinct circuits (0 = all eligible)")
	fs.IntVar(&cfg.repeat, "repeat", 1, "times to replay the circuit set (>1 exercises the result cache)")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "concurrent in-flight requests")
	fs.StringVar(&cfg.clientID, "client", "codarload", "X-Codard-Client identity for quota accounting (empty = anonymous)")
	fs.DurationVar(&cfg.timeout, "timeout", 2*time.Minute, "per-request mapping deadline, sent as X-Codard-Timeout (0 disables)")
	fs.Float64Var(&cfg.cancelFraction, "cancel-fraction", 0, "fraction of requests abandoned client-side mid-flight (0..1)")
	fs.BoolVar(&cfg.jobs, "jobs", false, "use the async job API (POST /v1/jobs + poll) instead of sync /v1/map")
	fs.IntVar(&cfg.batch, "batch", 0, "group requests into /v1/map/batch calls of this many items (0 = single requests)")
	fs.BoolVar(&cfg.portfolio, "portfolio", false, "request the multi-start portfolio search for every circuit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if _, err := compile.ParseAlgorithm(cfg.algo); err != nil {
		return nil, fmt.Errorf("-algo must be codar or sabre, got %q", cfg.algo)
	}
	if cfg.repeat < 1 {
		return nil, fmt.Errorf("-repeat must be >= 1, got %d", cfg.repeat)
	}
	if cfg.concurrency < 1 {
		return nil, fmt.Errorf("-concurrency must be >= 1, got %d", cfg.concurrency)
	}
	if cfg.maxQubits < 1 {
		return nil, fmt.Errorf("-max-qubits must be >= 1, got %d", cfg.maxQubits)
	}
	if cfg.limit < 0 {
		return nil, fmt.Errorf("-limit must be >= 0, got %d", cfg.limit)
	}
	if cfg.timeout < 0 {
		return nil, fmt.Errorf("-timeout must be >= 0, got %v", cfg.timeout)
	}
	if cfg.cancelFraction < 0 || cfg.cancelFraction > 1 {
		return nil, fmt.Errorf("-cancel-fraction must be in [0, 1], got %v", cfg.cancelFraction)
	}
	if cfg.batch < 0 {
		return nil, fmt.Errorf("-batch must be >= 0, got %d", cfg.batch)
	}
	if cfg.jobs && cfg.batch > 0 {
		return nil, fmt.Errorf("-jobs and -batch are mutually exclusive")
	}
	if cfg.batch > 0 && cfg.cancelFraction > 0 {
		return nil, fmt.Errorf("-cancel-fraction has no per-item meaning with -batch")
	}
	return cfg, nil
}

func run(cfg *loadConfig) error {
	var circuits []api.MapRequest
	for _, b := range workloads.Suite() {
		if b.Qubits > cfg.maxQubits {
			continue
		}
		if cfg.family != "" && b.Family != cfg.family {
			continue
		}
		req := api.MapRequest{
			QASM:      qasm.Write(b.Circuit()),
			Arch:      cfg.archName,
			Algo:      cfg.algo,
			Durations: cfg.durations,
			Seed:      cfg.seed,
		}
		if cfg.portfolio {
			req.Portfolio = &api.PortfolioSpec{}
		}
		circuits = append(circuits, req)
		if cfg.limit > 0 && len(circuits) >= cfg.limit {
			break
		}
	}
	if len(circuits) == 0 {
		return fmt.Errorf("no eligible benchmarks (family=%q, max-qubits=%d)", cfg.family, cfg.maxQubits)
	}
	reqs := make([]api.MapRequest, 0, len(circuits)*cfg.repeat)
	for r := 0; r < cfg.repeat; r++ {
		reqs = append(reqs, circuits...)
	}

	// The client-side timeout is the mapping deadline plus slack: expiry
	// should normally arrive as the server's 504, not a client abort.
	clientTimeout := time.Duration(0)
	if cfg.timeout > 0 {
		clientTimeout = cfg.timeout + 5*time.Second
	}
	opts := []client.Option{
		client.WithHTTPClient(&http.Client{Timeout: clientTimeout}),
		client.WithTimeout(cfg.timeout),
	}
	if cfg.clientID != "" {
		opts = append(opts, client.WithClientID(cfg.clientID))
	}
	c, err := client.New(cfg.server, opts...)
	if err != nil {
		return err
	}
	// Bounded health poll, so the loader can launch right after codard.
	healthCtx, cancelHealth := context.WithTimeout(context.Background(), 10*time.Second)
	err = c.WaitHealthy(healthCtx)
	cancelHealth()
	if err != nil {
		return err
	}

	type outcome struct {
		latency  time.Duration
		cache    string
		abandond bool // deliberately canceled client-side
		err      error
	}
	// Deterministic selection of the requests to abandon mid-flight: the
	// same command line always cancels the same indices, so chaos runs are
	// reproducible.
	cancelEvery := 0
	if cfg.cancelFraction > 0 {
		cancelEvery = int(1 / cfg.cancelFraction)
	}
	outcomes := make([]outcome, len(reqs))
	start := time.Now()
	if cfg.batch > 0 {
		// Batch mode: pack requests into groups and decode every item on
		// its own — an item whose envelope carries an error code is that
		// error's outcome, never a success, even though the batch call
		// itself returned 200.
		groups := (len(reqs) + cfg.batch - 1) / cfg.batch
		_ = experiments.RunBatch(groups, cfg.concurrency, func(g int) error {
			lo := g * cfg.batch
			hi := min(lo+cfg.batch, len(reqs))
			t0 := time.Now()
			resp, err := c.MapBatch(context.Background(), reqs[lo:hi])
			lat := time.Since(t0)
			if err == nil && len(resp.Items) != hi-lo {
				err = fmt.Errorf("batch returned %d items for %d requests", len(resp.Items), hi-lo)
			}
			for i := lo; i < hi; i++ {
				o := outcome{latency: lat, err: err}
				if err == nil {
					item := &resp.Items[i-lo]
					mr, derr := client.DecodeItem(item)
					o.err = derr
					if derr == nil {
						if mr.MappedQASM == "" {
							o.err = fmt.Errorf("empty mapped_qasm")
						}
						o.cache = item.Cache
					}
				}
				outcomes[i] = o
			}
			return nil
		})
	} else {
		_ = experiments.RunBatch(len(reqs), cfg.concurrency, func(i int) error {
			ctx := context.Background()
			abandon := cancelEvery > 0 && i%cancelEvery == 0
			if abandon {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				timer := time.AfterFunc(clientCancelAfter, cancel)
				defer timer.Stop()
				defer cancel()
			}
			t0 := time.Now()
			var res *client.MapResult
			var err error
			if cfg.jobs {
				var st *api.JobStatus
				if st, err = c.SubmitJob(ctx, &reqs[i]); err == nil {
					res, err = c.WaitJob(ctx, st.ID, jobPollInterval)
				}
			} else {
				res, err = c.Map(ctx, &reqs[i])
			}
			o := outcome{latency: time.Since(t0), abandond: abandon, err: err}
			if err == nil {
				if res.MappedQASM == "" {
					o.err = fmt.Errorf("empty mapped_qasm")
				}
				o.cache = res.Cache
			}
			outcomes[i] = o
			return nil
		})
	}
	wall := time.Since(start)

	var (
		lats      []float64
		hits      int
		collapsed int
		failures  int
		canceled  int
		rejected  int
		deadlines int
	)
	for i, o := range outcomes {
		switch {
		case o.abandond && o.err != nil && errors.Is(o.err, context.Canceled):
			canceled++
			continue
		case errors.Is(o.err, client.ErrQueueFull) || errors.Is(o.err, client.ErrQuotaExceeded):
			rejected++
			continue
		case errors.Is(o.err, client.ErrDeadline):
			deadlines++
			continue
		case o.err != nil:
			failures++
			if failures <= 3 {
				fmt.Fprintf(os.Stderr, "codarload: request %d: %v\n", i, o.err)
			}
			continue
		}
		switch o.cache {
		case "hit":
			hits++
		case "collapsed":
			collapsed++
		}
		lats = append(lats, float64(o.latency)/float64(time.Millisecond))
	}
	sort.Float64s(lats)
	ok := len(lats)
	mode := "sync"
	switch {
	case cfg.jobs:
		mode = "jobs"
	case cfg.batch > 0:
		mode = fmt.Sprintf("batch(%d)", cfg.batch)
	}
	fmt.Printf("codarload: %d requests (%d circuits × %d) against %s\n", len(reqs), len(circuits), cfg.repeat, cfg.server)
	fmt.Printf("  mode=%s portfolio=%v arch=%s algo=%s durations=%q seed=%d concurrency=%d client=%q timeout=%v cancel-fraction=%v\n",
		mode, cfg.portfolio, cfg.archName, cfg.algo, cfg.durations, cfg.seed, cfg.concurrency, cfg.clientID, cfg.timeout, cfg.cancelFraction)
	fmt.Printf("  ok=%d failed=%d canceled=%d rejected=%d deadline=%d cache-hits=%d collapsed=%d wall=%.2fs throughput=%.1f req/s\n",
		ok, failures, canceled, rejected, deadlines, hits, collapsed, wall.Seconds(), float64(ok)/wall.Seconds())
	if ok > 0 {
		fmt.Printf("  latency ms: p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
			metrics.Percentile(lats, 0.50), metrics.Percentile(lats, 0.90),
			metrics.Percentile(lats, 0.99), lats[ok-1])
	}
	// A stats failure is a real error (the server is answering /v1/map but
	// not /v1/stats); it is always surfaced exactly once — inline when the
	// request failures take the exit reason, via the returned error (which
	// main prints) otherwise.
	statsErr := printServerStats(c)
	if failures > 0 {
		if statsErr != nil {
			fmt.Fprintf(os.Stderr, "codarload: stats: %v\n", statsErr)
		}
		return fmt.Errorf("%d of %d requests failed", failures, len(reqs))
	}
	if statsErr != nil {
		return fmt.Errorf("stats: %w", statsErr)
	}
	return nil
}

// clientCancelAfter is how long an abandoned request stays in flight before
// its context is canceled. Long enough for the request to reach the server
// and (usually) start mapping, short enough that the disconnect lands
// mid-mapping on anything but trivial circuits.
const clientCancelAfter = 10 * time.Millisecond

// jobPollInterval is the -jobs mode status-poll cadence. Short, because the
// loader measures job round-trip latency and the poll quantum is its floor.
const jobPollInterval = 5 * time.Millisecond

// printServerStats fetches and prints the server-side /v1/stats view.
func printServerStats(c *client.Client) error {
	stats, err := c.Stats(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("  server: requests=%d hit-rate=%.2f in-flight=%d workers=%d latency p50=%.1fms p99=%.1fms\n",
		stats.Requests, stats.CacheHitRate, stats.InFlight, stats.Workers,
		stats.Latency.P50, stats.Latency.P99)
	fmt.Printf("  server: canceled=%d deadline-exceeded=%d rejected=%d quota-rejected=%d panics=%d queue=%d/%d\n",
		stats.Canceled, stats.DeadlineExceeded, stats.Rejected, stats.QuotaRejected, stats.Panics,
		stats.QueueDepth, stats.QueueCapacity)
	fmt.Printf("  server: mappings=%d collapsed=%d handoffs=%d cache=%d/%d shards=%d pinned=%d evictions=%d\n",
		stats.Mappings, stats.Collapsed, stats.Handoffs, stats.CacheSize, stats.CacheCapacity,
		stats.CacheShards, stats.CachePinned, stats.CacheEvictions)
	return nil
}

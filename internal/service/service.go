// Package service implements codard, the qubit-mapping HTTP service: a
// long-running JSON API over the qasm → circuit → core/sabre → schedule →
// writer pipeline. The wire contract (request/response bodies, error
// envelope, header names) lives in package api; this package is the
// serving machinery behind it:
//
//   - a device registry (builtin models plus uploaded coupling graphs),
//   - a sharded LRU result store keyed by (circuit hash, device,
//     algorithm, durations, seed) with singleflight collapse of concurrent
//     identical cold requests, hot-key pinning past eviction, and optional
//     warm-start persistence (internal/persist) so a restart serves its
//     hot circuits immediately,
//   - a bounded admission queue in front of the worker pool plus
//     per-client token-bucket quotas, so a traffic burst degrades to
//     bounded queueing and explicit 429s instead of unbounded goroutine
//     fan-out or invisible head-of-line blocking.
//
// Robustness contract (DESIGN.md §11): every mapping request runs under a
// context — the client disconnecting, the per-request deadline (server
// default, capped override via the X-Codard-Timeout header) or a draining
// server cancels the mapping mid-run through the pipeline's cancellation
// plumbing. Backpressure is explicit: at most Workers mappings execute,
// at most MaxQueue more wait (bounded by QueueWait), and everything beyond
// that is rejected with 429 + Retry-After. A panicking mapping job answers
// 500 with the process, the cache and the counters intact. Every error
// response is the versioned envelope {"error": {"code", "message",
// "request_id"}} (api.ErrorEnvelope); the request ID is assigned here and
// echoed in the X-Codard-Request-Id header.
//
// Endpoints:
//
//	POST /v1/map        map one OpenQASM circuit, return mapped QASM + metrics
//	POST /v1/map/batch  map several circuits through the worker pool
//	GET  /v1/devices    list builtin + uploaded devices
//	POST /v1/devices    upload a custom coupling graph
//	GET  /v1/stats      cache/store, queue and cancellation counters, latency
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text exposition of the same counters
//
// See DESIGN.md §7 for the architecture and the cache-key rationale, and
// docs/API.md for the written contract.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"codar/api"
	"codar/internal/arch"
	"codar/internal/chaos"
	"codar/internal/experiments"
	"codar/internal/interrupt"
	"codar/internal/jobs"
	"codar/internal/persist"
)

// Config tunes a Server. The zero value selects the defaults.
type Config struct {
	// Workers bounds the number of mapping jobs executing concurrently
	// (requests beyond it queue, bounded by MaxQueue/QueueWait). <= 0
	// selects GOMAXPROCS.
	Workers int
	// CacheSize is the LRU result-cache capacity in entries.
	// 0 selects DefaultCacheSize; negative disables caching.
	CacheSize int
	// MaxBatch caps the number of circuits in one /v1/map/batch request.
	// 0 selects DefaultMaxBatch.
	MaxBatch int
	// MaxBodyBytes caps request body size. 0 selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxQueue bounds how many mapping jobs may wait for a worker slot on
	// top of the Workers executing ones; admission beyond Workers+MaxQueue
	// answers 429 with Retry-After immediately. 0 selects DefaultMaxQueue;
	// negative disables queueing (any busy worker pool rejects).
	MaxQueue int
	// QueueWait bounds how long an admitted job waits for a worker slot
	// before giving up with 429 — the queue-wait budget that keeps a
	// stuffed queue from turning into unbounded client latency. 0 selects
	// DefaultQueueWait; negative waits as long as the request context
	// allows.
	QueueWait time.Duration
	// RequestTimeout is the default per-request mapping deadline; the
	// mapping is canceled mid-run and answered 504 when it expires. 0
	// selects DefaultRequestTimeout; negative disables the default (client
	// disconnect and X-Codard-Timeout still cancel).
	RequestTimeout time.Duration
	// MaxTimeout caps the client-supplied X-Codard-Timeout header: larger
	// requests are silently clamped, so a client cannot hold a worker past
	// the operator's bound. 0 selects DefaultMaxTimeout.
	MaxTimeout time.Duration
	// Shards is the result-store shard count, rounded to a power of two
	// and capped so tiny caches don't shatter (see StoreConfig.Shards).
	// 0 selects 16.
	Shards int
	// PinThreshold is the hit count that pins a hot cache entry past LRU
	// eviction. 0 selects 8.
	PinThreshold int
	// QuotaRPS enables per-client token-bucket admission: each
	// X-Codard-Client refills at QuotaRPS requests/second up to QuotaBurst.
	// <= 0 (the default) disables quotas.
	QuotaRPS float64
	// QuotaBurst is the per-client bucket depth; < 1 selects 1. Ignored
	// when QuotaRPS <= 0.
	QuotaBurst float64
	// JobsCapacity bounds resident async jobs (any state) in the /v1/jobs
	// store; submits beyond it answer 429 queue_full. 0 selects
	// jobs.DefaultCapacity.
	JobsCapacity int
	// JobsTTL bounds async job retention: terminal jobs older than it lose
	// their result (410 job_expired), and expired tombstones are deleted
	// after another TTL. 0 selects jobs.DefaultTTL.
	JobsTTL time.Duration
	// Persist, when non-nil, is the opened warm-start log: its entries are
	// replayed into the result store at construction and every cached
	// mapping streams back into it. The caller owns the log's lifecycle
	// (codard opens it before New and closes it after Drain).
	Persist *persist.Log
	// Chaos, when non-nil, injects faults into mapping jobs (slow mappers,
	// panics) — the fault-injection harness behind codard -chaos-slow /
	// -chaos-panic-every and the CI chaos-smoke job. nil in production.
	Chaos *chaos.Injector
	// ErrorLog receives panic stacks and drain warnings. nil selects the
	// log package default.
	ErrorLog *log.Logger
}

// Defaults for Config.
const (
	DefaultCacheSize      = 512
	DefaultMaxBatch       = 64
	DefaultMaxBodyBytes   = 16 << 20 // 30k-gate QASM circuits run to a few MB
	DefaultMaxQueue       = 64
	DefaultQueueWait      = 30 * time.Second
	DefaultRequestTimeout = 2 * time.Minute
	DefaultMaxTimeout     = 10 * time.Minute
)

// statusClientClosedRequest is the non-standard (nginx-convention) status
// for requests whose client went away before the mapping finished. It never
// reaches that client — it exists for the access log and the error counter.
const statusClientClosedRequest = 499

// timeoutHeader carries a client-requested per-request deadline as a Go
// duration string ("500ms", "30s"); it is clamped to Config.MaxTimeout.
const timeoutHeader = api.HeaderTimeout

func (c Config) cacheSize() int {
	switch {
	case c.CacheSize == 0:
		return DefaultCacheSize
	case c.CacheSize < 0:
		return 0
	}
	return c.CacheSize
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return DefaultMaxBatch
	}
	return c.MaxBatch
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return DefaultMaxBodyBytes
	}
	return c.MaxBodyBytes
}

func (c Config) maxQueue() int {
	switch {
	case c.MaxQueue == 0:
		return DefaultMaxQueue
	case c.MaxQueue < 0:
		return 0
	}
	return c.MaxQueue
}

func (c Config) queueWait() time.Duration {
	switch {
	case c.QueueWait == 0:
		return DefaultQueueWait
	case c.QueueWait < 0:
		return 0
	}
	return c.QueueWait
}

func (c Config) requestTimeout() time.Duration {
	switch {
	case c.RequestTimeout == 0:
		return DefaultRequestTimeout
	case c.RequestTimeout < 0:
		return 0
	}
	return c.RequestTimeout
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout <= 0 {
		return DefaultMaxTimeout
	}
	return c.MaxTimeout
}

func (c Config) errorLog() *log.Logger {
	if c.ErrorLog != nil {
		return c.ErrorLog
	}
	return log.Default()
}

// Server is the codard HTTP handler set plus its shared state. It is safe
// for concurrent use; construct with New.
type Server struct {
	cfg      Config
	workers  int
	registry *Registry
	cache    *Store
	quotas   *quotas // nil when QuotaRPS <= 0
	stats    *stats
	jobs     *jobs.Store
	sem      chan struct{} // worker-pool slots; nil only before New
	mux      *http.ServeMux
	logger   *log.Logger

	// baseCtx parents every request context; baseCancel is the drain
	// hammer — firing it aborts every in-flight mapping at the pipeline's
	// cancellation cadence (Drain).
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	workers := experiments.DefaultWorkers(cfg.Workers, 1<<30)
	s := &Server{
		cfg:      cfg,
		workers:  workers,
		registry: NewRegistry(),
		cache: NewStore(StoreConfig{
			Capacity:     cfg.cacheSize(),
			Shards:       cfg.Shards,
			PinThreshold: cfg.PinThreshold,
		}),
		quotas: newQuotas(cfg.QuotaRPS, cfg.QuotaBurst),
		stats:  newStats(),
		sem:    make(chan struct{}, workers),
		mux:    http.NewServeMux(),
		logger: cfg.errorLog(),
	}
	if cfg.Persist != nil {
		// Replay warm-start entries before attaching the log, so the seed
		// pass neither moves the hit/miss counters nor echoes every loaded
		// record straight back into the file.
		cfg.Persist.Replay(s.cache.Seed)
		s.cache.SetPersist(cfg.Persist)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// The job store shares the worker pool with the synchronous path: every
	// job goroutine parks on the same semaphore inside acquireJob, so
	// bounding job goroutines at `workers` keeps the admitted gauge honest
	// without double-booking slots. BaseCtx is the drain hammer — Drain's
	// hard cancel aborts running jobs through the same context plumbing as
	// in-flight synchronous mappings.
	s.jobs = jobs.NewStore(jobs.Config{
		Capacity: cfg.JobsCapacity,
		TTL:      cfg.JobsTTL,
		Workers:  workers,
		BaseCtx:  s.baseCtx,
	})
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/map", s.handleMap)
	s.mux.HandleFunc("/v1/map/batch", s.handleMapBatch)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/v1/devices", s.handleDevices)
	s.mux.HandleFunc("/v1/devices/", s.handleDeviceCalibration)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, errNotFound("unknown path %q", r.URL.Path))
	})
	return s
}

// Registry exposes the device registry (used by tests and embedders to
// pre-register devices before serving).
func (s *Server) Registry() *Registry { return s.registry }

// ServeHTTP implements http.Handler. It is the request-ID middleware —
// every request gets a fresh ID, echoed in the X-Codard-Request-Id
// response header and in error envelopes, so client-side reports join the
// server log — and the panic boundary: a panicking handler (chaos-injected
// or real) answers 500 with the stack logged and the panics counter
// bumped, instead of tearing down the connection and leaving the client to
// diagnose an EOF.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := newRequestID()
	w.Header().Set(api.HeaderRequestID, reqID)
	defer func() {
		if rec := recover(); rec != nil {
			s.stats.panics.Inc()
			s.logger.Printf("codard: panic serving %s %s (request %s): %v\n%s", r.Method, r.URL.Path, reqID, rec, debug.Stack())
			s.writeError(w, errInternal("internal error"))
		}
	}()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())
	s.mux.ServeHTTP(w, r)
}

// newRequestID returns a 16-hex-char random request ID. On the (never
// observed) chance the system entropy pool fails, a constant marker is
// still a valid ID — requests must not fail over log correlation.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// requestCtx derives the mapping context for one request: the client's
// context (disconnect aborts the mapping), bounded by the per-request
// deadline — the server default, or the X-Codard-Timeout header clamped to
// Config.MaxTimeout — and parented on the server's drain context. The
// returned cancel must be called when the request finishes.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, *svcError) {
	d := s.cfg.requestTimeout()
	if h := r.Header.Get(timeoutHeader); h != "" {
		parsed, err := time.ParseDuration(h)
		if err != nil || parsed <= 0 {
			return nil, nil, errBadRequest("bad %s %q: want a positive Go duration like 500ms or 30s", timeoutHeader, h)
		}
		if max := s.cfg.maxTimeout(); parsed > max {
			parsed = max
		}
		d = parsed
	}
	ctx := r.Context()
	var cancel context.CancelFunc
	if d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	// A draining server cancels in-flight requests through its own context;
	// AfterFunc bridges it into the per-request one without a goroutine
	// lingering past the request.
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }, nil
}

// acquire admits a mapping job and blocks until a worker-pool slot is free;
// the returned release func must be called when the job finishes. Admission
// is bounded: beyond workers+MaxQueue concurrently admitted jobs, or after
// QueueWait in the queue, the job is rejected with 429 + Retry-After. The
// job's context cancels the wait (client disconnect, deadline, drain). The
// in-flight gauge brackets slot ownership, so /v1/stats reports executing
// jobs; queued ones are admitted - in-flight.
func (s *Server) acquire(ctx context.Context) (func(), *svcError) {
	if s.stats.admitted.Add(1) > int64(s.workers+s.cfg.maxQueue()) {
		s.stats.admitted.Add(-1)
		return nil, errBusy("mapping queue full (%d executing, %d queued)", s.workers, s.cfg.maxQueue())
	}
	var waitC <-chan time.Time
	if qw := s.cfg.queueWait(); qw > 0 {
		timer := time.NewTimer(qw)
		defer timer.Stop()
		waitC = timer.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case s.sem <- struct{}{}:
	case <-done:
		s.stats.admitted.Add(-1)
		return nil, ctxSvcError(ctx)
	case <-waitC:
		s.stats.admitted.Add(-1)
		return nil, errBusy("no worker slot within the %v queue-wait budget", s.cfg.queueWait())
	}
	s.stats.inFlight.Add(1)
	return func() {
		s.stats.inFlight.Add(-1)
		<-s.sem
		s.stats.admitted.Add(-1)
	}, nil
}

// acquireJob is the async path's admission: like acquire it blocks for a
// worker-pool slot and brackets the in-flight gauge, but it skips the
// MaxQueue bound and the QueueWait budget — an async job already holds a
// seat in the bounded job store (429 happened at Submit when the store was
// full), and its wait in line IS the product, reported as queue position.
// Only the job's context (cancel, TTL-independent deadline, drain) aborts
// the wait. Job-goroutine fan-out is capped at `workers` by the store, so
// the admitted gauge grows by at most workers on top of the sync bound.
func (s *Server) acquireJob(ctx context.Context) (func(), *svcError) {
	s.stats.admitted.Add(1)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case s.sem <- struct{}{}:
	case <-done:
		s.stats.admitted.Add(-1)
		return nil, ctxSvcError(ctx)
	}
	s.stats.inFlight.Add(1)
	return func() {
		s.stats.inFlight.Add(-1)
		<-s.sem
		s.stats.admitted.Add(-1)
	}, nil
}

// Drain waits for every admitted mapping job to finish. When ctx expires
// first, it fires the server's base context — hard-canceling the in-flight
// mappings through the pipeline's cancellation plumbing — waits (bounded)
// for them to abort, and reports true. New requests admitted during a drain
// are treated like any others; the caller is expected to have stopped the
// listener (http.Server.Shutdown) first.
func (s *Server) Drain(ctx context.Context) (hardCanceled bool) {
	// Whatever way the drain ends, close the job store: queued jobs that
	// never started settle as canceled and running job goroutines are waited
	// for, so the process never exits underneath one.
	defer s.jobs.Close()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for s.stats.admitted.Load() > 0 {
		select {
		case <-done:
			s.baseCancel()
			// In-flight mappings abort at their amortized cancellation
			// cadence; give them a bounded window to unwind before the
			// process exits underneath them.
			deadline := time.Now().Add(5 * time.Second)
			for s.stats.admitted.Load() > 0 && time.Now().Before(deadline) {
				<-tick.C
			}
			if n := s.stats.admitted.Load(); n > 0 {
				s.logger.Printf("codard: drain: %d mapping job(s) still running after hard cancel", n)
			}
			return true
		case <-tick.C:
		}
	}
	return false
}

// svcError is an error with an HTTP status and a machine-readable envelope
// code, so the pipeline can signal 400 vs 404 vs 429 — and bad_qasm vs
// queue_full vs quota_exceeded — without the handlers re-classifying
// message strings. retryAfter > 0 adds a Retry-After header (429
// rejections); allow, when set, adds the Allow header (405s).
type svcError struct {
	status     int
	code       string
	msg        string
	retryAfter int    // seconds
	allow      string // Allow header value for 405s
}

func (e *svcError) Error() string { return e.msg }

// envelopeCode returns the machine code, defaulting by status for errors
// built without one (belt and braces; every builder sets a code).
func (e *svcError) envelopeCode() string {
	if e.code != "" {
		return e.code
	}
	switch e.status {
	case http.StatusNotFound:
		return api.CodeNotFound
	case http.StatusInternalServerError:
		return api.CodeInternal
	}
	return api.CodeBadRequest
}

func errBadRequest(format string, args ...interface{}) *svcError {
	return &svcError{status: http.StatusBadRequest, code: api.CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errBadQASM marks a circuit that fails to parse or does not fit its
// target device — the caller's circuit, not the caller's JSON.
func errBadQASM(format string, args ...interface{}) *svcError {
	return &svcError{status: http.StatusBadRequest, code: api.CodeBadQASM, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...interface{}) *svcError {
	return &svcError{status: http.StatusNotFound, code: api.CodeNotFound, msg: fmt.Sprintf(format, args...)}
}

// errUnknownDevice is the 404 for an Arch name nothing answers to —
// distinct from generic not_found so clients can prompt for a device list.
func errUnknownDevice(format string, args ...interface{}) *svcError {
	return &svcError{status: http.StatusNotFound, code: api.CodeUnknownDevice, msg: fmt.Sprintf(format, args...)}
}

// deviceSvcError maps a failed device resolution: a parametric name over
// the device size caps is a 400, any other name a 404 unknown device.
func deviceSvcError(err error) *svcError {
	if errors.Is(err, arch.ErrTooLarge) {
		return errBadRequest("%v", err)
	}
	return errUnknownDevice("%v", err)
}

func errConflict(format string, args ...interface{}) *svcError {
	return &svcError{status: http.StatusConflict, code: api.CodeConflict, msg: fmt.Sprintf(format, args...)}
}

func errInternal(format string, args ...interface{}) *svcError {
	return &svcError{status: http.StatusInternalServerError, code: api.CodeInternal, msg: fmt.Sprintf(format, args...)}
}

// errMethodNotAllowed is the uniform wrong-method rejection: 405 with the
// Allow header listing what the route accepts.
func errMethodNotAllowed(allow, route string) *svcError {
	return &svcError{
		status: http.StatusMethodNotAllowed,
		code:   api.CodeMethodNotAllowed,
		msg:    fmt.Sprintf("%s only accepts %s", route, allow),
		allow:  allow,
	}
}

// errBusy is the backpressure rejection: 429 with a Retry-After hint.
func errBusy(format string, args ...interface{}) *svcError {
	return &svcError{status: http.StatusTooManyRequests, code: api.CodeQueueFull, msg: fmt.Sprintf(format, args...), retryAfter: 1}
}

// errQuota is the per-client rate-limit rejection: same 429 + Retry-After
// shape as errBusy but with its own code, so "the server is full" and "you
// specifically are over budget" are distinguishable by machine.
func errQuota(client string, retryAfter int) *svcError {
	who := "anonymous clients"
	if client != "" {
		who = fmt.Sprintf("client %q", client)
	}
	return &svcError{
		status:     http.StatusTooManyRequests,
		code:       api.CodeQuotaExceeded,
		msg:        fmt.Sprintf("request quota for %s exhausted", who),
		retryAfter: retryAfter,
	}
}

// ctxSvcError classifies a fired request context: an exceeded deadline is
// 504 (the server gave up on the mapping), anything else means the client
// went away (499, log/counter only).
func ctxSvcError(ctx context.Context) *svcError {
	if errors.Is(interrupt.Classify(ctx), interrupt.ErrDeadline) {
		return &svcError{status: http.StatusGatewayTimeout, code: api.CodeDeadline, msg: "mapping deadline exceeded"}
	}
	return &svcError{status: statusClientClosedRequest, code: api.CodeCanceled, msg: "client closed request"}
}

// mapSvcError classifies a mapping-stage failure: cancellation surfacing
// through the pipeline keeps its transport meaning (504/499); everything
// else is the caller's bad input (400).
func mapSvcError(stage string, err error) *svcError {
	switch {
	case errors.Is(err, interrupt.ErrDeadline):
		return &svcError{status: http.StatusGatewayTimeout, code: api.CodeDeadline, msg: fmt.Sprintf("%s: mapping deadline exceeded", stage)}
	case errors.Is(err, interrupt.ErrCanceled):
		return &svcError{status: statusClientClosedRequest, code: api.CodeCanceled, msg: fmt.Sprintf("%s: mapping canceled", stage)}
	}
	return errBadRequest("%s: %v", stage, err)
}

// decodeJSON decodes a request body into v, mapping the MaxBytesReader
// limit to 413 (the client sent too much, not malformed JSON) and every
// other decode failure to 400.
func decodeJSON(r *http.Request, v interface{}) *svcError {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &svcError{
				status: http.StatusRequestEntityTooLarge,
				code:   api.CodePayloadTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			}
		}
		return errBadRequest("bad request body: %v", err)
	}
	return nil
}

// writeJSON marshals v with a trailing newline (curl-friendly) and writes
// it with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failure"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// writeError emits the versioned error envelope — carrying the machine
// code and the request ID assigned in ServeHTTP — sets the error's headers
// (Retry-After on rejections, Allow on 405s) and bumps the outcome
// counters. 5xx errors are logged with the request ID so the envelope a
// client quotes finds its server-side context.
func (s *Server) writeError(w http.ResponseWriter, e *svcError) {
	s.stats.countError(e.status, e.code)
	if e.retryAfter > 0 {
		w.Header().Set(api.HeaderRetryAfter, strconv.Itoa(e.retryAfter))
	}
	if e.allow != "" {
		w.Header().Set("Allow", e.allow)
	}
	reqID := w.Header().Get(api.HeaderRequestID)
	if e.status >= http.StatusInternalServerError && e.status != http.StatusGatewayTimeout {
		s.logger.Printf("codard: request %s failed: %d %s: %s", reqID, e.status, e.envelopeCode(), e.msg)
	}
	writeJSON(w, e.status, api.ErrorEnvelope{Error: api.ErrorBody{
		Code:      e.envelopeCode(),
		Message:   e.msg,
		RequestID: reqID,
	}})
}

// handleHealthz implements the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, errMethodNotAllowed(http.MethodGet, "/healthz"))
		return
	}
	writeJSON(w, http.StatusOK, api.HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.stats.start).Seconds(),
	})
}

// StatsResponse is the GET /v1/stats body (the wire shape lives in
// package api).
type StatsResponse = api.StatsResponse

// statsSnapshot assembles the full counter view shared by /v1/stats and
// /metrics.
func (s *Server) statsSnapshot() StatsResponse {
	hits, misses := s.cache.Counters()
	inFlight := s.stats.inFlight.Load()
	queued := s.stats.admitted.Load() - inFlight
	if queued < 0 {
		queued = 0
	}
	shards := s.cache.ShardStats()
	apiShards := make([]api.ShardStats, len(shards))
	var evictions uint64
	pinned := 0
	for i, sh := range shards {
		apiShards[i] = api.ShardStats{
			Entries:   sh.Entries,
			Pinned:    sh.Pinned,
			Hits:      sh.Hits,
			Misses:    sh.Misses,
			Evictions: sh.Evictions,
		}
		evictions += sh.Evictions
		pinned += sh.Pinned
	}
	resp := StatsResponse{
		Requests:          s.stats.requests.Load(),
		Errors:            s.stats.errors.Load(),
		InFlight:          inFlight,
		QueueDepth:        queued,
		QueueCapacity:     s.cfg.maxQueue(),
		Workers:           s.workers,
		Canceled:          s.stats.canceled.Load(),
		DeadlineExceeded:  s.stats.deadlines.Load(),
		Rejected:          s.stats.rejected.Load(),
		QuotaRejected:     s.stats.quotaRejected.Load(),
		Panics:            s.stats.panics.Load(),
		Mappings:          s.stats.mappings.Load(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheSize:         s.cache.Len(),
		CacheCapacity:     s.cache.Capacity(),
		CacheEvictions:    evictions,
		CachePinned:       pinned,
		CacheShards:       s.cache.Shards(),
		Collapsed:         s.stats.collapsed.Load(),
		Handoffs:          s.stats.handoffs.Load(),
		Shards:            apiShards,
		CustomDevices:     s.registry.CustomCount(),
		CalibratedDevices: s.registry.CalibrationCount(),
		UptimeSeconds:     time.Since(s.stats.start).Seconds(),
		Latency:           s.stats.latencies(),
	}
	if total := hits + misses; total > 0 {
		resp.CacheHitRate = float64(hits) / float64(total)
	}
	jst := s.jobs.Stats()
	resp.Jobs = &api.JobsStats{
		Submitted: jst.Submitted,
		Done:      jst.Done,
		Failed:    jst.Failed,
		Canceled:  jst.Canceled,
		Expired:   jst.Expired,
		Queued:    jst.Queued,
		Running:   jst.Running,
		Resident:  jst.Resident,
		Capacity:  jst.Capacity,
	}
	if log := s.cache.Persist(); log != nil {
		pst := log.Stats()
		resp.Persist = &api.PersistStats{
			Path:     pst.Path,
			Loaded:   pst.Loaded,
			Appended: pst.Appended,
			Dropped:  pst.Dropped,
		}
	}
	return resp
}

// handleStats reports serving counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, errMethodNotAllowed(http.MethodGet, "/v1/stats"))
		return
	}
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

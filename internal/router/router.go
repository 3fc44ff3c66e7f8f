// Package router is codard's stateless front tier: an http.Handler that
// consistent-hash-routes mapping traffic across N backend codards so the
// sharded result store scales horizontally — every spelling of one circuit
// lands on the same backend, whose cache and singleflight then do their
// work exactly as in the single-node deployment.
//
// Routing is rendezvous (highest-random-weight) hashing on the circuit
// hash: each backend scores sha256(backendURL ‖ key) and the highest
// healthy scorer wins. Unlike mod-N, removing a backend only remaps the
// keys it owned (its keys fall to their second-choice backend), and
// readmitting it restores the original assignment — no ring state, no
// rebalancing step, nothing persisted.
//
// Backends are health-checked (GET /healthz every HealthInterval);
// EjectAfter consecutive failures — probe or proxy — eject a backend from
// the candidate set, ReadmitAfter consecutive probe successes restore it.
// A request whose first-choice backend fails at the transport level is
// retried on the next-ranked healthy backend (bodies are buffered for
// exactly this reason); only when no healthy backend remains does the
// router answer 503 backend_unavailable.
//
// Async jobs stay sticky without router state: job IDs returned by a
// backend are rewritten to <tag>-<id>, where tag is derived from the
// backend's URL, and every later /v1/jobs/{id} call routes by the tag —
// the job's home is encoded in the handle the client already holds.
package router

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codar/api"
	"codar/internal/metrics"
)

// Config tunes a Router. Backends is required; zero values elsewhere
// select the defaults.
type Config struct {
	// Backends are the base URLs of the backend codards
	// ("http://127.0.0.1:8081", ...). At least one is required.
	Backends []string
	// HealthInterval is the /healthz probe cadence. 0 selects 2s.
	HealthInterval time.Duration
	// EjectAfter is the consecutive-failure count (probes and proxied
	// requests combined) that ejects a backend. 0 selects 3.
	EjectAfter int
	// ReadmitAfter is the consecutive probe-success count that readmits an
	// ejected backend. 0 selects 2.
	ReadmitAfter int
	// MaxBodyBytes caps buffered request bodies. 0 selects 16 MiB.
	MaxBodyBytes int64
	// Client issues backend requests. nil selects a client with a 15-minute
	// timeout (portfolio mappings are long; per-request contexts still
	// cancel earlier).
	Client *http.Client
	// ErrorLog receives eject/readmit transitions. nil selects the default.
	ErrorLog *log.Logger
}

// Defaults for Config.
const (
	DefaultHealthInterval = 2 * time.Second
	DefaultEjectAfter     = 3
	DefaultReadmitAfter   = 2
	DefaultMaxBodyBytes   = 16 << 20
)

// backend is one routed-to codard.
type backend struct {
	url string
	// tag is the job-ID prefix binding async jobs to this backend: the
	// first 8 hex chars of sha256(url).
	tag string

	healthy   atomic.Bool
	fails     atomic.Int64 // consecutive failures
	oks       atomic.Int64 // consecutive probe successes while ejected
	requests  atomic.Uint64
	errors    atomic.Uint64
	ejections atomic.Uint64
}

// Router is the front-tier handler. Construct with New; Close stops the
// health prober.
type Router struct {
	cfg      Config
	backends []*backend
	byTag    map[string]*backend
	client   *http.Client
	logger   *log.Logger
	start    time.Time

	requests    atomic.Uint64
	errors      atomic.Uint64
	retries     atomic.Uint64
	unrouteable atomic.Uint64

	mux      *http.ServeMux
	stop     chan struct{}
	stopOnce sync.Once
	probes   sync.WaitGroup
}

// New builds a Router over cfg.Backends and starts the health prober.
// Backends start healthy (optimistic): the fleet usually boots together,
// and the first probe round corrects any that aren't.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = DefaultEjectAfter
	}
	if cfg.ReadmitAfter <= 0 {
		cfg.ReadmitAfter = DefaultReadmitAfter
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 15 * time.Minute}
	}
	logger := cfg.ErrorLog
	if logger == nil {
		logger = log.Default()
	}
	rt := &Router{
		cfg:    cfg,
		byTag:  make(map[string]*backend),
		client: client,
		logger: logger,
		start:  time.Now(),
		mux:    http.NewServeMux(),
		stop:   make(chan struct{}),
	}
	for _, raw := range cfg.Backends {
		u := strings.TrimSuffix(raw, "/")
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("router: backend %q: want an http(s) URL", raw)
		}
		sum := sha256.Sum256([]byte(u))
		b := &backend{url: u, tag: hex.EncodeToString(sum[:4])}
		b.healthy.Store(true)
		if dup, ok := rt.byTag[b.tag]; ok {
			return nil, fmt.Errorf("router: backends %q and %q collide", dup.url, u)
		}
		rt.byTag[b.tag] = b
		rt.backends = append(rt.backends, b)
	}
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/v1/stats", rt.handleStats)
	rt.mux.HandleFunc("/v1/map", rt.handleMap)
	rt.mux.HandleFunc("/v1/map/batch", rt.handleBatch)
	rt.mux.HandleFunc("/v1/jobs", rt.handleJobs)
	rt.mux.HandleFunc("/v1/jobs/", rt.handleJobByID)
	rt.mux.HandleFunc("/v1/devices", rt.handleDevices)
	rt.mux.HandleFunc("/v1/devices/", rt.handleDevices)
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		rt.writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown path %q", r.URL.Path))
	})
	rt.probes.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the health prober. Safe to call twice.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.probes.Wait()
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	rt.mux.ServeHTTP(w, r)
}

// probeLoop drives the health checks until Close.
func (rt *Router) probeLoop() {
	defer rt.probes.Done()
	tick := time.NewTicker(rt.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.probeOnce()
		}
	}
}

// probeOnce probes every backend's /healthz once.
func (rt *Router) probeOnce() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthInterval)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
			if err != nil {
				rt.vote(b, false)
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.vote(b, false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rt.vote(b, resp.StatusCode == http.StatusOK)
		}(b)
	}
	wg.Wait()
}

// vote records one health observation — a probe result or a proxied
// request's transport outcome — and flips the backend's state at the
// configured thresholds.
func (rt *Router) vote(b *backend, ok bool) {
	if ok {
		b.fails.Store(0)
		if !b.healthy.Load() {
			if b.oks.Add(1) >= int64(rt.cfg.ReadmitAfter) {
				b.oks.Store(0)
				b.healthy.Store(true)
				rt.logger.Printf("router: backend %s readmitted", b.url)
			}
		}
		return
	}
	b.oks.Store(0)
	if b.fails.Add(1) >= int64(rt.cfg.EjectAfter) && b.healthy.Load() {
		b.healthy.Store(false)
		b.ejections.Add(1)
		rt.logger.Printf("router: backend %s ejected after %d consecutive failures", b.url, rt.cfg.EjectAfter)
	}
}

// score is the rendezvous weight of backend b for key.
func score(b *backend, key string) uint64 {
	h := sha256.New()
	h.Write([]byte(b.url))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// rank returns every backend ordered by descending rendezvous score for
// key — element 0 is the owner, the rest are the failover order.
func (rt *Router) rank(key string) []*backend {
	ranked := make([]*backend, len(rt.backends))
	copy(ranked, rt.backends)
	sort.SliceStable(ranked, func(i, j int) bool {
		return score(ranked[i], key) > score(ranked[j], key)
	})
	return ranked
}

// healthyCount reports how many backends are currently in the candidate set.
func (rt *Router) healthyCount() int {
	n := 0
	for _, b := range rt.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// writeError emits the router's own error envelope.
func (rt *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	rt.errors.Add(1)
	if status == http.StatusServiceUnavailable {
		w.Header().Set(api.HeaderRetryAfter, "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(api.ErrorEnvelope{Error: api.ErrorBody{Code: code, Message: msg}})
	w.Write(append(body, '\n'))
}

// forward sends one buffered request to backend b and returns the
// response with its body read. Transport failures (no HTTP response)
// return an error and count a health vote against b; any HTTP response —
// including 5xx — is the backend's answer and is returned as-is.
func (rt *Router) forward(ctx context.Context, b *backend, method, path string, hdr http.Header, body []byte) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, rd)
	if err != nil {
		return nil, nil, err
	}
	for _, h := range []string{"Content-Type", api.HeaderTimeout, api.HeaderClient, "Accept"} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	b.requests.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		b.errors.Add(1)
		rt.vote(b, false)
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes+1))
	if err != nil {
		b.errors.Add(1)
		rt.vote(b, false)
		return nil, nil, err
	}
	rt.vote(b, true)
	return resp, out, nil
}

// proxyRanked forwards the request along key's rendezvous order, retrying
// transport failures on the next healthy backend. It returns the first
// HTTP response obtained plus the backend that produced it.
func (rt *Router) proxyRanked(ctx context.Context, key, method, path string, hdr http.Header, body []byte) (*http.Response, []byte, *backend, error) {
	tried := 0
	for _, b := range rt.rank(key) {
		if !b.healthy.Load() {
			continue
		}
		if tried > 0 {
			rt.retries.Add(1)
		}
		tried++
		resp, out, err := rt.forward(ctx, b, method, path, hdr, body)
		if err == nil {
			return resp, out, b, nil
		}
		if ctx.Err() != nil {
			return nil, nil, nil, ctx.Err()
		}
	}
	rt.unrouteable.Add(1)
	return nil, nil, nil, fmt.Errorf("no healthy backend (%d configured)", len(rt.backends))
}

// relay copies a backend response (status, salient headers, body) to the
// client.
func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", api.HeaderCache, api.HeaderRequestID, api.HeaderRetryAfter, "Allow", "Location"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// readBody buffers the request body up to the configured cap.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBodyBytes+1))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "reading request body: "+err.Error())
		return nil, false
	}
	if int64(len(body)) > rt.cfg.MaxBodyBytes {
		rt.writeError(w, http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes))
		return nil, false
	}
	return body, true
}

// circuitKey extracts the routing key of a map-shaped request body: the
// QASM text. Requests that don't parse still route (deterministically, by
// raw body) so the owning backend produces the error envelope.
func circuitKey(body []byte) string {
	var req struct {
		QASM string `json:"qasm"`
	}
	if err := json.Unmarshal(body, &req); err == nil && req.QASM != "" {
		return req.QASM
	}
	return string(body)
}

// handleMap proxies POST /v1/map by circuit hash.
func (rt *Router) handleMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "/v1/map only accepts POST")
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	resp, out, _, err := rt.proxyRanked(r.Context(), circuitKey(body), r.Method, "/v1/map", r.Header, body)
	if err != nil {
		rt.writeError(w, http.StatusServiceUnavailable, api.CodeBackendUnavailable, err.Error())
		return
	}
	relay(w, resp, out)
}

// handleJobs proxies POST /v1/jobs by circuit hash and rewrites the
// returned job handle to carry the owning backend's tag.
func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "/v1/jobs only accepts POST")
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	resp, out, b, err := rt.proxyRanked(r.Context(), circuitKey(body), r.Method, "/v1/jobs", r.Header, body)
	if err != nil {
		rt.writeError(w, http.StatusServiceUnavailable, api.CodeBackendUnavailable, err.Error())
		return
	}
	if resp.StatusCode == http.StatusAccepted {
		if rewritten, loc, ok := tagJobStatus(out, b.tag); ok {
			out = rewritten
			if loc != "" {
				resp.Header.Set("Location", loc)
			}
		}
	}
	relay(w, resp, out)
}

// tagJobStatus rewrites a JobStatus body's job ID (and derived URLs) to
// the tagged form. Reports ok=false when the body isn't a JobStatus.
func tagJobStatus(body []byte, tag string) (out []byte, location string, ok bool) {
	var st api.JobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		return body, "", false
	}
	st.ID = tag + "-" + st.ID
	if st.ResultURL != "" {
		st.ResultURL = "/v1/jobs/" + st.ID + "/result"
	}
	enc, err := json.Marshal(st)
	if err != nil {
		return body, "", false
	}
	return append(enc, '\n'), "/v1/jobs/" + st.ID, true
}

// handleJobByID proxies /v1/jobs/{tag-id}[/result|/events] to the backend
// the tag names. The tag is the router's only routing input — no job table,
// so a router restart (or a second router) resolves the same handles.
func (rt *Router) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	parts := strings.SplitN(rest, "/", 2)
	tag, id, found := strings.Cut(parts[0], "-")
	b := rt.byTag[tag]
	if !found || b == nil || id == "" {
		rt.writeError(w, http.StatusNotFound, api.CodeJobNotFound, "no such job (unroutable job id)")
		return
	}
	sub := ""
	if len(parts) == 2 {
		sub = "/" + parts[1]
	}
	path := "/v1/jobs/" + id + sub
	if sub == "/events" {
		rt.streamJobEvents(w, r, b, path, tag)
		return
	}
	// Job affinity is absolute: a dead owner means the job is unreachable
	// (and gone — its store died with it), so this path never fails over.
	resp, out, err := rt.forward(r.Context(), b, r.Method, path, r.Header, nil)
	if err != nil {
		rt.writeError(w, http.StatusServiceUnavailable, api.CodeBackendUnavailable,
			fmt.Sprintf("job's backend %s unreachable: %v", b.url, err))
		return
	}
	if strings.Contains(resp.Header.Get("Content-Type"), "application/json") && sub == "" {
		if rewritten, loc, ok := tagJobStatus(out, tag); ok {
			out = rewritten
			if resp.Header.Get("Location") != "" && loc != "" {
				resp.Header.Set("Location", loc)
			}
		}
	}
	relay(w, resp, out)
}

// streamJobEvents proxies the SSE status stream, rewriting each event's
// job handle to the tagged form as it passes through.
func (rt *Router) streamJobEvents(w http.ResponseWriter, r *http.Request, b *backend, path, tag string) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.url+path, nil)
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	b.requests.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		b.errors.Add(1)
		rt.vote(b, false)
		rt.writeError(w, http.StatusServiceUnavailable, api.CodeBackendUnavailable,
			fmt.Sprintf("job's backend %s unreachable: %v", b.url, err))
		return
	}
	defer resp.Body.Close()
	rt.vote(b, true)
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes))
		relay(w, resp, out)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			if rewritten, _, ok := tagJobStatus([]byte(strings.TrimPrefix(line, "data: ")), tag); ok {
				line = "data: " + strings.TrimSuffix(string(rewritten), "\n")
			}
		}
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return
		}
		if line == "" && canFlush {
			flusher.Flush()
		}
	}
}

// handleBatch splits POST /v1/map/batch per owning backend, forwards the
// sub-batches concurrently and reassembles the items in request order.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "/v1/map/batch only accepts POST")
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req api.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Requests) == 0 {
		rt.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "empty batch")
		return
	}
	// Group item indices by owning backend. Unrouteable only when no
	// healthy backend exists at grouping time.
	groups := make(map[*backend][]int)
	for i := range req.Requests {
		ranked := rt.rank(req.Requests[i].QASM)
		var owner *backend
		for _, b := range ranked {
			if b.healthy.Load() {
				owner = b
				break
			}
		}
		if owner == nil {
			rt.unrouteable.Add(1)
			rt.writeError(w, http.StatusServiceUnavailable, api.CodeBackendUnavailable, "no healthy backend")
			return
		}
		groups[owner] = append(groups[owner], i)
	}
	items := make([]api.BatchItem, len(req.Requests))
	var wg sync.WaitGroup
	for b, idx := range groups {
		wg.Add(1)
		go func(b *backend, idx []int) {
			defer wg.Done()
			sub := api.BatchRequest{Requests: make([]api.MapRequest, len(idx))}
			for k, i := range idx {
				sub.Requests[k] = req.Requests[i]
			}
			enc, err := json.Marshal(sub)
			if err != nil {
				fillBatchError(items, idx, http.StatusInternalServerError, api.CodeInternal, err.Error())
				return
			}
			resp, out, err := rt.forward(r.Context(), b, http.MethodPost, "/v1/map/batch", r.Header, enc)
			if err != nil {
				fillBatchError(items, idx, http.StatusServiceUnavailable, api.CodeBackendUnavailable,
					fmt.Sprintf("backend %s unreachable: %v", b.url, err))
				return
			}
			var subResp api.BatchResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &subResp) != nil || len(subResp.Items) != len(idx) {
				fillBatchError(items, idx, http.StatusBadGateway, api.CodeInternal,
					fmt.Sprintf("backend %s answered %d to sub-batch", b.url, resp.StatusCode))
				return
			}
			for k, i := range idx {
				items[i] = subResp.Items[k]
			}
		}(b, idx)
	}
	wg.Wait()
	out, err := json.Marshal(api.BatchResponse{Items: items})
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, api.CodeInternal, "encoding failure")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(out, '\n'))
}

// fillBatchError marks a sub-batch's items failed with one shared envelope.
func fillBatchError(items []api.BatchItem, idx []int, status int, code, msg string) {
	for _, i := range idx {
		items[i] = api.BatchItem{
			Error:  &api.ErrorBody{Code: code, Message: msg},
			Status: status,
		}
	}
}

// handleDevices proxies the device routes: reads go to the first healthy
// backend; writes (device uploads, calibration uploads) fan out to every
// healthy backend so the fleet stays consistent — backends are stateless
// replicas of the registry, and a routed request must find its device
// wherever it lands.
func (rt *Router) handleDevices(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if r.Method == http.MethodGet {
		resp, out, _, err := rt.proxyRanked(r.Context(), path, r.Method, path, r.Header, nil)
		if err != nil {
			rt.writeError(w, http.StatusServiceUnavailable, api.CodeBackendUnavailable, err.Error())
			return
		}
		relay(w, resp, out)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var (
		firstResp *http.Response
		firstBody []byte
	)
	anyHealthy := false
	for _, b := range rt.backends {
		if !b.healthy.Load() {
			continue
		}
		anyHealthy = true
		resp, out, err := rt.forward(r.Context(), b, r.Method, path, r.Header, body)
		if err != nil {
			continue
		}
		if firstResp == nil {
			firstResp, firstBody = resp, out
		}
	}
	if !anyHealthy || firstResp == nil {
		rt.unrouteable.Add(1)
		rt.writeError(w, http.StatusServiceUnavailable, api.CodeBackendUnavailable, "no healthy backend")
		return
	}
	relay(w, firstResp, firstBody)
}

// handleHealthz reports ok while at least one backend is in the candidate
// set — a router with zero healthy backends is down, whatever its process
// state.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.healthyCount() == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, api.CodeBackendUnavailable, "no healthy backend")
		return
	}
	body, _ := json.Marshal(api.HealthResponse{Status: "ok", UptimeSeconds: time.Since(rt.start).Seconds()})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, '\n'))
}

// Stats snapshots the router's counters.
func (rt *Router) Stats() api.RouterStatsResponse {
	resp := api.RouterStatsResponse{
		Router:        true,
		Requests:      rt.requests.Load(),
		Errors:        rt.errors.Load(),
		Retries:       rt.retries.Load(),
		Unrouteable:   rt.unrouteable.Load(),
		UptimeSeconds: time.Since(rt.start).Seconds(),
	}
	for _, b := range rt.backends {
		resp.Backends = append(resp.Backends, api.BackendStats{
			URL:       b.url,
			Healthy:   b.healthy.Load(),
			Requests:  b.requests.Load(),
			Errors:    b.errors.Load(),
			Ejections: b.ejections.Load(),
		})
	}
	return resp
}

// handleStats implements GET /v1/stats with the router's own counter
// shape (per-backend rows instead of cache internals).
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "/v1/stats only accepts GET")
		return
	}
	body, err := json.Marshal(rt.Stats())
	if err != nil {
		rt.writeError(w, http.StatusInternalServerError, api.CodeInternal, "encoding failure")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(body, '\n'))
}

// handleMetrics implements GET /metrics for the front tier: router-level
// counters plus one labelled row per backend.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "/metrics only accepts GET")
		return
	}
	st := rt.Stats()
	p := metrics.NewPromWriter()
	p.Counter("codard_router_requests_total", "Requests received by the front tier.", st.Requests)
	p.Counter("codard_router_errors_total", "Requests the router answered with its own error envelope.", st.Errors)
	p.Counter("codard_router_retries_total", "Transport-failure retries onto the next-ranked backend.", st.Retries)
	p.Counter("codard_router_unrouteable_total", "Requests dropped with no healthy backend.", st.Unrouteable)
	p.Gauge("codard_router_backends", "Configured backends.", float64(len(st.Backends)))
	p.Gauge("codard_router_backends_healthy", "Backends currently in the candidate set.", float64(rt.healthyCount()))
	p.Declare("codard_router_backend_requests_total", "counter", "Proxied requests per backend.")
	p.Declare("codard_router_backend_errors_total", "counter", "Transport failures per backend.")
	p.Declare("codard_router_backend_ejections_total", "counter", "Health ejections per backend.")
	p.Declare("codard_router_backend_healthy", "gauge", "1 while the backend is in the candidate set.")
	for _, b := range st.Backends {
		labels := map[string]string{"backend": b.URL}
		p.Labeled("codard_router_backend_requests_total", labels, float64(b.Requests))
		p.Labeled("codard_router_backend_errors_total", labels, float64(b.Errors))
		p.Labeled("codard_router_backend_ejections_total", labels, float64(b.Ejections))
		healthy := 0.0
		if b.Healthy {
			healthy = 1
		}
		p.Labeled("codard_router_backend_healthy", labels, healthy)
	}
	p.Gauge("codard_router_uptime_seconds", "Seconds since the router started.", st.UptimeSeconds)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.WriteTo(w)
}

package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"codar/api"
	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/circuit"
	"codar/internal/compile"
	"codar/internal/experiments"
	"codar/internal/placement"
	"codar/internal/pool"
	"codar/internal/portfolio"
)

// cacheHeader reports cache disposition per response. The disposition
// lives in a header — not the body — so hits can return the stored bytes
// verbatim.
const cacheHeader = api.HeaderCache

// Cache dispositions carried by cacheHeader and BatchItem.Cache.
const (
	dispHit       = "hit"       // served from the result store
	dispMiss      = "miss"      // computed by this request (the flight leader)
	dispCollapsed = "collapsed" // computed once by a concurrent identical request and shared
)

// maxPortfolioCandidates bounds the candidate grid of one request: the
// portfolio runs serially inside one worker-pool slot, so the grid size is
// the request's cost multiplier.
const maxPortfolioCandidates = 64

// specOf resolves a request's portfolio block into a normalized
// portfolio.Spec (defaults applied; calibration attached by the caller).
func specOf(p *PortfolioSpec) (portfolio.Spec, *svcError) {
	s := portfolio.Spec{Seeds: p.Seeds}
	if p.Objective != "" {
		obj, err := portfolio.ParseObjective(p.Objective)
		if err != nil {
			return s, errBadRequest("%v", err)
		}
		s.Objective = obj
	}
	for _, name := range p.Placements {
		m, err := placement.ParseMethod(name)
		if err != nil {
			return s, errBadRequest("%v", err)
		}
		s.Placements = append(s.Placements, m)
	}
	for _, name := range p.Algorithms {
		a, err := compile.ParseAlgorithm(name)
		if err != nil {
			return s, errBadRequest("%v", err)
		}
		s.Algorithms = append(s.Algorithms, a)
	}
	s = s.Normalized()
	if k := len(s.Seeds) * len(s.Placements) * len(s.Algorithms); k > maxPortfolioCandidates {
		return s, errBadRequest("portfolio grid of %d candidates exceeds limit %d", k, maxPortfolioCandidates)
	}
	return s, nil
}

// specKey renders the normalized spec canonically for the result-cache key.
func specKey(s portfolio.Spec) string {
	var b strings.Builder
	b.WriteString("seeds=")
	for i, seed := range s.Seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", seed)
	}
	b.WriteString(";placements=")
	for i, m := range s.Placements {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(m))
	}
	b.WriteString(";algorithms=")
	for i, a := range s.Algorithms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(a))
	}
	fmt.Fprintf(&b, ";objective=%s", s.Objective)
	return b.String()
}

// normalizeRequest applies request defaults, validates enum fields, and —
// for portfolio requests — returns the normalized portfolio spec (nil
// otherwise). The spec travels beside the request rather than inside it:
// MapRequest is the pure wire type from package api now, so server-side
// derived state cannot hide in it.
func normalizeRequest(req *MapRequest) (*portfolio.Spec, *svcError) {
	if req.QASM == "" {
		return nil, errBadRequest("missing qasm")
	}
	if req.Arch == "" {
		return nil, errBadRequest("missing arch")
	}
	if req.Algo == "" {
		req.Algo = "codar"
	}
	if _, err := compile.ParseAlgorithm(req.Algo); err != nil {
		return nil, errBadRequest("%v", err)
	}
	if req.Durations != "" {
		if _, ok := durationsByName(req.Durations); !ok {
			return nil, errBadRequest("unknown durations preset %q (want superconducting, iontrap, neutralatom or uniform)", req.Durations)
		}
	}
	if req.Seed == 0 {
		req.Seed = experiments.Seed
	}
	// The baseline is a SABRE comparison, so it only makes sense for the
	// codar mapper; for sabre it is forced off (not just defaulted) so
	// {algo: sabre, baseline: true} and plain {algo: sabre} share one
	// cache entry instead of duplicating identical bytes.
	b := req.Algo == "codar"
	if req.Baseline != nil && !*req.Baseline {
		b = false
	}
	var pspec *portfolio.Spec
	if req.Portfolio != nil {
		// Portfolio mode races both algorithms itself; the single-shot
		// baseline is forced off (not just defaulted) and the ignored
		// Algo/Seed fields are canonicalized, so spec-equal requests share
		// one cache entry no matter how the ignored fields were spelled.
		b = false
		req.Algo = "codar"
		req.Seed = experiments.Seed
		spec, serr := specOf(req.Portfolio)
		if serr != nil {
			return nil, serr
		}
		if spec.Objective == portfolio.ObjectiveMaxESP && !req.Calibrated {
			return nil, errBadRequest("portfolio objective max-esp needs calibrated: true")
		}
		pspec = &spec
	}
	req.Baseline = &b
	return pspec, nil
}

// cacheKeyFor derives the result-cache key. Every field that can change
// the mapped output participates: the circuit text (hashed), the resolved
// device name, the algorithm, the durations preset, the seed, the baseline
// flag and — on calibrated requests — the calibration snapshot hash. Seed
// and durations are load-bearing — the initial layout is a function of the
// seed, and the durations steer CODAR's lock-aware routing (DESIGN.md §7).
// The calibration hash is equally load-bearing: the cost model reshapes
// placement and routing, and re-uploading a snapshot must invalidate every
// result computed under the old one (DESIGN.md §8). calHash is empty for
// uncalibrated requests, which therefore keep their pre-calibration keys.
// The leading bytes of the key double as the store's shard selector.
func cacheKeyFor(req *MapRequest, pspec *portfolio.Spec, deviceName, calHash string) string {
	h := sha256.New()
	h.Write([]byte(req.QASM))
	fmt.Fprintf(h, "\x00%s\x00%s\x00%s\x00%d\x00%t\x00%s", deviceName, req.Algo, req.Durations, req.Seed, *req.Baseline, calHash)
	// Portfolio requests key on the *normalized* spec, so an explicit
	// spelling of the defaults shares its entry with the empty block.
	if pspec != nil {
		fmt.Fprintf(h, "\x00portfolio:%s", specKey(*pspec))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resolveDevice resolves a normalized request's device and duration preset
// into a ready-to-map device (shallow-copied when the preset overrides
// durations). normalizeRequest has already rejected unknown presets.
func (s *Server) resolveDevice(req *MapRequest) (*arch.Device, *svcError) {
	dev, err := s.registry.Resolve(req.Arch)
	if err != nil {
		return nil, deviceSvcError(err)
	}
	if req.Durations != "" {
		d, _ := durationsByName(req.Durations)
		dev = withDurations(dev, d)
	}
	return dev, nil
}

// mapOne runs the full mapping pipeline for one normalized request on an
// already-resolved device, under the device's calibration when cal is
// non-nil, on the compile context w of the caller's worker-pool slot. The
// context cancels the mapping mid-run (client disconnect, deadline,
// drain). It is pure with respect to server state (no cache, no
// counters), so the single and batch paths share it. The response owns
// its bytes: mapped_qasm is rendered before the slot is released.
func (s *Server) mapOne(ctx context.Context, w *compile.Worker, req *MapRequest, pspec *portfolio.Spec, dev *arch.Device, cal *Calibration) (*MapResponse, *svcError) {
	c, resp, serr := s.prepare(ctx, w, req, dev, cal)
	if serr != nil {
		return nil, serr
	}
	// The portfolio places and routes each candidate through the same
	// pipeline, so it branches off before the single-shot spec.
	if pspec != nil {
		return s.mapPortfolio(ctx, w, pspec, dev, cal, c, resp)
	}
	res, err := w.Run(c, dev, specFor(ctx, req, cal))
	if err != nil {
		return nil, compileSvcError(err)
	}
	resp.MappedQASM = string(w.Write(res.Circuit))
	summarize(resp, res)
	return resp, nil
}

// prepare is the part of every single mapping before the pipeline: the
// chaos hook, the parse and the lowering on w, the size check, and the
// response fields known from the input alone.
func (s *Server) prepare(ctx context.Context, w *compile.Worker, req *MapRequest, dev *arch.Device, cal *Calibration) (*circuit.Circuit, *MapResponse, *svcError) {
	if err := s.cfg.Chaos.BeforeMap(ctx); err != nil {
		return nil, nil, mapSvcError("chaos", err)
	}
	c, err := w.Parse(req.QASM)
	if err != nil {
		return nil, nil, errBadQASM("bad qasm: %v", err)
	}
	if c.NumQubits > dev.NumQubits {
		return nil, nil, errBadQASM("circuit needs %d qubits but %s has %d", c.NumQubits, dev.Name, dev.NumQubits)
	}
	resp := &MapResponse{
		Device:      dev.Name,
		Algo:        req.Algo,
		Durations:   req.Durations,
		Seed:        req.Seed,
		InputQubits: c.NumQubits,
		InputGates:  c.Len(),
	}
	if cal != nil {
		resp.Calibration = cal.Hash
	}
	return c, resp, nil
}

// specFor is the single-shot pipeline of a normalized request: SABRE's
// reverse traversal at the request seed (the paper's §V-A placement), the
// requested router and baseline, and the calibration when one is attached.
func specFor(ctx context.Context, req *MapRequest, cal *Calibration) compile.Spec {
	spec := compile.Spec{
		Algorithm: compile.Algorithm(req.Algo),
		Placement: placement.MethodSabreReverse,
		Seed:      req.Seed,
		Baseline:  *req.Baseline,
		Ctx:       ctx,
	}
	if cal != nil {
		spec.Cost, spec.Snapshot = cal.Cost, cal.Snap
	}
	return spec
}

// summarize copies the pipeline's measurements into the response.
func summarize(resp *MapResponse, res *compile.Result) {
	resp.OutputGates = res.Gates
	resp.Swaps = res.Swaps
	resp.Depth = res.Depth
	resp.WeightedDepth = res.WeightedDepth
	resp.EstSuccess = res.ESP
	if b := res.Baseline; b != nil {
		resp.BaselineWeightedDepth = b.WeightedDepth
		resp.BaselineEstSuccess = b.ESP
		resp.BaselineSwaps = b.Swaps
		if res.WeightedDepth > 0 {
			resp.Speedup = float64(b.WeightedDepth) / float64(res.WeightedDepth)
		}
	}
}

// compileSvcError maps a pipeline failure to its status: a failed success
// estimate is the server's fault (500); every other stage maps as
// mapSvcError does, under the stage's name.
func compileSvcError(err error) *svcError {
	var ce *compile.Error
	if !errors.As(err, &ce) || ce.Stage == compile.StageEstimate {
		return errInternal("%v", err)
	}
	return mapSvcError(ce.Stage, ce.Err)
}

// mapPortfolio answers a portfolio-mode request: the multi-start search
// runs serially inside the caller's worker-pool slot (Workers: 1, so the
// service-wide mapping concurrency stays capped at cfg.Workers), with early
// abandon off — concurrent cold computations of one cache key must produce
// byte-identical responses, and which losers get abandoned is the one
// timing-dependent part of a portfolio report (DESIGN.md §9).
func (s *Server) mapPortfolio(ctx context.Context, w *compile.Worker, pspec *portfolio.Spec, dev *arch.Device, cal *Calibration, c *circuit.Circuit, resp *MapResponse) (*MapResponse, *svcError) {
	spec := *pspec
	spec.Ctx = ctx
	spec.Workers = 1
	spec.EarlyAbandon = false
	if cal != nil {
		spec.Snapshot, spec.Cost = cal.Snap, cal.Cost
	}
	pres, err := portfolio.Run(c, dev, spec)
	if err != nil {
		return nil, mapSvcError("portfolio", err)
	}
	wr := pres.WinnerReport()
	resp.Algo = string(wr.Algorithm)
	resp.Seed = wr.Seed
	resp.MappedQASM = string(w.Write(pres.Winner.Circuit))
	summarize(resp, pres.Winner)
	resp.Portfolio = &PortfolioStats{
		Objective:   string(pres.Objective),
		WinnerIndex: pres.WinnerIndex,
		Completed:   pres.Completed,
		Candidates:  candidateReports(pres.Candidates),
	}
	return resp, nil
}

// candidateReports converts the portfolio engine's reports into the wire
// shape. The JSON rendering is field-for-field identical; the copy exists
// because package api must not depend on internal/portfolio.
func candidateReports(rs []portfolio.Report) []api.CandidateReport {
	out := make([]api.CandidateReport, len(rs))
	for i, r := range rs {
		out[i] = api.CandidateReport{
			Index:     r.Index,
			Seed:      r.Seed,
			Placement: string(r.Placement),
			Algorithm: string(r.Algorithm),
			Depth:     r.Depth,
			Swaps:     r.Swaps,
			ESP:       r.ESP,
			Score:     r.Score,
			Abandoned: r.Abandoned,
			Err:       r.Err,
		}
	}
	return out
}

// calibrationFor returns the device's stored calibration when the request
// asks for one (nil when it does not), or the 400 a missing one answers.
func (s *Server) calibrationFor(req *MapRequest, dev *arch.Device) (*Calibration, *svcError) {
	if !req.Calibrated {
		return nil, nil
	}
	cal, ok := s.registry.Calibration(dev.Name)
	if !ok {
		return nil, errBadRequest("device %q has no calibration; upload one via POST /v1/devices/%s/calibration", dev.Name, req.Arch)
	}
	return cal, nil
}

// mapBytes answers one map request with the rendered response body and its
// cache disposition (dispHit / dispMiss / dispCollapsed). The store's
// singleflight collapses concurrent identical cold requests: the first
// becomes the flight leader — admitted through acquire (bounded queue, 429
// beyond it), mapped inside a worker-pool slot under its own ctx — and the
// rest park on the flight without consuming worker slots, then share the
// leader's bytes. A leader that dies for reasons of its own (client gone:
// 499, deadline: 504) hands the flight off — each parked follower loops
// back and one becomes the next leader — while deterministic failures (bad
// QASM, unknown device, queue-full) are shared, so a poison request cannot
// trigger a retry stampede. A canceled or failed job never reaches the
// cache — Put is only on the success path — so cancellation cannot plant
// partial entries.
func (s *Server) mapBytes(ctx context.Context, req *MapRequest) (body []byte, disposition string, serr *svcError) {
	return s.mapBytesAdmit(ctx, req, s.acquire)
}

// admitFunc is the admission policy a mapping runs under: the synchronous
// path uses Server.acquire (bounded queue, 429 beyond it), the async jobs
// path uses Server.acquireJob (unbounded wait — the job store is the bound).
// Both hand over the slot's compile context.
type admitFunc func(ctx context.Context) (*compile.Worker, func(), *svcError)

// mapBytesAdmit is mapBytes under an explicit admission policy.
func (s *Server) mapBytesAdmit(ctx context.Context, req *MapRequest, admit admitFunc) (body []byte, disposition string, serr *svcError) {
	pspec, serr := normalizeRequest(req)
	if serr != nil {
		return nil, "", serr
	}
	// Resolve before hashing so aliases (tokyo, q20, ibm-q20-tokyo) share
	// one cache entry, and unknown devices 404 without burning a miss.
	dev, serr := s.resolveDevice(req)
	if serr != nil {
		return nil, "", serr
	}
	cal, serr := s.calibrationFor(req, dev)
	if serr != nil {
		return nil, "", serr
	}
	calHash := ""
	if cal != nil {
		calHash = cal.Hash
	}
	key := cacheKeyFor(req, pspec, dev.Name, calHash)
	for {
		cached, f, leader := s.cache.GetOrJoin(key)
		if f == nil {
			return cached, dispHit, nil
		}
		if leader {
			return s.leadFlight(ctx, f, req, pspec, dev, cal, key, admit)
		}
		// Follower: wait for the leader without holding a worker slot.
		select {
		case <-f.done:
			val, ferr, handoff := f.outcome()
			switch {
			case ferr == nil && val != nil:
				s.stats.collapsed.Inc()
				return val, dispCollapsed, nil
			case handoff:
				// The leader's failure was its own (canceled, deadline,
				// panic); retry — GetOrJoin elects the next leader, unless
				// this follower's context has fired too.
				s.stats.handoffs.Inc()
				if ctx.Err() != nil {
					return nil, "", ctxSvcError(ctx)
				}
				continue
			case ferr != nil:
				return nil, "", ferr
			default:
				return nil, "", errInternal("flight settled without result")
			}
		case <-ctx.Done():
			return nil, "", ctxSvcError(ctx)
		}
	}
}

// leadFlight runs one mapping as the singleflight leader and settles the
// flight with the outcome. The deferred abort is the panic path: if the
// mapper panics, parked followers are released in handoff mode (the panic
// propagates to the caller's recover boundary and answers this request
// alone), and one of them retries.
func (s *Server) leadFlight(ctx context.Context, f *flight, req *MapRequest, pspec *portfolio.Spec, dev *arch.Device, cal *Calibration, key string, admit admitFunc) (body []byte, disposition string, serr *svcError) {
	settled := false
	defer func() {
		if !settled {
			f.abort()
		}
	}()
	w, release, serr := admit(ctx)
	if serr != nil {
		// Rejections about this leader (its context fired while queueing)
		// hand off; queue-full applies to any would-be leader right now and
		// is shared, so N followers produce one 429 wave, not N retries.
		handoff := serr.status == statusClientClosedRequest || serr.status == http.StatusGatewayTimeout
		f.fail(serr, handoff)
		settled = true
		return nil, "", serr
	}
	defer release()
	resp, serr := s.mapOne(ctx, w, req, pspec, dev, cal)
	if serr != nil {
		handoff := serr.status == statusClientClosedRequest || serr.status == http.StatusGatewayTimeout
		f.fail(serr, handoff)
		settled = true
		return nil, "", serr
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		e := errInternal("encoding failure")
		f.fail(e, false)
		settled = true
		return nil, "", e
	}
	raw = append(raw, '\n')
	s.stats.mappings.Inc()
	s.cache.Put(key, raw)
	f.finish(raw)
	settled = true
	return raw, dispMiss, nil
}

// checkQuota charges n requests against the caller's per-client bucket
// (identified by the X-Codard-Client header; absent shares the anonymous
// bucket). Nil when admitted or when quotas are disabled.
func (s *Server) checkQuota(r *http.Request, n int) *svcError {
	if s.quotas == nil {
		return nil
	}
	client := r.Header.Get(api.HeaderClient)
	ok, retryAfter := s.quotas.allow(client, n)
	if ok {
		return nil
	}
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return errQuota(client, secs)
}

// handleMap implements POST /v1/map.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, errMethodNotAllowed(http.MethodPost, "/v1/map"))
		return
	}
	if streamQuery(r) {
		s.handleMapStream(w, r)
		return
	}
	start := time.Now()
	var req MapRequest
	if serr := decodeJSON(r, &req); serr != nil {
		s.writeError(w, serr)
		return
	}
	if serr := s.checkQuota(r, 1); serr != nil {
		s.writeError(w, serr)
		return
	}
	ctx, cancel, serr := s.requestCtx(r)
	if serr != nil {
		s.writeError(w, serr)
		return
	}
	defer cancel()
	body, disposition, serr := s.mapBytes(ctx, &req)
	s.stats.requests.Add(1)
	s.stats.observe(time.Since(start))
	if serr != nil {
		s.writeError(w, serr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cacheHeader, disposition)
	w.Write(body)
}

// handleMapBatch implements POST /v1/map/batch: the circuits fan out
// across the worker pool via pool.RunCtx (results land in pre-indexed
// slots, so concurrency never reorders the response), while the per-item
// cache path is identical to the single endpoint. The request context
// governs the whole batch: once it fires — client disconnect, deadline,
// drain — in-flight items abort mid-mapping and queued items are never
// dispatched; undispatched items report the classified status instead of
// silently burning workers on a dead request.
func (s *Server) handleMapBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, errMethodNotAllowed(http.MethodPost, "/v1/map/batch"))
		return
	}
	var req BatchRequest
	if serr := decodeJSON(r, &req); serr != nil {
		s.writeError(w, serr)
		return
	}
	n := len(req.Requests)
	if n == 0 {
		s.writeError(w, errBadRequest("empty batch"))
		return
	}
	if max := s.cfg.maxBatch(); n > max {
		s.writeError(w, errBadRequest("batch of %d exceeds limit %d", n, max))
		return
	}
	// A batch charges its full size against the client's quota up front:
	// splitting a request into a batch must not dodge the limiter.
	if serr := s.checkQuota(r, n); serr != nil {
		s.writeError(w, serr)
		return
	}
	ctx, cancel, serr := s.requestCtx(r)
	if serr != nil {
		s.writeError(w, serr)
		return
	}
	defer cancel()
	reqID := w.Header().Get(api.HeaderRequestID)
	items := make([]BatchItem, n)
	// Each item acquires its own worker-pool slot inside mapBytes, so the
	// RunCtx fan-out here only bounds goroutine count; total mapping
	// concurrency stays capped at cfg.Workers across all in-flight
	// requests, single and batch alike. A panicking item (chaos or real)
	// becomes that item's 500 row, not the batch's.
	_ = pool.RunCtx(ctx, n, s.workers, func(i int) {
		start := time.Now()
		body, disposition, serr := s.batchItem(ctx, &req.Requests[i])
		s.stats.requests.Add(1)
		s.stats.observe(time.Since(start))
		if serr != nil {
			s.stats.countError(serr.status, serr.code)
			items[i] = batchErrorItem(serr, reqID)
			return
		}
		items[i] = BatchItem{
			Result: json.RawMessage(body),
			Status: http.StatusOK,
			Cached: disposition == dispHit,
			Cache:  disposition,
		}
	})
	// Items never dispatched (context fired first) report why instead of a
	// zero row. The response itself is still written: on a deadline the
	// client is still listening, and on a disconnect the write just fails.
	if cerr := ctx.Err(); cerr != nil {
		skipped := ctxSvcError(ctx)
		for i := range items {
			if items[i].Status == 0 {
				s.stats.countError(skipped.status, skipped.code)
				items[i] = batchErrorItem(skipped, reqID)
			}
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: items})
}

// batchErrorItem renders one failed batch element with the same envelope
// body a standalone request would carry.
func batchErrorItem(e *svcError, reqID string) BatchItem {
	return BatchItem{
		Error: &api.ErrorBody{
			Code:      e.envelopeCode(),
			Message:   e.msg,
			RequestID: reqID,
		},
		Status: e.status,
	}
}

// batchItem maps one batch element, converting a panic into that item's
// 500 row (the experiments.RunBatch contract, kept across the move to
// pool.RunCtx) so one poisoned circuit cannot kill its siblings mid-pool.
func (s *Server) batchItem(ctx context.Context, req *MapRequest) (body []byte, disposition string, serr *svcError) {
	defer func() {
		if rec := recover(); rec != nil {
			s.stats.panics.Inc()
			s.logger.Printf("codard: panic mapping batch item: %v\n%s", rec, debug.Stack())
			body, disposition, serr = nil, "", errInternal("internal error")
		}
	}()
	return s.mapBytes(ctx, req)
}

// handleDevices implements GET (list) and POST (upload) /v1/devices.
func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, api.DeviceList{
			Devices:            s.registry.List(),
			ParametricFamilies: ParametricFamilies,
		})
	case http.MethodPost:
		var spec DeviceSpec
		if serr := decodeJSON(r, &spec); serr != nil {
			s.writeError(w, serr)
			return
		}
		dev, serr := buildDevice(&spec)
		if serr != nil {
			s.writeError(w, serr)
			return
		}
		if serr := s.registry.Add(dev); serr != nil {
			s.writeError(w, serr)
			return
		}
		writeJSON(w, http.StatusCreated, infoOf(dev, false))
	default:
		s.writeError(w, errMethodNotAllowed("GET, POST", "/v1/devices"))
	}
}

func calibInfo(cal *Calibration) CalibrationInfo {
	return CalibrationInfo{
		Device:   cal.Device,
		Hash:     cal.Hash,
		Qubits:   len(cal.Snap.Qubits),
		Couplers: len(cal.Snap.Edges),
	}
}

// handleDeviceCalibration implements the /v1/devices/{name}/calibration
// sub-resource: POST (or PUT) uploads a calibration snapshot for a builtin
// or custom device — validated against its coupling graph, cost model built
// once at upload — and GET returns the stored snapshot with its hash.
// Re-uploading replaces the snapshot; the new hash re-keys every calibrated
// cache entry (DESIGN.md §8).
func (s *Server) handleDeviceCalibration(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/devices/")
	parts := strings.Split(rest, "/")
	if len(parts) != 2 || parts[0] == "" || parts[1] != "calibration" {
		s.writeError(w, errNotFound("unknown path %q (want /v1/devices/{name}/calibration)", r.URL.Path))
		return
	}
	name := parts[0]
	switch r.Method {
	case http.MethodGet:
		dev, err := s.registry.Resolve(name)
		if err != nil {
			s.writeError(w, deviceSvcError(err))
			return
		}
		cal, ok := s.registry.Calibration(dev.Name)
		if !ok {
			s.writeError(w, errNotFound("device %q has no calibration", dev.Name))
			return
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"info":     calibInfo(cal),
			"snapshot": cal.Snap,
		})
	case http.MethodPost, http.MethodPut:
		var snap calib.Snapshot
		if serr := decodeJSON(r, &snap); serr != nil {
			s.writeError(w, serr)
			return
		}
		cal, serr := s.registry.SetCalibration(name, &snap)
		if serr != nil {
			s.writeError(w, serr)
			return
		}
		writeJSON(w, http.StatusCreated, calibInfo(cal))
	default:
		s.writeError(w, errMethodNotAllowed("GET, POST, PUT", "/v1/devices/{name}/calibration"))
	}
}

// buildDevice validates a DeviceSpec into an arch.Device.
func buildDevice(spec *DeviceSpec) (*arch.Device, *svcError) {
	if spec.Name == "" {
		return nil, errBadRequest("missing device name")
	}
	dev, err := arch.NewDevice(spec.Name, spec.Qubits, spec.Edges)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	if spec.Preset != "" {
		d, ok := durationsByName(spec.Preset)
		if !ok {
			return nil, errBadRequest("unknown durations preset %q", spec.Preset)
		}
		dev.Durations = d
	}
	if spec.Durations != nil {
		dev.Durations = arch.Durations{
			Single:  spec.Durations.Single,
			Two:     spec.Durations.Two,
			Swap:    spec.Durations.Swap,
			Measure: spec.Durations.Measure,
		}
	}
	// Connectivity and duration validation happens in Registry.Add, the
	// single gate every registration path goes through.
	return dev, nil
}

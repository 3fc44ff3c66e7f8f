package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"codar/api"
	"codar/internal/jobs"
	"codar/internal/qasm"
	"codar/internal/schedule"
)

// streamQuery reports whether a request opted into the NDJSON streaming
// mode (?stream=1).
func streamQuery(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// handleMapStream implements POST /v1/map?stream=1: the mapped circuit is
// delivered as NDJSON records (api.StreamRecord) while the streaming
// remapper runs, instead of one JSON body after it finishes. The
// concatenation of the header record's qasm_header with every chunk's qasm
// is byte-identical to the mapped_qasm a batch request would return
// (handlers_stream_test pins it). Streamed responses bypass the result
// store entirely — no read, no write — so an aborted stream can never
// plant a partial cache entry; the X-Codard-Cache header says "bypass".
//
// Errors before the first record use the normal envelope and status;
// errors after the stream is committed — which happens once the circuit
// parsed and fits, before placement (cancel, deadline, any pipeline
// failure) — arrive as an in-band error record on the already-200
// response, with the usual 499/504 accounting in /v1/stats.
func (s *Server) handleMapStream(w http.ResponseWriter, r *http.Request) {
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
	serr = s.serveMapStream(ctx, w, &req)
	s.stats.requests.Add(1)
	s.stats.observe(time.Since(start))
	if serr != nil {
		s.writeError(w, serr)
	}
}

// serveMapStream runs one streamed mapping. A non-nil return means the
// stream was never committed (headers not sent) and the caller should
// answer with the normal error envelope; once records are flowing, every
// outcome — including failure — is settled in-band and nil is returned.
func (s *Server) serveMapStream(ctx context.Context, w http.ResponseWriter, req *MapRequest) *svcError {
	if req.Portfolio != nil {
		return errBadRequest("portfolio mode cannot stream; drop stream=1 or the portfolio block")
	}
	if req.Baseline != nil && *req.Baseline {
		return errBadRequest("baseline comparison needs the whole mapped circuit; drop baseline or stream=1")
	}
	off := false
	req.Baseline = &off
	if _, serr := normalizeRequest(req); serr != nil {
		return serr
	}
	dev, serr := s.resolveDevice(req)
	if serr != nil {
		return serr
	}
	cal, serr := s.calibrationFor(req, dev)
	if serr != nil {
		return serr
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		return errInternal("response writer cannot stream")
	}

	worker, release, serr := s.acquire(ctx)
	if serr != nil {
		return serr
	}
	defer release()

	c, resp, serr := s.prepare(ctx, worker, req, dev, cal)
	if serr != nil {
		return serr
	}

	// Commit to the stream before the pipeline runs; from here every
	// outcome, a failed placement included, travels in-band.
	reqID := w.Header().Get(api.HeaderRequestID)
	w.Header().Set("Content-Type", api.StreamContentType)
	w.Header().Set(cacheHeader, api.CacheBypass)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(rec *api.StreamRecord) error {
		if err := enc.Encode(rec); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}
	fail := func(serr *svcError) *svcError {
		// The status is already on the wire: account the outcome and
		// best-effort an in-band error record (a vanished client simply
		// never reads it). A fired request context keeps its transport
		// meaning (499/504) even when the error surfaced through a sink
		// write to a dead connection rather than the pipeline's own
		// cancellation check.
		if ctx.Err() != nil {
			serr = ctxSvcError(ctx)
		}
		s.stats.countError(serr.status, serr.code)
		emit(&api.StreamRecord{Type: api.StreamTypeError, Error: &api.ErrorBody{
			Code:      serr.envelopeCode(),
			Message:   serr.msg,
			RequestID: reqID,
		}})
		return nil
	}

	// Mapping keeps the input's classical register, so the whole QASM
	// preamble is known before the run starts.
	if err := emit(headerRecord(resp, qasm.Header(req.Algo, dev.NumQubits, c.NumClbits))); err != nil {
		return fail(mapSvcError(req.Algo, err))
	}

	seq := 0
	spec := specFor(ctx, req, cal)
	spec.Sink = schedule.FuncSink(func(chunk []schedule.ScheduledGate) error {
		rec := &api.StreamRecord{Type: api.StreamTypeChunk, Chunk: &api.StreamChunk{
			Seq:   seq,
			Gates: len(chunk),
			QASM:  string(worker.WriteChunk(chunk)),
		}}
		seq++
		return emit(rec)
	})
	res, err := worker.Run(c, dev, spec)
	if err != nil {
		return fail(compileSvcError(err))
	}
	summarize(resp, res)
	s.stats.mappings.Inc()
	emit(&api.StreamRecord{Type: api.StreamTypeResult, Result: resp})
	return nil
}

// headerRecord is a stream's first record: the response fields known before
// any gate is mapped, and the mapped program's QASM preamble.
func headerRecord(resp *MapResponse, qasmHeader string) *api.StreamRecord {
	return &api.StreamRecord{Type: api.StreamTypeHeader, Header: &api.StreamHeader{
		Device:      resp.Device,
		Algo:        resp.Algo,
		Durations:   resp.Durations,
		Seed:        resp.Seed,
		InputQubits: resp.InputQubits,
		InputGates:  resp.InputGates,
		QASMHeader:  qasmHeader,
	}}
}

// jobStreamChunkGates bounds the gate statements per chunk when a stored
// job result is replayed as a stream.
const jobStreamChunkGates = 4096

// writeJobResultStream replays a done job's stored MapResponse in the same
// NDJSON framing as /v1/map?stream=1, so async consumers share one decode
// path with the synchronous stream. The stored bytes came through the
// normal cached pipeline, so — unlike a live stream — the job's cache
// disposition is preserved in the X-Codard-Cache header.
func (s *Server) writeJobResultStream(w http.ResponseWriter, body []byte, snap jobs.Snapshot) {
	var resp MapResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		s.writeError(w, errInternal("stored job result does not decode: %v", err))
		return
	}
	header, gates := splitMappedQASM(resp.MappedQASM)
	resp.MappedQASM = ""
	w.Header().Set("Content-Type", api.StreamContentType)
	w.Header().Set(cacheHeader, snap.Cache)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.Encode(headerRecord(&resp, header))
	for seq := 0; len(gates) > 0; seq++ {
		n := jobStreamChunkGates
		if n > len(gates) {
			n = len(gates)
		}
		enc.Encode(&api.StreamRecord{Type: api.StreamTypeChunk, Chunk: &api.StreamChunk{
			Seq:   seq,
			Gates: n,
			QASM:  strings.Join(gates[:n], ""),
		}})
		gates = gates[n:]
	}
	enc.Encode(&api.StreamRecord{Type: api.StreamTypeResult, Result: &resp})
}

// splitMappedQASM splits a rendered circuit into its preamble (version,
// include, name comment, register declarations) and its gate statement
// lines, each line keeping its terminator.
func splitMappedQASM(src string) (header string, gates []string) {
	lines := strings.SplitAfter(src, "\n")
	k := 0
	for k < len(lines) {
		t := strings.TrimSpace(lines[k])
		if t == "" || strings.HasPrefix(t, "OPENQASM") || strings.HasPrefix(t, "include") ||
			strings.HasPrefix(t, "//") || strings.HasPrefix(t, "qreg") || strings.HasPrefix(t, "creg") {
			k++
			continue
		}
		break
	}
	header = strings.Join(lines[:k], "")
	for _, l := range lines[k:] {
		if strings.TrimSpace(l) != "" {
			gates = append(gates, l)
		}
	}
	return header, gates
}

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"codar/api"
	"codar/internal/jobs"
)

// jobStatusOf renders a job snapshot as the wire JobStatus.
func jobStatusOf(snap jobs.Snapshot) api.JobStatus {
	st := api.JobStatus{
		ID:       snap.ID,
		State:    string(snap.State),
		QueuePos: snap.Pos,
		Cache:    snap.Cache,
		Created:  snap.Created.UTC().Format(time.RFC3339Nano),
	}
	if !snap.Started.IsZero() {
		st.Started = snap.Started.UTC().Format(time.RFC3339Nano)
	}
	if !snap.Finished.IsZero() {
		st.Finished = snap.Finished.UTC().Format(time.RFC3339Nano)
	}
	if snap.State == jobs.StateDone {
		st.ResultURL = "/v1/jobs/" + snap.ID + "/result"
	}
	if f := snap.Failure; f != nil {
		st.Error = &api.ErrorBody{Code: f.Code, Message: f.Message}
	}
	return st
}

// jobSvcError maps job-store sentinels to envelope errors.
func jobSvcError(err error) *svcError {
	switch {
	case err == jobs.ErrNotFound:
		return &svcError{status: http.StatusNotFound, code: api.CodeJobNotFound, msg: "no such job"}
	case err == jobs.ErrExpired:
		return &svcError{status: http.StatusGone, code: api.CodeJobExpired, msg: "job result expired; resubmit the request"}
	case err == jobs.ErrNotDone:
		return &svcError{status: http.StatusConflict, code: api.CodeJobNotDone, msg: "job has no result (not done)"}
	case err == jobs.ErrFull:
		return errBusy("job store full (%d resident jobs)", jobs.DefaultCapacity)
	case err == jobs.ErrClosed:
		return errBusy("job store shutting down")
	}
	return errInternal("job store: %v", err)
}

// handleJobs implements POST /v1/jobs: the async twin of POST /v1/map. The
// body is the same MapRequest; the response is 202 with the job's initial
// status and a Location header. Validation that needs no worker slot —
// malformed JSON, bad enums, unknown devices, missing calibration — fails
// synchronously with the same codes as /v1/map, so the queue never holds
// jobs that were doomed at submit time.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, errMethodNotAllowed(http.MethodPost, "/v1/jobs"))
		return
	}
	var req MapRequest
	if serr := decodeJSON(r, &req); serr != nil {
		s.writeError(w, serr)
		return
	}
	if serr := s.checkQuota(r, 1); serr != nil {
		s.writeError(w, serr)
		return
	}
	if _, serr := normalizeRequest(&req); serr != nil {
		s.writeError(w, serr)
		return
	}
	dev, serr := s.resolveDevice(&req)
	if serr != nil {
		s.writeError(w, serr)
		return
	}
	if _, serr := s.calibrationFor(&req, dev); serr != nil {
		s.writeError(w, serr)
		return
	}
	// The job runs under the server's default mapping deadline (the
	// X-Codard-Timeout header can only tighten it, clamped as on /v1/map),
	// parented on the store's BaseCtx — not on r.Context(): the submitting
	// connection closing must not abort an accepted job.
	d := s.cfg.requestTimeout()
	if h := r.Header.Get(timeoutHeader); h != "" {
		parsed, err := time.ParseDuration(h)
		if err != nil || parsed <= 0 {
			s.writeError(w, errBadRequest("bad %s %q: want a positive Go duration like 500ms or 30s", timeoutHeader, h))
			return
		}
		if max := s.cfg.maxTimeout(); parsed > max {
			parsed = max
		}
		d = parsed
	}
	snap, err := s.jobs.Submit(s.jobRunner(&req, d))
	if err != nil {
		s.writeError(w, jobSvcError(err))
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	writeJSON(w, http.StatusAccepted, jobStatusOf(snap))
}

// jobRunner builds the store Runner for one accepted request: the same
// mapBytes pipeline as the synchronous path (so results are byte-identical
// and land in the same result store under the same key), admitted through
// acquireJob, bounded by deadline d, with panics converted to this job's
// 500 instead of taking down the process — job goroutines run outside the
// ServeHTTP recover boundary.
func (s *Server) jobRunner(req *MapRequest, d time.Duration) jobs.Runner {
	return func(ctx context.Context) (body []byte, cache string, failure *jobs.Failure) {
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.panics.Inc()
				s.logger.Printf("codard: panic mapping job: %v\n%s", rec, debug.Stack())
				body, cache = nil, ""
				failure = &jobs.Failure{Status: http.StatusInternalServerError, Code: api.CodeInternal, Message: "internal error"}
			}
		}()
		runCtx := ctx
		if d > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		start := time.Now()
		bytes, disposition, serr := s.mapBytesAdmit(runCtx, req, s.acquireJob)
		s.stats.requests.Add(1)
		s.stats.observe(time.Since(start))
		if serr != nil {
			s.stats.countError(serr.status, serr.code)
			return nil, "", &jobs.Failure{Status: serr.status, Code: serr.envelopeCode(), Message: serr.msg}
		}
		return bytes, disposition, nil
	}
}

// handleJobByID dispatches the /v1/jobs/{id}[/result|/events] sub-routes.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	parts := strings.Split(rest, "/")
	switch {
	case len(parts) == 1 && parts[0] != "":
		s.handleJob(w, r, parts[0])
	case len(parts) == 2 && parts[1] == "result":
		s.handleJobResult(w, r, parts[0])
	case len(parts) == 2 && parts[1] == "events":
		s.handleJobEvents(w, r, parts[0])
	default:
		s.writeError(w, errNotFound("unknown path %q (want /v1/jobs/{id}, .../result or .../events)", r.URL.Path))
	}
}

// handleJob implements GET (status) and DELETE (cancel) /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodGet:
		snap, err := s.jobs.Get(id)
		if err != nil {
			s.writeError(w, jobSvcError(err))
			return
		}
		writeJSON(w, http.StatusOK, jobStatusOf(snap))
	case http.MethodDelete:
		snap, err := s.jobs.Cancel(id)
		if err != nil {
			s.writeError(w, jobSvcError(err))
			return
		}
		writeJSON(w, http.StatusOK, jobStatusOf(snap))
	default:
		s.writeError(w, errMethodNotAllowed("GET, DELETE", "/v1/jobs/{id}"))
	}
}

// handleJobResult implements GET /v1/jobs/{id}/result: a done job answers
// the exact bytes the synchronous path would have written (they are the
// same bytes — one pipeline, one cache), with the X-Codard-Cache header
// carrying the job's disposition. A failed job replays its stored failure
// at the original status; queued/running answers 409 job_not_done with a
// Retry-After hint; a TTL-reaped result answers 410 job_expired.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		s.writeError(w, errMethodNotAllowed(http.MethodGet, "/v1/jobs/{id}/result"))
		return
	}
	body, snap, err := s.jobs.Result(id)
	if err != nil {
		if f, ok := err.(*jobs.Failure); ok {
			status := f.Status
			if status == 0 {
				status = http.StatusInternalServerError
			}
			s.writeError(w, &svcError{status: status, code: f.Code, msg: f.Message})
			return
		}
		serr := jobSvcError(err)
		if serr.code == api.CodeJobNotDone {
			serr.retryAfter = 1
		}
		s.writeError(w, serr)
		return
	}
	if streamQuery(r) {
		s.writeJobResultStream(w, body, snap)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cacheHeader, snap.Cache)
	w.Write(body)
}

// handleJobEvents implements GET /v1/jobs/{id}/events: a Server-Sent
// Events stream of the job's status. The current state arrives as the
// first event, each transition follows, and the stream ends after the
// terminal state (clients needing the result then fetch .../result). The
// client disconnecting or the server draining ends the stream early.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		s.writeError(w, errMethodNotAllowed(http.MethodGet, "/v1/jobs/{id}/events"))
		return
	}
	ch, unsub, err := s.jobs.Subscribe(id)
	if err != nil {
		s.writeError(w, jobSvcError(err))
		return
	}
	defer unsub()
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, errInternal("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		select {
		case snap, open := <-ch:
			if !open {
				return
			}
			st := jobStatusOf(snap)
			body, err := json.Marshal(st)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: status\ndata: %s\n\n", body)
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}

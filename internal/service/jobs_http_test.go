package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"codar/api"
	"codar/internal/chaos"
	"codar/internal/testutil"
)

// pollJob polls the status route until the job reaches state want.
func pollJob(t *testing.T, s *Server, id string, want string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var st api.JobStatus
	for time.Now().Before(deadline) {
		w := do(t, s, http.MethodGet, "/v1/jobs/"+id, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: %d %s", id, w.Code, w.Body.String())
		}
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if st.State == want {
			return st
		}
		if stateTerminal(st.State) {
			t.Fatalf("job %s settled in %s, want %s (error: %+v)", id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
	return st
}

func stateTerminal(s string) bool {
	switch s {
	case api.JobDone, api.JobFailed, api.JobCanceled, api.JobExpired:
		return true
	}
	return false
}

// submitJob posts one map request to /v1/jobs and returns the 202 status.
func submitJob(t *testing.T, s *Server, req api.MapRequest) api.JobStatus {
	t.Helper()
	w := do(t, s, http.MethodPost, "/v1/jobs", req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d %s", w.Code, w.Body.String())
	}
	var st api.JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location %q, want /v1/jobs/%s", loc, st.ID)
	}
	return st
}

func TestJobLifecycleMatchesSyncBytes(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 2})

	req := api.MapRequest{QASM: ghzQASM, Arch: "tokyo"}
	st := submitJob(t, s, req)
	if st.State != api.JobQueued && st.State != api.JobRunning {
		t.Fatalf("initial state %s", st.State)
	}
	final := pollJob(t, s, st.ID, api.JobDone)
	if final.ResultURL != "/v1/jobs/"+st.ID+"/result" {
		t.Fatalf("result_url %q", final.ResultURL)
	}
	if final.Cache != "miss" {
		t.Fatalf("first job cache disposition %q, want miss", final.Cache)
	}

	w := do(t, s, http.MethodGet, final.ResultURL, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET result: %d %s", w.Code, w.Body.String())
	}
	jobBody := w.Body.String()
	if got := w.Header().Get(cacheHeader); got != "miss" {
		t.Fatalf("result cache header %q, want miss", got)
	}

	// The synchronous twin must be a cache hit with byte-identical body:
	// one pipeline, one store, one key.
	ws := do(t, s, http.MethodPost, "/v1/map", api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	if ws.Code != http.StatusOK {
		t.Fatalf("POST /v1/map: %d %s", ws.Code, ws.Body.String())
	}
	if got := ws.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("sync twin disposition %q, want hit (same cache key)", got)
	}
	if ws.Body.String() != jobBody {
		t.Fatalf("sync body differs from job result body:\n%s\nvs\n%s", ws.Body.String(), jobBody)
	}

	// A repeated job for the same spec reports a hit.
	st2 := submitJob(t, s, req)
	final2 := pollJob(t, s, st2.ID, api.JobDone)
	if final2.Cache != "hit" {
		t.Fatalf("repeat job disposition %q, want hit", final2.Cache)
	}
}

func TestJobSubmitValidationFailsFast(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  interface{}
		code int
		ec   string
	}{
		{"missing qasm", api.MapRequest{Arch: "tokyo"}, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown device", api.MapRequest{QASM: ghzQASM, Arch: "nope"}, http.StatusNotFound, api.CodeUnknownDevice},
		{"bad algo", api.MapRequest{QASM: ghzQASM, Arch: "tokyo", Algo: "zap"}, http.StatusBadRequest, api.CodeBadRequest},
		{"uncalibrated", api.MapRequest{QASM: ghzQASM, Arch: "tokyo", Calibrated: true}, http.StatusBadRequest, api.CodeBadRequest},
		{"bad json", "{", http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		w := do(t, s, http.MethodPost, "/v1/jobs", tc.req)
		if w.Code != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.code, w.Body.String())
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: decode envelope: %v", tc.name, err)
		}
		if env.Error.Code != tc.ec {
			t.Fatalf("%s: code %q, want %q", tc.name, env.Error.Code, tc.ec)
		}
	}
	// Bad QASM is only discovered at mapping time: the job is accepted and
	// fails, and the result replays the 400 bad_qasm envelope.
	st := submitJob(t, s, api.MapRequest{QASM: "OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n", Arch: "tokyo"})
	final := pollJob(t, s, st.ID, api.JobFailed)
	if final.Error == nil || final.Error.Code != api.CodeBadQASM {
		t.Fatalf("failed job error %+v, want bad_qasm", final.Error)
	}
	w := do(t, s, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("failed job result status %d, want 400", w.Code)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != api.CodeBadQASM {
		t.Fatalf("failed job result envelope %s (err %v)", w.Body.String(), err)
	}
}

func TestJobErrorsAndSentinocodes(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})

	w := do(t, s, http.MethodGet, "/v1/jobs/deadbeefdeadbeef", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", w.Code)
	}
	var env api.ErrorEnvelope
	json.Unmarshal(w.Body.Bytes(), &env)
	if env.Error.Code != api.CodeJobNotFound {
		t.Fatalf("unknown job code %q, want job_not_found", env.Error.Code)
	}

	w = do(t, s, http.MethodPut, "/v1/jobs", nil)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/jobs: %d", w.Code)
	}
	w = do(t, s, http.MethodGet, "/v1/jobs/", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/: %d", w.Code)
	}
}

func TestJobNotDoneAndCancel(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	// Workers: 1, held by a first job the fault injector slows down, keeps
	// the second queued by construction, so its not-done and cancel paths
	// are observable without racing completion.
	s := newTestServer(t, Config{Workers: 1, Chaos: &chaos.Injector{SlowMapper: 5 * time.Second}})

	blocker := submitJob(t, s, api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	queued := submitJob(t, s, api.MapRequest{QASM: ghzQASM, Arch: "melbourne"})

	w := do(t, s, http.MethodGet, "/v1/jobs/"+queued.ID+"/result", nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("result of queued job: %d, want 409", w.Code)
	}
	var env api.ErrorEnvelope
	json.Unmarshal(w.Body.Bytes(), &env)
	if env.Error.Code != api.CodeJobNotDone {
		t.Fatalf("queued result code %q, want job_not_done", env.Error.Code)
	}
	if w.Header().Get(api.HeaderRetryAfter) == "" {
		t.Fatal("409 job_not_done without Retry-After")
	}

	// DELETE the queued job: canceled without ever running.
	w = do(t, s, http.MethodDelete, "/v1/jobs/"+queued.ID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE queued job: %d %s", w.Code, w.Body.String())
	}
	var st api.JobStatus
	json.Unmarshal(w.Body.Bytes(), &st)
	if st.State != api.JobCanceled {
		t.Fatalf("canceled job state %s", st.State)
	}

	// Cancel the blocker too: the injected delay honors the job's context,
	// so the worker frees at once and no job goroutine outlives the test.
	if w := do(t, s, http.MethodDelete, "/v1/jobs/"+blocker.ID, nil); w.Code != http.StatusOK {
		t.Fatalf("DELETE running job: %d %s", w.Code, w.Body.String())
	}
	pollJob(t, s, blocker.ID, api.JobCanceled)
}

func TestJobCapacityRejects(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1, JobsCapacity: 2})

	// Two heavy jobs fill the store (one running, one queued)...
	heavy := api.MapRequest{QASM: ghzQASM, Arch: "sycamore", Portfolio: &api.PortfolioSpec{Seeds: []int64{1, 2, 3}}}
	a := submitJob(t, s, heavy)
	b := submitJob(t, s, api.MapRequest{QASM: ghzQASM, Arch: "tokyo", Portfolio: &api.PortfolioSpec{Seeds: []int64{1, 2, 3}}})
	// ...and the third answers 429 queue_full.
	w := do(t, s, http.MethodPost, "/v1/jobs", api.MapRequest{QASM: ghzQASM, Arch: "melbourne"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("submit beyond capacity: %d %s", w.Code, w.Body.String())
	}
	var env api.ErrorEnvelope
	json.Unmarshal(w.Body.Bytes(), &env)
	if env.Error.Code != api.CodeQueueFull {
		t.Fatalf("over-capacity code %q, want queue_full", env.Error.Code)
	}
	pollJob(t, s, a.ID, api.JobDone)
	pollJob(t, s, b.ID, api.JobDone)
}

func TestJobEventsStreamsToTerminal(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	st := submitJob(t, s, api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})

	// Stream over a real connection: SSE needs incremental reads.
	hs := httptest.NewServer(s)
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var states []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.JobStatus
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("decode event %q: %v", line, err)
		}
		if ev.ID != st.ID {
			t.Fatalf("event for job %s, want %s", ev.ID, st.ID)
		}
		states = append(states, ev.State)
	}
	if len(states) == 0 || states[len(states)-1] != api.JobDone {
		t.Fatalf("streamed states %v, want trailing done", states)
	}
	// Unknown job IDs 404 instead of opening a stream.
	wr := do(t, s, http.MethodGet, "/v1/jobs/ffffffffffffffff/events", nil)
	if wr.Code != http.StatusNotFound {
		t.Fatalf("events for unknown job: %d", wr.Code)
	}
}

func TestJobExpiryServes410(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1, JobsTTL: 50 * time.Millisecond})
	st := submitJob(t, s, api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	pollJob(t, s, st.ID, api.JobDone)
	time.Sleep(80 * time.Millisecond)
	w := do(t, s, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	if w.Code != http.StatusGone {
		t.Fatalf("expired result: %d %s", w.Code, w.Body.String())
	}
	var env api.ErrorEnvelope
	json.Unmarshal(w.Body.Bytes(), &env)
	if env.Error.Code != api.CodeJobExpired {
		t.Fatalf("expired code %q, want job_expired", env.Error.Code)
	}
}

func TestJobStatsAndMetricsExposed(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	st := submitJob(t, s, api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	pollJob(t, s, st.ID, api.JobDone)

	w := do(t, s, http.MethodGet, "/v1/stats", nil)
	var stats api.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Jobs == nil {
		t.Fatal("stats missing jobs block")
	}
	if stats.Jobs.Submitted != 1 || stats.Jobs.Done != 1 {
		t.Fatalf("jobs stats %+v, want submitted=1 done=1", stats.Jobs)
	}
	wm := do(t, s, http.MethodGet, "/metrics", nil)
	if !strings.Contains(wm.Body.String(), "codard_jobs_submitted_total 1") {
		t.Fatal("metrics missing codard_jobs_submitted_total")
	}

	// A draining server settles its jobs and closes the store.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.Drain(ctx)
	w = do(t, s, http.MethodPost, "/v1/jobs", api.MapRequest{QASM: ghzQASM, Arch: "melbourne"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("submit after drain: %d", w.Code)
	}
}

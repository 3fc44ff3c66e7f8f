package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"codar/api"
	"codar/internal/service"
	"codar/internal/testutil"
)

const ghzQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
h q[0];
cx q[0],q[1];
cx q[0],q[2];
cx q[0],q[3];
cx q[0],q[4];
t q[2];
cx q[3],q[1];
`

// newFleet boots n live backend codards plus a router over them. The
// returned cleanup is registered automatically.
func newFleet(t *testing.T, n int, cfg Config) (*Router, []*httptest.Server) {
	t.Helper()
	backends := make([]*httptest.Server, n)
	for i := range backends {
		backends[i] = httptest.NewServer(service.New(service.Config{Workers: 2}))
		t.Cleanup(backends[i].Close)
		cfg.Backends = append(cfg.Backends, backends[i].URL)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	if cfg.ErrorLog == nil {
		cfg.ErrorLog = log.New(io.Discard, "", 0)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt, backends
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(enc))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestRendezvousStableAndSpread(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, _ := newFleet(t, 3, Config{})
	owners := make(map[string]string)
	spread := make(map[string]int)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("circuit-%d", i)
		ranked := rt.rank(key)
		owners[key] = ranked[0].url
		spread[ranked[0].url]++
		// Ranking must be deterministic.
		if again := rt.rank(key); again[0].url != ranked[0].url {
			t.Fatalf("key %q owner flapped: %s then %s", key, ranked[0].url, again[0].url)
		}
	}
	if len(spread) != 3 {
		t.Fatalf("64 keys landed on %d of 3 backends: %v", len(spread), spread)
	}
	// Ejecting one backend must not move keys it didn't own.
	ejected := rt.backends[0]
	ejected.healthy.Store(false)
	for key, owner := range owners {
		ranked := rt.rank(key)
		var newOwner *backend
		for _, b := range ranked {
			if b.healthy.Load() {
				newOwner = b
				break
			}
		}
		if owner != ejected.url && newOwner.url != owner {
			t.Fatalf("key %q moved from surviving backend %s to %s", key, owner, newOwner.url)
		}
	}
}

func TestRouterProxiesMapAndCaches(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, _ := newFleet(t, 2, Config{})
	req := api.MapRequest{QASM: ghzQASM, Arch: "tokyo"}

	w1 := postJSON(t, rt, "/v1/map", req)
	if w1.Code != http.StatusOK {
		t.Fatalf("first map: %d %s", w1.Code, w1.Body.String())
	}
	if disp := w1.Header().Get(api.HeaderCache); disp != "miss" {
		t.Fatalf("first map disposition %q, want miss", disp)
	}
	// Same circuit → same backend → cache hit with byte-identical body.
	w2 := postJSON(t, rt, "/v1/map", req)
	if w2.Code != http.StatusOK {
		t.Fatalf("second map: %d", w2.Code)
	}
	if disp := w2.Header().Get(api.HeaderCache); disp != "hit" {
		t.Fatalf("second map disposition %q, want hit (consistent routing)", disp)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cached body differs from computed body through the router")
	}
	// Error envelopes pass through untouched.
	we := postJSON(t, rt, "/v1/map", api.MapRequest{QASM: ghzQASM, Arch: "no-such-device"})
	if we.Code != http.StatusNotFound {
		t.Fatalf("unknown device through router: %d", we.Code)
	}
	var env api.ErrorEnvelope
	json.Unmarshal(we.Body.Bytes(), &env)
	if env.Error.Code != api.CodeUnknownDevice {
		t.Fatalf("proxied error code %q", env.Error.Code)
	}
}

func TestRouterJobAffinity(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, _ := newFleet(t, 3, Config{})
	w := postJSON(t, rt, "/v1/jobs", api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	var st api.JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	tag, _, found := strings.Cut(st.ID, "-")
	if !found || rt.byTag[tag] == nil {
		t.Fatalf("job ID %q carries no backend tag", st.ID)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location %q, want tagged /v1/jobs/%s", loc, st.ID)
	}

	// Poll through the router until done; the tagged handle must resolve.
	deadline := time.Now().Add(10 * time.Second)
	for {
		wst := get(t, rt, "/v1/jobs/"+st.ID)
		if wst.Code != http.StatusOK {
			t.Fatalf("status: %d %s", wst.Code, wst.Body.String())
		}
		json.Unmarshal(wst.Body.Bytes(), &st)
		if st.State == api.JobDone {
			break
		}
		if st.State == api.JobFailed || time.Now().After(deadline) {
			t.Fatalf("job state %s (error %+v)", st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.ResultURL != "/v1/jobs/"+st.ID+"/result" {
		t.Fatalf("result_url %q not re-tagged", st.ResultURL)
	}
	wr := get(t, rt, st.ResultURL)
	if wr.Code != http.StatusOK {
		t.Fatalf("result: %d %s", wr.Code, wr.Body.String())
	}
	var resp api.MapResponse
	if err := json.Unmarshal(wr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if resp.MappedQASM == "" {
		t.Fatal("empty mapped qasm through router")
	}
	// Untagged and unknown-tag IDs answer 404 job_not_found.
	for _, id := range []string{"deadbeefdeadbeef", "00000000-deadbeefdeadbeef"} {
		wna := get(t, rt, "/v1/jobs/"+id)
		if wna.Code != http.StatusNotFound {
			t.Fatalf("job %q: %d, want 404", id, wna.Code)
		}
	}
}

func TestRouterJobEventsStream(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, _ := newFleet(t, 2, Config{})
	front := httptest.NewServer(rt)
	defer front.Close()

	w := postJSON(t, rt, "/v1/jobs", api.MapRequest{QASM: ghzQASM, Arch: "melbourne"})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	var st api.JobStatus
	json.Unmarshal(w.Body.Bytes(), &st)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/v1/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	var last api.JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("decode event %q: %v", line, err)
		}
		if last.ID != st.ID {
			t.Fatalf("event job ID %q not re-tagged (want %q)", last.ID, st.ID)
		}
	}
	if last.State != api.JobDone {
		t.Fatalf("final streamed state %s, want done", last.State)
	}
}

func TestRouterBatchSplitsAndReassembles(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, _ := newFleet(t, 3, Config{})
	var reqs []api.MapRequest
	archs := []string{"tokyo", "melbourne", "q5"}
	for i := 0; i < 9; i++ {
		// Vary the circuit so items spread across backends.
		qasm := strings.Replace(ghzQASM, "t q[2];", fmt.Sprintf("t q[%d];", i%5), 1)
		reqs = append(reqs, api.MapRequest{QASM: qasm, Arch: archs[i%3]})
	}
	w := postJSON(t, rt, "/v1/map/batch", api.BatchRequest{Requests: reqs})
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Items) != len(reqs) {
		t.Fatalf("batch returned %d items for %d requests", len(resp.Items), len(reqs))
	}
	for i, item := range resp.Items {
		if item.Error != nil {
			t.Fatalf("item %d failed: %+v", i, item.Error)
		}
		var mr api.MapResponse
		if err := json.Unmarshal(item.Result, &mr); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if mr.Device == "" {
			t.Fatalf("item %d empty device", i)
		}
	}
	// Items must return in request order: device of item i matches arch i
	// (modulo alias resolution, tokyo resolves to ibm-q20-tokyo).
	var first api.MapResponse
	json.Unmarshal(resp.Items[1].Result, &first)
	if !strings.Contains(first.Device, "melbourne") {
		t.Fatalf("item 1 mapped on %q, want melbourne (order broken)", first.Device)
	}
}

func TestRouterEjectsAndReadmits(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, backends := newFleet(t, 2, Config{HealthInterval: 10 * time.Millisecond, EjectAfter: 2, ReadmitAfter: 2})

	waitHealthy := func(want int) {
		deadline := time.Now().Add(5 * time.Second)
		for rt.healthyCount() != want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := rt.healthyCount(); got != want {
			t.Fatalf("healthy backends %d, want %d", got, want)
		}
	}
	waitHealthy(2)

	// Kill backend 0 mid-fleet: the prober must eject it.
	dead := backends[0]
	deadURL := dead.URL
	dead.CloseClientConnections()
	dead.Close()
	waitHealthy(1)

	// All traffic — including keys the dead backend owned — now lands on
	// the survivor.
	for i := 0; i < 6; i++ {
		qasm := strings.Replace(ghzQASM, "t q[2];", fmt.Sprintf("t q[%d];", i%5), 1)
		w := postJSON(t, rt, "/v1/map", api.MapRequest{QASM: qasm, Arch: "tokyo"})
		if w.Code != http.StatusOK {
			t.Fatalf("map after ejection: %d %s", w.Code, w.Body.String())
		}
	}
	st := rt.Stats()
	var ejected *api.BackendStats
	for i := range st.Backends {
		if st.Backends[i].URL == deadURL {
			ejected = &st.Backends[i]
		}
	}
	if ejected == nil || ejected.Healthy || ejected.Ejections == 0 {
		t.Fatalf("dead backend stats %+v, want unhealthy with ejections", ejected)
	}
	// /healthz stays ok while one backend survives.
	if w := get(t, rt, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("router healthz with 1 survivor: %d", w.Code)
	}
}

func TestRouterNoBackendsIs503(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, backends := newFleet(t, 1, Config{HealthInterval: 10 * time.Millisecond, EjectAfter: 1})
	backends[0].CloseClientConnections()
	backends[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for rt.healthyCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	w := postJSON(t, rt, "/v1/map", api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("map with no backends: %d", w.Code)
	}
	var env api.ErrorEnvelope
	json.Unmarshal(w.Body.Bytes(), &env)
	if env.Error.Code != api.CodeBackendUnavailable {
		t.Fatalf("code %q, want backend_unavailable", env.Error.Code)
	}
	if w.Header().Get(api.HeaderRetryAfter) == "" {
		t.Fatal("503 without Retry-After")
	}
	if wh := get(t, rt, "/healthz"); wh.Code != http.StatusServiceUnavailable {
		t.Fatalf("router healthz with no backends: %d", wh.Code)
	}
}

// TestRouterUnknownPathsNotFoundEnvelope: a path no route claims answers
// 404 with the not_found envelope, not the mux's plain-text page.
func TestRouterUnknownPathsNotFoundEnvelope(t *testing.T) {
	rt, _ := newFleet(t, 1, Config{})
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/"},
		{http.MethodPost, "/v2/map"},
	} {
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(c.method, c.path, nil))
		var env api.ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); w.Code != http.StatusNotFound || err != nil ||
			env.Error.Code != api.CodeNotFound {
			t.Errorf("%s %s: %d %q, want 404 and a not_found envelope", c.method, c.path, w.Code, w.Body.String())
		}
	}
}

func TestRouterDeviceWritesFanOut(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, backends := newFleet(t, 2, Config{})
	spec := api.DeviceSpec{Name: "fleetdev", Qubits: 3, Edges: [][2]int{{0, 1}, {1, 2}}}
	w := postJSON(t, rt, "/v1/devices", spec)
	if w.Code != http.StatusCreated {
		t.Fatalf("device upload through router: %d %s", w.Code, w.Body.String())
	}
	// Every backend must know the device — routed requests can land anywhere.
	for i, b := range backends {
		resp, err := http.Get(b.URL + "/v1/devices")
		if err != nil {
			t.Fatalf("backend %d devices: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "fleetdev") {
			t.Fatalf("backend %d missing fanned-out device: %s", i, body)
		}
	}
}

func TestRouterStatsAndMetrics(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, _ := newFleet(t, 2, Config{})
	postJSON(t, rt, "/v1/map", api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})

	w := get(t, rt, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: %d", w.Code)
	}
	var st api.RouterStatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if !st.Router || len(st.Backends) != 2 {
		t.Fatalf("stats %+v, want router=true with 2 backends", st)
	}
	wm := get(t, rt, "/metrics")
	for _, want := range []string{"codard_router_requests_total", "codard_router_backend_healthy", "codard_router_backends_healthy 2"} {
		if !strings.Contains(wm.Body.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, wm.Body.String())
		}
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"codar/api"
	"codar/internal/qasm"
	"codar/internal/workloads"
)

// ghzQASM is a small routing-forcing circuit: the CX star from qubit 0
// needs SWAPs on any sparsely coupled device.
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

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return New(cfg)
}

// do runs one request through the handler stack and returns the recorder.
func do(t *testing.T, s *Server, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		enc, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(enc)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// doWithHeaders is do with extra request headers (e.g. X-Codard-Client).
func doWithHeaders(t *testing.T, s *Server, method, path string, body interface{}, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(enc)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestMapHandlerTable(t *testing.T) {
	s := newTestServer(t, Config{})
	tests := []struct {
		name       string
		method     string
		body       interface{}
		wantStatus int
	}{
		{"codar ok", http.MethodPost, MapRequest{QASM: ghzQASM, Arch: "tokyo"}, http.StatusOK},
		{"sabre ok", http.MethodPost, MapRequest{QASM: ghzQASM, Arch: "melbourne", Algo: "sabre"}, http.StatusOK},
		{"durations preset ok", http.MethodPost, MapRequest{QASM: ghzQASM, Arch: "tokyo", Durations: "iontrap"}, http.StatusOK},
		{"bad json", http.MethodPost, `{"qasm": `, http.StatusBadRequest},
		{"missing qasm", http.MethodPost, MapRequest{Arch: "tokyo"}, http.StatusBadRequest},
		{"missing arch", http.MethodPost, MapRequest{QASM: ghzQASM}, http.StatusBadRequest},
		{"bad qasm", http.MethodPost, MapRequest{QASM: "OPENQASM 2.0; junk", Arch: "tokyo"}, http.StatusBadRequest},
		{"unknown arch", http.MethodPost, MapRequest{QASM: ghzQASM, Arch: "nonexistent-device"}, http.StatusNotFound},
		{"unknown algo", http.MethodPost, MapRequest{QASM: ghzQASM, Arch: "tokyo", Algo: "astar"}, http.StatusBadRequest},
		{"unknown durations", http.MethodPost, MapRequest{QASM: ghzQASM, Arch: "tokyo", Durations: "photonic"}, http.StatusBadRequest},
		{"circuit too wide", http.MethodPost, MapRequest{QASM: ghzQASM, Arch: "ring3"}, http.StatusBadRequest},
		{"get not allowed", http.MethodGet, nil, http.StatusMethodNotAllowed},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, tc.method, "/v1/map", tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, tc.wantStatus, w.Body.String())
			}
			if tc.wantStatus != http.StatusOK {
				var env ErrorEnvelope
				if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
					t.Fatalf("error body not in envelope shape: %s", w.Body.String())
				}
				return
			}
			var resp MapResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("decode response: %v", err)
			}
			if resp.MappedQASM == "" {
				t.Fatal("empty mapped_qasm")
			}
			if _, err := qasm.Parse(resp.MappedQASM); err != nil {
				t.Fatalf("mapped qasm does not re-parse: %v", err)
			}
			if resp.WeightedDepth <= 0 {
				t.Fatalf("weighted_depth = %d, want > 0", resp.WeightedDepth)
			}
		})
	}
}

func TestMapBaselineSpeedup(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodPost, "/v1/map", MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.BaselineWeightedDepth <= 0 || resp.Speedup <= 0 {
		t.Fatalf("codar default should include a SABRE baseline, got %+v", resp)
	}
	// SABRE compared against itself is not a comparison: baseline defaults off.
	w = do(t, s, http.MethodPost, "/v1/map", MapRequest{QASM: ghzQASM, Arch: "tokyo", Algo: "sabre"})
	var sresp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sresp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sresp.Speedup != 0 || sresp.BaselineWeightedDepth != 0 {
		t.Fatalf("sabre response should omit the baseline block, got %+v", sresp)
	}
	// An explicit baseline:true on sabre is forced off, so it shares the
	// plain-sabre cache entry instead of duplicating identical bytes.
	on := true
	w = do(t, s, http.MethodPost, "/v1/map", MapRequest{QASM: ghzQASM, Arch: "tokyo", Algo: "sabre", Baseline: &on})
	if got := w.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("sabre baseline:true cache header = %q, want hit (forced-off baseline must share the key)", got)
	}
}

func TestMapBodyTooLarge(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := MapRequest{QASM: ghzQASM + strings.Repeat("// padding\n", 200), Arch: "tokyo"}
	w := do(t, s, http.MethodPost, "/v1/map", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body: %s", w.Code, w.Body.String())
	}
}

func TestMapCacheHitIdenticalBytes(t *testing.T) {
	s := newTestServer(t, Config{})
	req := MapRequest{QASM: ghzQASM, Arch: "tokyo", Seed: 7}
	first := do(t, s, http.MethodPost, "/v1/map", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first request failed: %s", first.Body.String())
	}
	if got := first.Header().Get(cacheHeader); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	second := do(t, s, http.MethodPost, "/v1/map", req)
	if got := second.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cache hit returned different bytes than the original response")
	}
	// Aliases of the same builtin share one entry.
	third := do(t, s, http.MethodPost, "/v1/map", MapRequest{QASM: ghzQASM, Arch: "q20", Seed: 7})
	if got := third.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("alias request cache header = %q, want hit", got)
	}
	// /v1/stats reflects the hits.
	var stats StatsResponse
	sw := do(t, s, http.MethodGet, "/v1/stats", nil)
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.CacheHits != 2 || stats.CacheMisses != 1 {
		t.Fatalf("stats hits/misses = %d/%d, want 2/1", stats.CacheHits, stats.CacheMisses)
	}
	if stats.CacheHitRate <= 0.6 {
		t.Fatalf("hit rate = %v, want 2/3", stats.CacheHitRate)
	}
}

// TestCacheKeySeedAndDurations pins the DESIGN.md §7 invariant: seed and
// durations both change the mapped output, so each must key the cache.
func TestCacheKeySeedAndDurations(t *testing.T) {
	s := newTestServer(t, Config{})
	base := MapRequest{QASM: ghzQASM, Arch: "tokyo", Seed: 1}
	if w := do(t, s, http.MethodPost, "/v1/map", base); w.Header().Get(cacheHeader) != "miss" {
		t.Fatal("priming request should miss")
	}
	variants := []MapRequest{
		{QASM: ghzQASM, Arch: "tokyo", Seed: 2},
		{QASM: ghzQASM, Arch: "tokyo", Seed: 1, Durations: "iontrap"},
		{QASM: ghzQASM, Arch: "tokyo", Seed: 1, Algo: "sabre"},
	}
	for _, v := range variants {
		w := do(t, s, http.MethodPost, "/v1/map", v)
		if w.Code != http.StatusOK {
			t.Fatalf("variant %+v failed: %s", v, w.Body.String())
		}
		if got := w.Header().Get(cacheHeader); got != "miss" {
			t.Fatalf("variant %+v cache header = %q, want miss (key must include seed/durations/algo)", v, got)
		}
	}
}

func TestDevicesEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := DeviceSpec{
		Name:   "lab-hexagon",
		Qubits: 6,
		Edges:  [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}},
	}
	if w := do(t, s, http.MethodPost, "/v1/devices", spec); w.Code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", w.Code, w.Body.String())
	}
	// Listed alongside the builtins.
	var listing struct {
		Devices []DeviceInfo `json:"devices"`
	}
	lw := do(t, s, http.MethodGet, "/v1/devices", nil)
	if err := json.Unmarshal(lw.Body.Bytes(), &listing); err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	found := false
	for _, d := range listing.Devices {
		if d.Name == "lab-hexagon" {
			found = true
			if d.Builtin || d.Qubits != 6 || d.Couplers != 6 {
				t.Fatalf("bad listing row: %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("uploaded device missing from listing")
	}
	// Mappable.
	if w := do(t, s, http.MethodPost, "/v1/map", MapRequest{QASM: ghzQASM, Arch: "lab-hexagon"}); w.Code != http.StatusOK {
		t.Fatalf("map on uploaded device: status %d: %s", w.Code, w.Body.String())
	}
	// Conflicts and invalid uploads.
	if w := do(t, s, http.MethodPost, "/v1/devices", spec); w.Code != http.StatusConflict {
		t.Fatalf("duplicate upload: status %d, want 409", w.Code)
	}
	builtin := spec
	builtin.Name = "tokyo"
	if w := do(t, s, http.MethodPost, "/v1/devices", builtin); w.Code != http.StatusConflict {
		t.Fatalf("builtin shadow: status %d, want 409", w.Code)
	}
	disconnected := DeviceSpec{Name: "island", Qubits: 4, Edges: [][2]int{{0, 1}}}
	if w := do(t, s, http.MethodPost, "/v1/devices", disconnected); w.Code != http.StatusBadRequest {
		t.Fatalf("disconnected graph: status %d, want 400", w.Code)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	batch := BatchRequest{Requests: []MapRequest{
		{QASM: ghzQASM, Arch: "tokyo"},
		{QASM: ghzQASM, Arch: "nonexistent"},
		{QASM: ghzQASM, Arch: "tokyo"}, // duplicate of item 0: may be a hit
	}}
	w := do(t, s, http.MethodPost, "/v1/map/batch", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(resp.Items))
	}
	if resp.Items[0].Status != http.StatusOK || len(resp.Items[0].Result) == 0 {
		t.Fatalf("item 0 should succeed: %+v", resp.Items[0])
	}
	if resp.Items[1].Status != http.StatusNotFound || resp.Items[1].Error == nil || resp.Items[1].Error.Code != "unknown_device" {
		t.Fatalf("item 1 should 404 with code unknown_device: %+v", resp.Items[1])
	}
	if resp.Items[2].Status != http.StatusOK {
		t.Fatalf("item 2 should succeed: %+v", resp.Items[2])
	}
	if !bytes.Equal(resp.Items[0].Result, resp.Items[2].Result) {
		t.Fatal("identical batch items returned different results")
	}
	// Oversized batches are rejected, not truncated.
	over := BatchRequest{Requests: make([]MapRequest, DefaultMaxBatch+1)}
	for i := range over.Requests {
		over.Requests[i] = MapRequest{QASM: ghzQASM, Arch: "tokyo"}
	}
	if w := do(t, s, http.MethodPost, "/v1/map/batch", over); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", w.Code)
	}
}

func TestHealthzAndStatsShape(t *testing.T) {
	s := newTestServer(t, Config{})
	hw := do(t, s, http.MethodGet, "/healthz", nil)
	if hw.Code != http.StatusOK || !strings.Contains(hw.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", hw.Code, hw.Body.String())
	}
	if w := do(t, s, http.MethodPost, "/healthz", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("healthz POST: %d, want 405", w.Code)
	}
	var stats StatsResponse
	sw := do(t, s, http.MethodGet, "/v1/stats", nil)
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Workers < 1 || stats.CacheCapacity != DefaultCacheSize {
		t.Fatalf("bad stats defaults: %+v", stats)
	}
}

// TestConcurrentMap hammers a live server with a mix of repeated and
// distinct circuits. Run under -race (the CI race job does) it proves the
// registry/cache/pool plumbing is data-race-free; the byte-comparison
// proves concurrency never changes a mapping (the pipeline is
// deterministic, so every response for a given request must be identical).
func TestConcurrentMap(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, CacheSize: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	suite := workloads.FamousSeven()
	reqs := make([]MapRequest, len(suite))
	for i, b := range suite {
		reqs[i] = MapRequest{QASM: qasm.Write(b.Circuit()), Arch: "melbourne", Seed: int64(i%3) + 1}
	}
	const rounds = 4
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		if want[i], err = postMap(ts.Client(), ts.URL, r); err != nil {
			t.Fatalf("serial baseline %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(reqs))
	for round := 0; round < rounds; round++ {
		for i := range reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := postMap(ts.Client(), ts.URL, reqs[i])
				if err != nil {
					errs <- fmt.Errorf("request %d: %w", i, err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("request %d: concurrent response differs from serial baseline", i)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var stats StatsResponse
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.InFlight != 0 {
		t.Fatalf("in_flight = %d after quiescence, want 0", stats.InFlight)
	}
	if stats.CacheHits == 0 {
		t.Fatal("repeated circuits produced no cache hits")
	}
	if wantReqs := uint64((rounds + 1) * len(reqs)); stats.Requests != wantReqs {
		t.Fatalf("requests = %d, want %d", stats.Requests, wantReqs)
	}
}

// postMap POSTs one map request over real HTTP and returns the body. It
// returns errors instead of failing the test so it is safe to call from
// spawned goroutines (FailNow must run on the test goroutine).
func postMap(client *http.Client, url string, req MapRequest) ([]byte, error) {
	enc, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marshal: %w", err)
	}
	resp, err := client.Post(url+"/v1/map", "application/json", bytes.NewReader(enc))
	if err != nil {
		return nil, fmt.Errorf("post: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// TestMapRejectsNonFiniteParams: a parameter that overflows to ±Inf is a
// 400 bad_qasm, and nothing reaches the result store.
func TestMapRejectsNonFiniteParams(t *testing.T) {
	s := newTestServer(t, Config{})
	src := "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nrz(2^2000) q[1];\n"
	w := do(t, s, http.MethodPost, "/v1/map", MapRequest{QASM: src, Arch: "tokyo"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", w.Code, w.Body.String())
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != api.CodeBadQASM {
		t.Fatalf("error body %s, want code %s", w.Body.String(), api.CodeBadQASM)
	}
	if !strings.Contains(env.Error.Message, "line 5") {
		t.Errorf("message %q does not name the line", env.Error.Message)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("store holds %d entries after a rejected request", n)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"codar/api"
	"codar/internal/arch"
	"codar/internal/chaos"
	"codar/internal/testutil"
)

// jsonBody marshals a request body for tests that need raw header control.
func jsonBody(t *testing.T, v interface{}) *bytes.Reader {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(enc)
}

// waitInFlight polls until the server reports n executing mapping jobs.
func waitInFlight(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.stats.inFlight.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d in-flight jobs (at %d)", n, s.stats.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// mapReqBody is the canonical request every hardening test maps.
func mapReqBody() MapRequest {
	return MapRequest{QASM: ghzQASM, Arch: "tokyo"}
}

// TestBackpressure429: with one worker held and no queue, the next request
// is rejected immediately with 429, a Retry-After header and the rejected
// counter bumped — backpressure is explicit, not head-of-line blocking.
func TestBackpressure429(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{
		Workers:  1,
		MaxQueue: -1, // no queue: a busy pool rejects
		Chaos:    &chaos.Injector{SlowMapper: time.Second},
	})
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- do(t, s, http.MethodPost, "/v1/map", mapReqBody()) }()
	waitInFlight(t, s, 1)

	// Distinct circuit so the second request cannot be answered from cache.
	req2 := mapReqBody()
	req2.Seed = 7
	w := do(t, s, http.MethodPost, "/v1/map", req2)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := s.stats.rejected.Load(); got == 0 {
		t.Error("rejected counter not bumped")
	}
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("held request finished with %d: %s", w.Code, w.Body.String())
	}
}

// TestQueueWaitBudget429: an admitted request that cannot get a worker slot
// within QueueWait is rejected rather than parked indefinitely.
func TestQueueWaitBudget429(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{
		Workers:   1,
		MaxQueue:  4,
		QueueWait: 30 * time.Millisecond,
		Chaos:     &chaos.Injector{SlowMapper: time.Second},
	})
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- do(t, s, http.MethodPost, "/v1/map", mapReqBody()) }()
	waitInFlight(t, s, 1)

	req2 := mapReqBody()
	req2.Seed = 7
	start := time.Now()
	w := do(t, s, http.MethodPost, "/v1/map", req2)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", w.Code, w.Body.String())
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("queue-wait rejection took %v, budget was 30ms", waited)
	}
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("held request finished with %d", w.Code)
	}
}

// TestDeadline504: a request whose X-Codard-Timeout expires mid-mapping is
// answered 504 and counted, and the failed mapping plants no cache entry.
func TestDeadline504(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{
		Workers: 2,
		Chaos:   &chaos.Injector{SlowMapper: 500 * time.Millisecond},
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/map", jsonBody(t, mapReqBody()))
	req.Header.Set(timeoutHeader, "20ms")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body.String())
	}
	if got := s.stats.deadlines.Load(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("timed-out mapping planted %d cache entries", n)
	}
}

// TestBadTimeoutHeader400: a malformed or non-positive deadline header is
// the client's error, reported before any mapping work.
func TestBadTimeoutHeader400(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, h := range []string{"garbage", "-5s", "0"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/map", jsonBody(t, mapReqBody()))
		req.Header.Set(timeoutHeader, h)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("header %q: status = %d, want 400", h, w.Code)
		}
	}
}

// TestTimeoutHeaderCapped: a client asking for an hours-long deadline is
// clamped to Config.MaxTimeout — it cannot hold a worker past the
// operator's bound.
func TestTimeoutHeaderCapped(t *testing.T) {
	s := newTestServer(t, Config{MaxTimeout: 50 * time.Millisecond})
	req := httptest.NewRequest(http.MethodPost, "/v1/map", nil)
	req.Header.Set(timeoutHeader, "1h")
	ctx, cancel, serr := s.requestCtx(req)
	if serr != nil {
		t.Fatal(serr)
	}
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("no deadline on the request context")
	}
	if until := time.Until(dl); until > time.Second {
		t.Fatalf("deadline %v away; header should have been clamped to 50ms", until)
	}
}

// TestClientDisconnectCancels: the client going away mid-mapping cancels
// the job (499 in the counters), plants nothing in the cache, and a retry
// of the same circuit recomputes — byte-identical to an undisturbed run.
func TestClientDisconnectCancels(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{
		Workers: 2,
		Chaos:   &chaos.Injector{SlowMapper: 400 * time.Millisecond},
	})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/map", jsonBody(t, mapReqBody())).WithContext(ctx)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		done <- w
	}()
	waitInFlight(t, s, 1)
	cancel()
	w := <-done
	if w.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d; body %s", w.Code, statusClientClosedRequest, w.Body.String())
	}
	if got := s.stats.canceled.Load(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("canceled mapping planted %d cache entries", n)
	}

	// The retry recomputes from scratch (miss), and a third request serves
	// the cached bytes — identical, so cancellation corrupted nothing.
	s.cfg.Chaos.SlowMapper = 0
	w2 := do(t, s, http.MethodPost, "/v1/map", mapReqBody())
	if w2.Code != http.StatusOK || w2.Header().Get(cacheHeader) != "miss" {
		t.Fatalf("retry: status %d cache %q", w2.Code, w2.Header().Get(cacheHeader))
	}
	w3 := do(t, s, http.MethodPost, "/v1/map", mapReqBody())
	if w3.Code != http.StatusOK || w3.Header().Get(cacheHeader) != "hit" {
		t.Fatalf("re-retry: status %d cache %q", w3.Code, w3.Header().Get(cacheHeader))
	}
	if w2.Body.String() != w3.Body.String() {
		t.Fatal("recomputed and cached bodies differ")
	}
}

// TestPanicRecovery500: a panicking mapping job answers 500 with the
// process — and the cache — intact: the server keeps serving, and the
// poisoned request left no cache entry behind.
func TestPanicRecovery500(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{
		Workers: 1,
		Chaos:   &chaos.Injector{PanicEvery: 2}, // 2nd, 4th, ... jobs panic
	})
	w1 := do(t, s, http.MethodPost, "/v1/map", mapReqBody())
	if w1.Code != http.StatusOK {
		t.Fatalf("first map: status %d", w1.Code)
	}
	req2 := mapReqBody()
	req2.Seed = 7
	w2 := do(t, s, http.MethodPost, "/v1/map", req2)
	if w2.Code != http.StatusInternalServerError {
		t.Fatalf("second map: status %d, want 500; body %s", w2.Code, w2.Body.String())
	}
	if got := s.stats.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if w := do(t, s, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz after panic: status %d", w.Code)
	}
	// The panicked request released its worker slot: the pool still serves.
	w3 := do(t, s, http.MethodPost, "/v1/map", mapReqBody())
	if w3.Code != http.StatusOK || w3.Header().Get(cacheHeader) != "hit" {
		t.Fatalf("post-panic map: status %d cache %q", w3.Code, w3.Header().Get(cacheHeader))
	}
	if w1.Body.String() != w3.Body.String() {
		t.Fatal("cache corrupted across a panic")
	}
}

// TestBatchCancelStopsDispatch: once the batch request's deadline fires,
// in-flight items abort and queued items are never dispatched — every item
// reports the classified status, none are silently zero or still mapping.
func TestBatchCancelStopsDispatch(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{
		Workers: 1,
		Chaos:   &chaos.Injector{SlowMapper: 200 * time.Millisecond},
	})
	batch := BatchRequest{}
	for i := 0; i < 4; i++ {
		r := mapReqBody()
		r.Seed = int64(i + 1)
		batch.Requests = append(batch.Requests, r)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/map/batch", jsonBody(t, batch))
	req.Header.Set(timeoutHeader, "50ms")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status = %d; body %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("got %d items, want 4", len(resp.Items))
	}
	for i, item := range resp.Items {
		if item.Status != http.StatusGatewayTimeout {
			t.Errorf("item %d: status %d (%s), want 504", i, item.Status, item.Error)
		}
	}
	if got := s.stats.deadlines.Load(); got == 0 {
		t.Error("deadline counter not bumped by the batch")
	}
}

// TestBatchSurvivesItemPanic: a panicking item becomes that item's 500 row;
// its siblings complete normally.
func TestBatchSurvivesItemPanic(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{
		Workers: 1, // serial pool: the panic cadence is deterministic
		Chaos:   &chaos.Injector{PanicEvery: 2},
	})
	batch := BatchRequest{}
	for i := 0; i < 3; i++ {
		r := mapReqBody()
		r.Seed = int64(i + 1)
		batch.Requests = append(batch.Requests, r)
	}
	w := do(t, s, http.MethodPost, "/v1/map/batch", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status = %d", w.Code)
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{http.StatusOK, http.StatusInternalServerError, http.StatusOK}
	for i, item := range resp.Items {
		if item.Status != wantStatus[i] {
			t.Errorf("item %d: status %d, want %d (%s)", i, item.Status, wantStatus[i], item.Error)
		}
	}
	if got := s.stats.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
}

// TestDrainGraceful: with nothing in flight, Drain returns false
// immediately and the server keeps working.
func TestDrainGraceful(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	if s.Drain(ctx) {
		t.Fatal("idle drain reported a hard cancel")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("idle drain did not return promptly")
	}
}

// TestDrainHardCancelsInFlight: a drain whose grace window expires fires
// the base context — the in-flight mapping aborts through the cancellation
// plumbing, Drain reports the hard cancel, and no goroutine is stranded.
func TestDrainHardCancelsInFlight(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{
		Workers: 1,
		Chaos:   &chaos.Injector{SlowMapper: 5 * time.Second},
	})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- do(t, s, http.MethodPost, "/v1/map", mapReqBody()) }()
	waitInFlight(t, s, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if !s.Drain(ctx) {
		t.Fatal("drain with a held worker reported graceful")
	}
	w := <-done
	if w.Code != statusClientClosedRequest && w.Code != http.StatusGatewayTimeout {
		t.Fatalf("hard-canceled request answered %d: %s", w.Code, w.Body.String())
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("hard-canceled mapping planted %d cache entries", n)
	}
}

// TestStatsExposesRobustnessCounters: the new counters are present in the
// /v1/stats body with their JSON names.
func TestStatsExposesRobustnessCounters(t *testing.T) {
	s := newTestServer(t, Config{})
	w := do(t, s, http.MethodGet, "/v1/stats", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats status = %d", w.Code)
	}
	var raw map[string]interface{}
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"canceled", "deadline_exceeded", "rejected", "panics", "queue_depth", "queue_capacity"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats body missing %q", key)
		}
	}
}

// TestDeviceOverCapRejectedCheaply: a device one qubit over arch.MaxQubits,
// asked for by parametric name on /v1/map or uploaded on /v1/devices, is a
// 400 that allocates almost nothing — the size is checked before the n²
// tables are built, so a tiny body cannot make the server allocate O(n²).
func TestDeviceOverCapRejectedCheaply(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("-race perturbs allocation counts")
	}
	over := arch.MaxQubits + 1
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, path string
		body       interface{}
	}{
		{"map by name", "/v1/map", MapRequest{QASM: ghzQASM, Arch: fmt.Sprintf("ring%d", over)}},
		{"upload", "/v1/devices", DeviceSpec{Name: "huge", Qubits: over, Edges: [][2]int{{0, 1}}}},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := do(t, s, http.MethodPost, tc.path, tc.body)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != api.CodeBadRequest {
			t.Fatalf("%s: body %s, want a bad_request envelope", tc.name, w.Body.String())
		}
		got := after.TotalAlloc - before.TotalAlloc
		if got > 1<<20 {
			t.Errorf("%s: rejecting a %d-qubit device allocated %d bytes, want < 1 MB", tc.name, over, got)
		}
		t.Logf("%s: rejected with %d bytes allocated", tc.name, got)
	}
}

// TestBuiltinMemoBoundedByQubitsSquared: sixteen distinct 1,009–1,024-qubit
// parametric names, each resolved by two goroutines at once, leave the
// builtin memo within its Σ qubits² budget with its running sum exact, so
// the live heap grows by the budget's worth of tables (about 67 MB), not by
// 8 MB per name resolved; Tokyo still resolves to one shared device.
func TestBuiltinMemoBoundedByQubitsSquared(t *testing.T) {
	r := NewRegistry()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1024; n > 1008; n-- {
				if _, err := r.Resolve(fmt.Sprintf("linear%d", n)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	runtime.GC()
	runtime.ReadMemStats(&after)
	sq := 0
	for _, dev := range r.builtins {
		sq += dev.NumQubits * dev.NumQubits
	}
	if sq != r.builtinSq || sq > builtinMemoQubitsSq || len(r.builtins) >= 16 {
		t.Fatalf("memo holds %d of 16 devices, Σ qubits² %d (tracked %d), budget %d", len(r.builtins), sq, r.builtinSq, builtinMemoQubitsSq)
	}
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("memo holds %d of 16 devices, Σ qubits² %d, live heap %+.1f MB", len(r.builtins), sq, float64(live)/1e6)
	if !testutil.RaceEnabled && live > 80<<20 {
		t.Errorf("live heap grew %.1f MB, want at most the budget's tables (about 67 MB)", float64(live)/1e6)
	}
	a, err := r.Resolve("tokyo")
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := r.Resolve("tokyo"); a != b {
		t.Fatal("tokyo resolved to two devices after the memo filled")
	}
}

// TestCustomDeviceStoreCapped: uploads are never evicted, so the store
// answers 409 once it holds customCap devices.
func TestCustomDeviceStoreCapped(t *testing.T) {
	s := newTestServer(t, Config{})
	upload := func(i int) *httptest.ResponseRecorder {
		return do(t, s, http.MethodPost, "/v1/devices", DeviceSpec{
			Name: fmt.Sprintf("lab-%d", i), Qubits: 3, Edges: [][2]int{{0, 1}, {1, 2}},
		})
	}
	for i := 0; i < customCap; i++ {
		if w := upload(i); w.Code != http.StatusCreated {
			t.Fatalf("upload %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	w := upload(customCap)
	if w.Code != http.StatusConflict {
		t.Fatalf("upload beyond the cap: status %d, want 409 (%s)", w.Code, w.Body.String())
	}
	if n := s.registry.CustomCount(); n != customCap {
		t.Fatalf("store holds %d devices, want %d", n, customCap)
	}
}

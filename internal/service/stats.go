package service

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"codar/api"
	"codar/internal/metrics"
)

// latencyWindow is the number of recent request latencies retained for the
// /v1/stats percentiles. A bounded ring keeps the stats endpoint O(window)
// and the server memory constant under sustained load.
const latencyWindow = 4096

// stats aggregates serving counters. Counters are atomics (hot path);
// the latency ring takes a short mutex per observation.
type stats struct {
	start    time.Time
	requests atomic.Uint64 // completed /v1/map requests (batch items included)
	errors   atomic.Uint64 // requests answered with a 4xx/5xx error body
	inFlight atomic.Int64  // mapping jobs currently holding a worker slot
	admitted atomic.Int64  // mapping jobs admitted (queued + executing)

	// Robustness breakdowns of the error counter (DESIGN.md §11).
	canceled      metrics.Counter // client gone before the mapping finished (499)
	deadlines     metrics.Counter // per-request deadline expired (504)
	rejected      metrics.Counter // backpressure rejections (429 queue_full)
	quotaRejected metrics.Counter // per-client quota rejections (429 quota_exceeded)
	panics        metrics.Counter // handler panics recovered to 500

	// Result-store outcomes (PR 8): mappings counts completed mapping
	// computations — cache hits and singleflight followers do not move it,
	// which is the "N identical concurrent requests map exactly once"
	// assertion. collapsed counts follower requests served from a
	// concurrent leader's bytes; handoffs counts follower retakes after a
	// canceled leader.
	mappings  metrics.Counter
	collapsed metrics.Counter
	handoffs  metrics.Counter

	mu    sync.Mutex
	ring  [latencyWindow]float64 // milliseconds
	next  int
	count uint64  // total observations (may exceed the window)
	max   float64 // all-time maximum
}

func newStats() *stats { return &stats{start: time.Now()} }

// countError tallies one error outcome: the total plus the robustness
// breakdown its status (and, for the two 429 flavours, its envelope code)
// encodes.
func (s *stats) countError(status int, code string) {
	s.errors.Add(1)
	switch status {
	case statusClientClosedRequest:
		s.canceled.Inc()
	case http.StatusGatewayTimeout:
		s.deadlines.Inc()
	case http.StatusTooManyRequests:
		if code == api.CodeQuotaExceeded {
			s.quotaRejected.Inc()
		} else {
			s.rejected.Inc()
		}
	}
}

// observe records one request latency.
func (s *stats) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	s.mu.Lock()
	s.ring[s.next] = ms
	s.next = (s.next + 1) % latencyWindow
	s.count++
	if ms > s.max {
		s.max = ms
	}
	s.mu.Unlock()
}

// LatencySummary is the /v1/stats latency block, in milliseconds, computed
// over the most recent latencyWindow observations (max is all-time). The
// wire shape lives in package api.
type LatencySummary = api.LatencySummary

// latencies snapshots the ring and summarises it.
func (s *stats) latencies() LatencySummary {
	s.mu.Lock()
	n := int(s.count)
	if n > latencyWindow {
		n = latencyWindow
	}
	window := make([]float64, n)
	copy(window, s.ring[:n])
	sum := LatencySummary{Count: s.count, Max: s.max}
	s.mu.Unlock()
	if n == 0 {
		return sum
	}
	sort.Float64s(window)
	sum.P50 = metrics.Percentile(window, 0.50)
	sum.P90 = metrics.Percentile(window, 0.90)
	sum.P99 = metrics.Percentile(window, 0.99)
	return sum
}

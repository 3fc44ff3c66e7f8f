package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"codar/api"
	"codar/internal/qasm"
	"codar/internal/testutil"
	"codar/internal/workloads"
)

// streamQASM is a routing-heavy circuit big enough that the streaming
// mappers flush several chunks, with measures so the creg reconstruction
// in the stream header is exercised.
func streamQASM(t *testing.T, gates int, seed int64) string {
	t.Helper()
	src := qasm.Write(workloads.Random(16, gates, 45, seed))
	src = strings.Replace(src, "qreg q[16];\n", "qreg q[16];\ncreg c[4];\n", 1)
	return src + "measure q[3] -> c[2];\nmeasure q[0] -> c[0];\n"
}

// decodeStreamBody splits an NDJSON response body into its records and
// checks the framing invariants: exactly one header record first, chunks
// with contiguous seq numbers, one terminal record (result or error) last.
func decodeStreamBody(t *testing.T, body string) (hdr *api.StreamHeader, chunks []*api.StreamChunk, result *api.MapResponse, inband *api.ErrorBody) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	n := 0
	for dec.More() {
		var rec api.StreamRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("record %d does not decode: %v", n, err)
		}
		if result != nil || inband != nil {
			t.Fatalf("record %d arrived after the terminal record", n)
		}
		switch rec.Type {
		case api.StreamTypeHeader:
			if n != 0 {
				t.Fatalf("header record at position %d, want 0", n)
			}
			hdr = rec.Header
		case api.StreamTypeChunk:
			if rec.Chunk == nil {
				t.Fatalf("record %d: chunk record without payload", n)
			}
			if rec.Chunk.Seq != len(chunks) {
				t.Fatalf("chunk seq %d at position %d, want %d", rec.Chunk.Seq, n, len(chunks))
			}
			if got := strings.Count(rec.Chunk.QASM, "\n"); got != rec.Chunk.Gates {
				t.Fatalf("chunk %d declares %d gates but carries %d lines", rec.Chunk.Seq, rec.Chunk.Gates, got)
			}
			chunks = append(chunks, rec.Chunk)
		case api.StreamTypeResult:
			result = rec.Result
		case api.StreamTypeError:
			inband = rec.Error
		default:
			t.Fatalf("record %d: unknown type %q", n, rec.Type)
		}
		n++
	}
	if hdr == nil {
		t.Fatal("stream has no header record")
	}
	if result == nil && inband == nil {
		t.Fatal("stream has no terminal record")
	}
	return hdr, chunks, result, inband
}

// concatStream reassembles a full mapped circuit from the stream frames.
func concatStream(hdr *api.StreamHeader, chunks []*api.StreamChunk) string {
	var sb strings.Builder
	sb.WriteString(hdr.QASMHeader)
	for _, ch := range chunks {
		sb.WriteString(ch.QASM)
	}
	return sb.String()
}

// TestMapStreamMatchesBatchBytes is the service-level differential pin: for
// both mappers, the concatenation of the stream header's qasm_header with
// every chunk's qasm is byte-identical to the mapped_qasm the batch
// endpoint returns for the same request — and the streamed response never
// touches the result store in either direction.
func TestMapStreamMatchesBatchBytes(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	src := streamQASM(t, 6000, 11)
	for _, algo := range []string{"codar", "sabre"} {
		t.Run(algo, func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 2})
			off := false
			req := MapRequest{QASM: src, Arch: "tokyo", Algo: algo, Seed: 3, Baseline: &off}

			w := do(t, s, http.MethodPost, "/v1/map?stream=1", req)
			if w.Code != http.StatusOK {
				t.Fatalf("stream status %d: %s", w.Code, w.Body.String())
			}
			if ct := w.Header().Get("Content-Type"); ct != api.StreamContentType {
				t.Fatalf("content type %q, want %q", ct, api.StreamContentType)
			}
			if got := w.Header().Get(cacheHeader); got != api.CacheBypass {
				t.Fatalf("cache header %q, want %q", got, api.CacheBypass)
			}
			hdr, chunks, result, inband := decodeStreamBody(t, w.Body.String())
			if inband != nil {
				t.Fatalf("stream failed in-band: %+v", inband)
			}
			if len(chunks) < 2 {
				t.Fatalf("only %d chunks for a %d-gate circuit; streaming degenerated to one flush", len(chunks), 6000)
			}
			if hdr.Algo != algo || hdr.Device != "ibm-q20-tokyo" || hdr.InputQubits != 16 {
				t.Fatalf("bad stream header: %+v", hdr)
			}
			if result.MappedQASM != "" {
				t.Fatal("stream result record carries mapped_qasm; the circuit must travel in chunks only")
			}

			// A streamed mapping plants nothing: the next batch request for
			// the same spec must recompute (miss), not hit a partial entry.
			if n := s.cache.Len(); n != 0 {
				t.Fatalf("streamed mapping planted %d cache entries", n)
			}
			bw := do(t, s, http.MethodPost, "/v1/map", req)
			if bw.Code != http.StatusOK {
				t.Fatalf("batch status %d: %s", bw.Code, bw.Body.String())
			}
			if got := bw.Header().Get(cacheHeader); got != "miss" {
				t.Fatalf("batch after stream cache header %q, want miss (stream must not write the store)", got)
			}
			var batch MapResponse
			if err := json.Unmarshal(bw.Body.Bytes(), &batch); err != nil {
				t.Fatalf("decode batch: %v", err)
			}
			if got := concatStream(hdr, chunks); got != batch.MappedQASM {
				t.Fatalf("stream concat differs from batch mapped_qasm (%d vs %d bytes)", len(got), len(batch.MappedQASM))
			}
			if result.OutputGates != batch.OutputGates || result.Swaps != batch.Swaps {
				t.Fatalf("stream summary gates/swaps %d/%d, batch %d/%d",
					result.OutputGates, result.Swaps, batch.OutputGates, batch.Swaps)
			}
			if result.Depth != batch.Depth || result.WeightedDepth != batch.WeightedDepth {
				t.Fatalf("stream summary depth/weighted depth %d/%d, batch %d/%d",
					result.Depth, result.WeightedDepth, batch.Depth, batch.WeightedDepth)
			}
			total := 0
			for _, ch := range chunks {
				total += ch.Gates
			}
			if total != result.OutputGates {
				t.Fatalf("chunks carry %d gates, summary says %d", total, result.OutputGates)
			}

			// A second stream still bypasses the now-warm cache: disposition
			// stays "bypass", never "hit".
			w2 := do(t, s, http.MethodPost, "/v1/map?stream=1", req)
			if got := w2.Header().Get(cacheHeader); got != api.CacheBypass {
				t.Fatalf("warm-cache stream disposition %q, want %q", got, api.CacheBypass)
			}
		})
	}
}

// TestMapKeepsClassicalRegister: a classical bit no measure writes stays in
// the mapped program's register, on the sync answer and in the stream
// header alike, so the NDJSON reassembly still equals the sync output.
func TestMapKeepsClassicalRegister(t *testing.T) {
	src := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[5];\n" +
		"cx q[0],q[2];\nh q[1];\nmeasure q[0] -> c[0];\n"
	for _, algo := range []string{"codar", "sabre"} {
		t.Run(algo, func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 2})
			off := false
			req := MapRequest{QASM: src, Arch: "tokyo", Algo: algo, Baseline: &off}
			bw := do(t, s, http.MethodPost, "/v1/map", req)
			if bw.Code != http.StatusOK {
				t.Fatalf("sync status %d: %s", bw.Code, bw.Body.String())
			}
			var sync MapResponse
			if err := json.Unmarshal(bw.Body.Bytes(), &sync); err != nil {
				t.Fatalf("decode sync: %v", err)
			}
			if !strings.Contains(sync.MappedQASM, "creg c[5];") {
				t.Fatalf("sync mapped_qasm lost the unmeasured classical bits:\n%s", sync.MappedQASM)
			}
			w := do(t, s, http.MethodPost, "/v1/map?stream=1", req)
			if w.Code != http.StatusOK {
				t.Fatalf("stream status %d: %s", w.Code, w.Body.String())
			}
			hdr, chunks, _, inband := decodeStreamBody(t, w.Body.String())
			if inband != nil {
				t.Fatalf("stream failed in-band: %+v", inband)
			}
			if got := concatStream(hdr, chunks); got != sync.MappedQASM {
				t.Fatalf("stream reassembly differs from sync mapped_qasm:\n%s\nvs\n%s", got, sync.MappedQASM)
			}
		})
	}
}

// TestMapStreamRejectsWholeCircuitModes pins the pre-commit error contract:
// requests that need the whole circuit in memory (portfolio, baseline) and
// ordinary validation failures answer the normal JSON envelope with normal
// statuses — never a half-open stream.
func TestMapStreamRejectsWholeCircuitModes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	on := true
	cases := []struct {
		name string
		req  interface{}
		code int
	}{
		{"portfolio", MapRequest{QASM: ghzQASM, Arch: "tokyo", Portfolio: &api.PortfolioSpec{Seeds: []int64{1, 2}}}, http.StatusBadRequest},
		{"baseline", MapRequest{QASM: ghzQASM, Arch: "tokyo", Baseline: &on}, http.StatusBadRequest},
		{"bad qasm", MapRequest{QASM: "OPENQASM 2.0; junk", Arch: "tokyo"}, http.StatusBadRequest},
		{"unknown device", MapRequest{QASM: ghzQASM, Arch: "nonexistent"}, http.StatusNotFound},
		{"bad json", `{"qasm": `, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := do(t, s, http.MethodPost, "/v1/map?stream=1", tc.req)
		if w.Code != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.code, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); ct == api.StreamContentType {
			t.Fatalf("%s: rejected request answered as a stream", tc.name)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
			t.Fatalf("%s: not an error envelope: %s", tc.name, w.Body.String())
		}
	}
}

// cancelOnFlush wraps a ResponseRecorder and fires a callback on the n-th
// Flush — the deterministic hook the mid-stream failure tests use to abort
// the request context after the stream has committed.
type cancelOnFlush struct {
	*httptest.ResponseRecorder
	n      int
	flush  int
	onSpot func()
}

func (c *cancelOnFlush) Flush() {
	c.ResponseRecorder.Flush()
	c.flush++
	if c.flush == c.n && c.onSpot != nil {
		c.onSpot()
	}
}

// TestMapStreamCancelMidStream: the request context firing after records
// are on the wire cannot unsend the 200 — the failure arrives as an
// in-band error record with code "canceled", the 499 is accounted in the
// stats, and nothing was planted in the store.
func TestMapStreamCancelMidStream(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Flush 1 is the header record, flush 2 the first chunk: cancel there,
	// with thousands of gates still unmapped behind it.
	w := &cancelOnFlush{ResponseRecorder: httptest.NewRecorder(), n: 2, onSpot: cancel}
	req := MapRequest{QASM: streamQASM(t, 20000, 7), Arch: "tokyo", Algo: "codar"}
	if serr := s.serveMapStream(ctx, w, &req); serr != nil {
		t.Fatalf("committed stream returned an envelope error: %v", serr.msg)
	}
	hdr, chunks, result, inband := decodeStreamBody(t, w.Body.String())
	if result != nil {
		t.Fatal("canceled stream still delivered a result record")
	}
	if inband == nil || inband.Code != api.CodeCanceled {
		t.Fatalf("in-band error = %+v, want code %q", inband, api.CodeCanceled)
	}
	if hdr == nil || len(chunks) == 0 {
		t.Fatal("cancellation fired before any chunk; the test lost its mid-stream timing hook")
	}
	if got := s.stats.canceled.Load(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("canceled stream planted %d cache entries", n)
	}
}

// TestMapStreamDeadlineMidStream: same shape for the per-request deadline —
// the stream ends with an in-band "deadline_exceeded" record and the 504
// counter moves.
func TestMapStreamDeadlineMidStream(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 1})
	// Generous enough that parse + initial layout + the first chunk land
	// well inside it; the flush hook then parks past it deterministically.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w := &cancelOnFlush{ResponseRecorder: httptest.NewRecorder(), n: 2, onSpot: func() {
		// Park past the deadline while mid-stream, so the engine's next
		// cancellation check classifies as deadline-exceeded.
		<-ctx.Done()
	}}
	req := MapRequest{QASM: streamQASM(t, 20000, 7), Arch: "tokyo", Algo: "sabre"}
	if serr := s.serveMapStream(ctx, w, &req); serr != nil {
		t.Fatalf("committed stream returned an envelope error: %v", serr.msg)
	}
	_, chunks, result, inband := decodeStreamBody(t, w.Body.String())
	if result != nil {
		t.Fatal("timed-out stream still delivered a result record")
	}
	if inband == nil || inband.Code != api.CodeDeadline {
		t.Fatalf("in-band error = %+v, want code %q", inband, api.CodeDeadline)
	}
	if len(chunks) == 0 {
		t.Fatal("deadline fired before any chunk; the test lost its mid-stream timing hook")
	}
	if got := s.stats.deadlines.Load(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
}

// TestJobResultStreamReplay: a done job's result replays in the same NDJSON
// framing, the reassembled circuit is byte-identical to the stored
// mapped_qasm, and — unlike a live stream — the job's real cache
// disposition survives in the header.
func TestJobResultStreamReplay(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s := newTestServer(t, Config{Workers: 2})
	off := false
	req := api.MapRequest{QASM: streamQASM(t, 6000, 5), Arch: "tokyo", Algo: "sabre", Baseline: &off}
	st := submitJob(t, s, req)
	pollJob(t, s, st.ID, api.JobDone)

	plain := do(t, s, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain result: %d %s", plain.Code, plain.Body.String())
	}
	var stored MapResponse
	if err := json.Unmarshal(plain.Body.Bytes(), &stored); err != nil {
		t.Fatalf("decode stored result: %v", err)
	}

	w := do(t, s, http.MethodGet, "/v1/jobs/"+st.ID+"/result?stream=1", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stream result: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != api.StreamContentType {
		t.Fatalf("content type %q, want %q", ct, api.StreamContentType)
	}
	if got := w.Header().Get(cacheHeader); got != "miss" {
		t.Fatalf("replay disposition %q, want the job's own %q", got, "miss")
	}
	hdr, chunks, result, inband := decodeStreamBody(t, w.Body.String())
	if inband != nil {
		t.Fatalf("replay failed in-band: %+v", inband)
	}
	if got := concatStream(hdr, chunks); got != stored.MappedQASM {
		t.Fatalf("replay concat differs from stored mapped_qasm (%d vs %d bytes)", len(got), len(stored.MappedQASM))
	}
	if result.MappedQASM != "" {
		t.Fatal("replay result record carries mapped_qasm")
	}
	if result.OutputGates != stored.OutputGates || result.Swaps != stored.Swaps || result.WeightedDepth != stored.WeightedDepth {
		t.Fatalf("replay summary %+v differs from stored %+v", result, stored)
	}
	for _, ch := range chunks {
		if ch.Gates > jobStreamChunkGates {
			t.Fatalf("replay chunk carries %d gates, cap is %d", ch.Gates, jobStreamChunkGates)
		}
	}

	// A repeat job is a cache hit, and its replay says so.
	st2 := submitJob(t, s, req)
	pollJob(t, s, st2.ID, api.JobDone)
	w2 := do(t, s, http.MethodGet, "/v1/jobs/"+st2.ID+"/result?stream=1", nil)
	if got := w2.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("repeat-job replay disposition %q, want hit", got)
	}

	// Non-done jobs answer the same envelope errors with or without stream=1.
	wq := do(t, s, http.MethodGet, "/v1/jobs/ffffffffffffffff/result?stream=1", nil)
	if wq.Code != http.StatusNotFound {
		t.Fatalf("unknown job streamed result: %d, want 404", wq.Code)
	}
}

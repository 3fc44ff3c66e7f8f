package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"codar/api"
	"codar/internal/chaos"
	"codar/internal/qasm"
	"codar/internal/service"
	"codar/internal/workloads"
)

// bigQASM is large enough that the streaming mappers flush several chunks
// (the engines batch ~1024 gates per flush).
func bigQASM(t *testing.T) string {
	t.Helper()
	return qasm.Write(workloads.Random(16, 6000, 45, 9))
}

// TestMapStreamRoundTrip is the client half of the streaming contract: the
// chunks MapStream delivers reassemble — byte for byte — into the
// mapped_qasm a plain Map call returns, and the transport metadata (bypass
// disposition, request ID, summary record) comes through.
func TestMapStreamRoundTrip(t *testing.T) {
	c := newServerAndClient(t, service.Config{Workers: 2})
	ctx := context.Background()
	off := false
	req := &api.MapRequest{QASM: bigQASM(t), Arch: "tokyo", Algo: "sabre", Baseline: &off}

	var sb strings.Builder
	lastSeq := -1
	res, err := c.MapStream(ctx, req, func(ch *api.StreamChunk) error {
		if ch.Seq != lastSeq+1 {
			t.Fatalf("chunk seq %d after %d", ch.Seq, lastSeq)
		}
		lastSeq = ch.Seq
		sb.WriteString(ch.QASM)
		return nil
	})
	if err != nil {
		t.Fatalf("MapStream: %v", err)
	}
	if res.Header == nil || res.Result == nil {
		t.Fatalf("incomplete stream result: %+v", res)
	}
	if res.Cache != api.CacheBypass {
		t.Fatalf("Cache = %q, want %q", res.Cache, api.CacheBypass)
	}
	if res.RequestID == "" {
		t.Fatal("no request ID on the stream response")
	}
	if res.Chunks < 2 {
		t.Fatalf("Chunks = %d, want several for a 6000-gate circuit", res.Chunks)
	}
	if res.Result.MappedQASM != "" {
		t.Fatal("stream summary carries mapped_qasm")
	}

	batch, err := c.Map(ctx, req)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if batch.Cache != "miss" {
		t.Fatalf("batch after stream Cache = %q, want miss (streams bypass the store)", batch.Cache)
	}
	if got := res.Header.QASMHeader + sb.String(); got != batch.MappedQASM {
		t.Fatalf("reassembled stream (%d bytes) differs from batch mapped_qasm (%d bytes)", len(got), len(batch.MappedQASM))
	}
	if res.Result.OutputGates != batch.OutputGates || res.Result.Swaps != batch.Swaps {
		t.Fatalf("stream summary %d gates/%d swaps, batch %d/%d",
			res.Result.OutputGates, res.Result.Swaps, batch.OutputGates, batch.Swaps)
	}
}

// TestMapStreamErrorsKeepSentinels: rejections before the stream commits
// arrive as ordinary *APIErrors with their HTTP status; a deadline arrives
// as a 504 envelope before the commit and as an in-band error record after
// it, and both must satisfy errors.Is(err, ErrDeadline). Neither deadline
// races a mapping: the first is held in the chaos slow-mapper hook, and
// the second comes from a stub server.
func TestMapStreamErrorsKeepSentinels(t *testing.T) {
	c := newServerAndClient(t, service.Config{Workers: 2})
	ctx := context.Background()

	_, err := c.MapStream(ctx, &api.MapRequest{QASM: "not qasm", Arch: "tokyo"}, nil)
	if !errors.Is(err, ErrBadQASM) {
		t.Fatalf("bad qasm err = %v, want ErrBadQASM", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("pre-commit rejection not a 400 *APIError: %v", err)
	}

	on := true
	_, err = c.MapStream(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "tokyo", Baseline: &on}, nil)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("baseline err = %v, want ErrBadRequest", err)
	}

	// A deadline before the stream commits: the slow-mapper hook holds the
	// request in its slot, before the parse, until X-Codard-Timeout fires,
	// and the server answers 504.
	slow := newServerAndClient(t, service.Config{Workers: 1, Chaos: &chaos.Injector{SlowMapper: time.Minute}}, WithTimeout(50*time.Millisecond))
	_, err = slow.MapStream(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "tokyo"}, nil)
	if !errors.Is(err, ErrDeadline) || !errors.As(err, &ae) || ae.Status != 504 {
		t.Fatalf("pre-commit deadline err = %v, want a 504 ErrDeadline", err)
	}

	// A deadline after the commit arrives as an in-band error record on
	// the 200 stream.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.StreamContentType)
		enc := json.NewEncoder(w)
		enc.Encode(&api.StreamRecord{Type: api.StreamTypeHeader, Header: &api.StreamHeader{Device: "ibm-q20-tokyo"}})
		enc.Encode(&api.StreamRecord{Type: api.StreamTypeError, Error: &api.ErrorBody{Code: api.CodeDeadline, Message: "deadline exceeded"}})
	}))
	t.Cleanup(ts.Close)
	inBand, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = inBand.MapStream(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "tokyo"}, nil)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("in-band deadline err = %v, want ErrDeadline", err)
	}
}

// TestMapStreamChunkCallbackAborts: an error returned by onChunk stops the
// decode loop and surfaces unchanged.
func TestMapStreamChunkCallbackAborts(t *testing.T) {
	c := newServerAndClient(t, service.Config{Workers: 2})
	sentinel := errors.New("stop here")
	_, err := c.MapStream(context.Background(), &api.MapRequest{
		QASM: bigQASM(t), Arch: "tokyo", Algo: "sabre",
	}, func(*api.StreamChunk) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's own error", err)
	}
}

// TestJobResultStreamRoundTrip: the async replay path shares the decode
// loop, reassembles to the stored mapped_qasm, and keeps the job's real
// cache disposition instead of claiming a bypass.
func TestJobResultStreamRoundTrip(t *testing.T) {
	c := newServerAndClient(t, service.Config{Workers: 2})
	ctx := context.Background()
	off := false
	req := &api.MapRequest{QASM: bigQASM(t), Arch: "tokyo", Algo: "sabre", Baseline: &off}

	st, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	stored, err := c.WaitJob(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}

	var sb strings.Builder
	res, err := c.JobResultStream(ctx, st.ID, func(ch *api.StreamChunk) error {
		sb.WriteString(ch.QASM)
		return nil
	})
	if err != nil {
		t.Fatalf("JobResultStream: %v", err)
	}
	if res.Cache != stored.Cache {
		t.Fatalf("replay Cache = %q, want the job's %q", res.Cache, stored.Cache)
	}
	if got := res.Header.QASMHeader + sb.String(); got != stored.MappedQASM {
		t.Fatalf("reassembled replay (%d bytes) differs from stored mapped_qasm (%d bytes)", len(got), len(stored.MappedQASM))
	}

	if _, err := c.JobResultStream(ctx, "ffffffffffffffff", nil); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("unknown job err = %v, want ErrJobNotFound", err)
	}
}

package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"codar/api"
	"codar/internal/chaos"
	"codar/internal/service"
)

// TestJobSubmitWaitResult drives the async path end-to-end and checks its
// core contract: the job result is byte-equal in content to the sync path
// (same cache key, so the sync repeat is a hit).
func TestJobSubmitWaitResult(t *testing.T) {
	c := newServerAndClient(t, service.Config{Workers: 2})
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if st.ID == "" || st.State == "" {
		t.Fatalf("submit status = %+v", st)
	}
	res, err := c.WaitJob(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if res.MappedQASM == "" || res.Device != "ibm-q20-tokyo" {
		t.Fatalf("result = %+v", res.MapResponse)
	}
	// The job populated the shared result store: the sync path must hit.
	sync, err := c.Map(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	if err != nil {
		t.Fatalf("Map after job: %v", err)
	}
	if sync.Cache != "hit" {
		t.Fatalf("sync Cache after job = %q, want hit", sync.Cache)
	}
	if sync.MappedQASM != res.MappedQASM || sync.Swaps != res.Swaps {
		t.Fatal("sync result differs from job result")
	}
	// Status of a done job reports a result URL; canceling it is a no-op.
	got, err := c.JobStatus(ctx, st.ID)
	if err != nil || got.State != api.JobDone || got.ResultURL == "" {
		t.Fatalf("JobStatus: %v, %+v", err, got)
	}
	if fin, err := c.CancelJob(ctx, st.ID); err != nil || fin.State != api.JobDone {
		t.Fatalf("CancelJob on done job: %v, %+v", err, fin)
	}
}

// TestJobErrorsAreSentinels pins the errors.Is relations of the job routes.
func TestJobErrorsAreSentinels(t *testing.T) {
	c := newServerAndClient(t, service.Config{Workers: 2, JobsTTL: 40 * time.Millisecond})
	ctx := context.Background()

	if _, err := c.JobStatus(ctx, "nope"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("unknown job err = %v, want ErrJobNotFound", err)
	}
	if _, err := c.JobResult(ctx, "nope"); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("unknown result err = %v, want ErrJobNotFound", err)
	}
	// Eager validation: submit rejects what the sync path rejects.
	if _, err := c.SubmitJob(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "nope"}); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("submit err = %v, want ErrUnknownDevice", err)
	}
	// A finished job's result expires after the TTL.
	st, err := c.SubmitJob(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if _, err := c.WaitJob(ctx, st.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = c.JobResult(ctx, st.ID)
		if err != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !errors.Is(err, ErrJobExpired) && !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("expired result err = %v, want ErrJobExpired (or ErrJobNotFound after reap)", err)
	}
}

// TestJobNotDoneCarriesRetryAfter: fetching the result of a queued job is a
// 409 with a Retry-After hint, mapped to ErrJobNotDone.
func TestJobNotDoneCarriesRetryAfter(t *testing.T) {
	// One worker, held by a first job the fault injector slows down: the
	// second job is queued by construction, so its result is fetched too
	// early every time.
	c := newServerAndClient(t, service.Config{Workers: 1, Chaos: &chaos.Injector{SlowMapper: 5 * time.Second}})
	ctx := context.Background()

	blocker, err := c.SubmitJob(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	st, err := c.SubmitJob(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "melbourne"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	_, err = c.JobResult(ctx, st.ID)
	if !errors.Is(err, ErrJobNotDone) {
		t.Fatalf("early result err = %v, want ErrJobNotDone", err)
	}
	if RetryAfter(err) < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", RetryAfter(err))
	}
	// Cancel the queued job: it settles at once, without ever running.
	if _, err := c.CancelJob(ctx, st.ID); err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	got, err := c.JobStatus(ctx, st.ID)
	if err != nil {
		t.Fatalf("JobStatus: %v", err)
	}
	if got.State != api.JobCanceled {
		t.Fatalf("state after cancel = %q", got.State)
	}
	// Cancel the blocker too; the injected delay honors its context, so
	// its event stream ends at once in the canceled state.
	if _, err := c.CancelJob(ctx, blocker.ID); err != nil {
		t.Fatalf("CancelJob blocker: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var last api.JobStatus
	if err := c.JobEvents(wctx, blocker.ID, func(s api.JobStatus) bool { last = s; return true }); err != nil {
		t.Fatalf("blocker JobEvents: %v", err)
	}
	if last.State != api.JobCanceled {
		t.Fatalf("blocker state after cancel = %q", last.State)
	}
}

// TestJobEventsStreams consumes the SSE stream through the client helper.
func TestJobEventsStreams(t *testing.T) {
	c := newServerAndClient(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	st, err := c.SubmitJob(ctx, &api.MapRequest{QASM: ghzQASM, Arch: "tokyo"})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	var states []string
	err = c.JobEvents(ctx, st.ID, func(s api.JobStatus) bool {
		if s.ID != st.ID {
			t.Errorf("event for job %q, want %q", s.ID, st.ID)
		}
		states = append(states, s.State)
		return true
	})
	if err != nil {
		t.Fatalf("JobEvents: %v", err)
	}
	if len(states) == 0 || states[len(states)-1] != api.JobDone {
		t.Fatalf("states = %v, want trailing done", states)
	}
	// Unknown job: the sentinel relation holds on the stream route too.
	if err := c.JobEvents(ctx, "nope", func(api.JobStatus) bool { return true }); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("events err = %v, want ErrJobNotFound", err)
	}
}

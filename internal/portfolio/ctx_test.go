package portfolio

import (
	"context"
	"errors"
	"testing"
	"time"

	"codar/internal/arch"
	"codar/internal/testutil"
	"codar/internal/workloads"
)

// TestCtxPreCanceled: a dead context aborts the run before any candidate is
// dispatched, with the typed sentinel matching the stdlib cause.
func TestCtxPreCanceled(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := benchCircuit(t, "qft_10")
	_, err := Run(b.Circuit(), arch.IBMQ20Tokyo(), Spec{Ctx: ctx, Workers: 2})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must also match context.Canceled", err)
	}
}

// TestCtxCancelMidRun: canceling a running portfolio aborts every in-flight
// candidate, stops dispatching queued ones, returns the typed error promptly
// and — the leak check — strands no pool worker. The 5,000-gate circuit
// keeps the uncanceled grid running about 35 times longer than the head
// start before the cancel (0.35 s on 2 vCPUs), so the cancel always lands
// mid-run; qft_16's grid took about 10 ms, as long as the head start.
func TestCtxCancelMidRun(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	c := workloads.Random(54, 5000, 45, 1)
	dev := arch.SycamoreQ54()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(c, dev, Spec{Ctx: ctx, Workers: 4, Seeds: []int64{1, 2, 3, 4}})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	canceledAt := time.Now()
	cancel()
	err := <-done
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if lag := time.Since(canceledAt); lag > 2*time.Second {
		t.Fatalf("abort lagged cancel by %v", lag)
	}
}

// TestCtxDeadline: an expired deadline classifies as ErrDeadline.
func TestCtxDeadline(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	b := benchCircuit(t, "qft_10")
	_, err := Run(b.Circuit(), arch.IBMQ20Tokyo(), Spec{Ctx: ctx, Workers: 2})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// TestCtxBackgroundIsByteIdentical: an inert context threads through the
// whole grid — placement passes included — without touching the winner or
// any report row.
func TestCtxBackgroundIsByteIdentical(t *testing.T) {
	b := benchCircuit(t, "qft_10")
	dev := arch.IBMQ20Tokyo()
	spec := Spec{Workers: 2, EarlyAbandon: true}
	plain, err := Run(b.Circuit(), dev, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Ctx = context.Background()
	withCtx, err := Run(b.Circuit(), dev, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, plain) != fingerprint(t, withCtx) {
		t.Fatal("background ctx changed the portfolio winner")
	}
	// Completed is deliberately not compared: with EarlyAbandon under
	// multiple workers, which losing candidates get cut before finishing
	// depends on dispatch timing. Only the winner is invariant.
	if plain.WinnerIndex != withCtx.WinnerIndex {
		t.Fatalf("winner diverged: %d vs %d", plain.WinnerIndex, withCtx.WinnerIndex)
	}
}

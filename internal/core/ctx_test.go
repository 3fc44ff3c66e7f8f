package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"codar/internal/arch"
	"codar/internal/qasm"
)

// TestCtxPreCanceled: a context that is already dead must abort before any
// mapping work, with the typed sentinel that also matches the stdlib cause.
func TestCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := randCircuit(1, 8, 60)
	_, err := Remap(c, arch.IBMQ20Tokyo(), nil, Options{Ctx: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must also match context.Canceled", err)
	}
}

// TestCtxExpiredDeadline: an expired deadline surfaces the deadline
// sentinel, not the cancel one.
func TestCtxExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c := randCircuit(2, 8, 60)
	_, err := Remap(c, arch.IBMQ20Tokyo(), nil, Options{Ctx: ctx})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, must also match context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v matches ErrCanceled; sentinels must stay distinct", err)
	}
}

// TestCtxCancelMidRunAbortsPromptly: canceling a Sycamore-sized mapping
// mid-run must abort within the amortized cadence, not run to completion.
// The circuit is large enough that a full run takes well over the abort
// budget asserted here.
func TestCtxCancelMidRunAbortsPromptly(t *testing.T) {
	c := randCircuit(3, 54, 20000)
	dev := arch.SycamoreQ54()
	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan res, 1)
	start := time.Now()
	go func() {
		_, err := Remap(c, dev, nil, Options{Ctx: ctx})
		done <- res{err: err, elapsed: time.Since(start)}
	}()
	time.Sleep(5 * time.Millisecond)
	canceledAt := time.Now()
	cancel()
	r := <-done
	if !errors.Is(r.err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled (run finished in %v?)", r.err, r.elapsed)
	}
	if lag := time.Since(canceledAt); lag > time.Second {
		t.Fatalf("abort lagged cancel by %v, want well under 1s", lag)
	}
}

// TestCtxBackgroundIsByteIdentical: an inert (background) context must not
// perturb the output in any way relative to a nil one — the bit-identity
// guarantee the Fig 8 pins rest on.
func TestCtxBackgroundIsByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 4, 9} {
		c := randCircuit(seed, 12, 300)
		dev := arch.IBMQ20Tokyo()
		plain, err := Remap(c, dev, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := Remap(c, dev, nil, Options{Ctx: context.Background()})
		if err != nil {
			t.Fatal(err)
		}
		if qasm.Write(plain.Circuit) != qasm.Write(withCtx.Circuit) {
			t.Fatalf("seed %d: background ctx changed the output", seed)
		}
		if plain.Makespan != withCtx.Makespan || plain.SwapCount != withCtx.SwapCount {
			t.Fatalf("seed %d: stats diverged: makespan %d/%d swaps %d/%d",
				seed, plain.Makespan, withCtx.Makespan, plain.SwapCount, withCtx.SwapCount)
		}
	}
}

// TestCtxLiveIsByteIdentical: a cancelable context that never fires must
// also leave the output untouched (the checker's polling path, not just the
// inactive fast path).
func TestCtxLiveIsByteIdentical(t *testing.T) {
	c := randCircuit(5, 12, 300)
	dev := arch.IBMQ20Tokyo()
	plain, err := Remap(c, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live, err := Remap(c, dev, nil, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if qasm.Write(plain.Circuit) != qasm.Write(live.Circuit) {
		t.Fatal("live (unfired) ctx changed the output")
	}
}

// TestCtxComposesWithDepthBound: both abort mechanisms armed — whichever
// fires decides the error, and an unfired ctx leaves DepthBound semantics
// intact.
func TestCtxComposesWithDepthBound(t *testing.T) {
	c := randCircuit(6, 10, 200)
	dev := arch.IBMQ20Tokyo()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bound arch.DepthBound
	bound.Tighten(1)
	_, err := Remap(c, dev, nil, Options{Ctx: ctx, DepthBound: &bound})
	if !errors.Is(err, ErrDepthBound) {
		t.Fatalf("err = %v, want ErrDepthBound with live ctx", err)
	}
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	var loose arch.DepthBound
	loose.Tighten(1 << 40)
	_, err = Remap(c, dev, nil, Options{Ctx: dead, DepthBound: &loose})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled with dead ctx and loose bound", err)
	}
}

// TestObservedRunStopsAtFirstDivergence: the observer cancels the run's
// context at its first divergence, so a run that diverges at its first
// front stops within ctxCheckEvery cycles instead of mapping the rest of
// the circuit, and the verdict is that divergence.
func TestObservedRunStopsAtFirstDivergence(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	r, err := newStreakRemapper(randCircuit(5, 16, 5000), dev, nil, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := observe(r)
	check := r.frontCheck
	r.frontCheck = func(front []int) {
		check(front)
		o.fail("injected divergence")
	}
	r.run(&cursor{})
	if err := o.checked(r); err == nil || err.Error() != "injected divergence" {
		t.Fatalf("verdict %v, want the injected divergence", err)
	}
	if r.cycles >= ctxCheckEvery || r.live == 0 {
		t.Fatalf("the run went on for %d cycles (%d gates left) after diverging at its first front", r.cycles, r.live)
	}
}

// Package pool is the bounded worker pool shared by the experiment driver
// (experiments.RunBatch), the portfolio search (portfolio.Run) and the
// service batch path. It is a near-dependency-free leaf so every fan-out in
// the tree uses one implementation of the clamp, the serial degeneration
// and the context-aware dispatch stop.
package pool

import (
	"context"
	"runtime"
	"sync"

	"codar/internal/interrupt"
)

// Workers resolves a worker-count knob: values <= 0 select GOMAXPROCS, and
// the result is clamped to n so tiny batches do not spawn idle goroutines.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Run executes jobs 0..n-1 across a bounded pool. workers <= 0 selects
// GOMAXPROCS; workers == 1 degenerates to a plain serial loop with no
// goroutine or channel traffic, making serial-vs-parallel comparisons
// honest. Error handling and panic recovery are the caller's concern: jobs
// record their outcomes into pre-indexed slots, which is also what keeps
// every caller's results deterministic under concurrency.
func Run(n, workers int, job func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// RunCtx is Run with a context-aware dispatcher: once ctx fires, no further
// job is started — in-flight jobs run to completion (jobs that want to stop
// early must watch ctx themselves), the workers drain, and RunCtx returns
// the classified context error (interrupt.ErrCanceled / ErrDeadline). Jobs
// never started are simply skipped; the caller decides how to report them.
// A nil ctx is exactly Run. RunCtx never leaks goroutines: every worker has
// exited by the time it returns.
func RunCtx(ctx context.Context, n, workers int, job func(i int)) error {
	if ctx == nil || ctx.Done() == nil {
		Run(n, workers, job)
		return nil
	}
	if n <= 0 {
		return interrupt.Classify(ctx)
	}
	done := ctx.Done()
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return interrupt.Classify(ctx)
			default:
			}
			job(i)
		}
		return interrupt.Classify(ctx)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		// A select with both cases ready picks one at random, so the dead
		// context is checked on its own before every send.
		select {
		case <-done:
			break dispatch
		default:
		}
		select {
		case next <- i:
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return interrupt.Classify(ctx)
}

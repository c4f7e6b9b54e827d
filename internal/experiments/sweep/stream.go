package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// StreamOptions tunes a StreamMap invocation.
type StreamOptions struct {
	// Parallel is the worker-pool size; <=0 means GOMAXPROCS.
	Parallel int
	// PointTimeout bounds each point's evaluation with its own deadline;
	// a point that outlives it is abandoned (see StreamMap) and reported
	// with context.DeadlineExceeded. Zero means no per-point deadline.
	PointTimeout time.Duration
}

// StreamMap is the worker pool every sweep runs on: Map, the experiment
// runner and the campaign runner all call it. It evaluates fn over
// points on Parallel workers and returns the outcomes in input order
// regardless of completion order. A panicking fn is captured into that
// point's Err without disturbing its siblings.
//
// Cancellation and deadlines abandon work; they do not wait for it.
// Once ctx is cancelled the pool starts no more points: each one not
// yet started reports "not started" with ctx's cause, without running
// fn. A point already in flight reports ctx's error at once; its fn
// keeps running in the background, with a cancelled context, until it
// returns, and StreamMap does not wait for it. A positive PointTimeout
// abandons a point the same way and reports context.DeadlineExceeded.
//
// sink, when non-nil, is invoked as each started point completes.
// Sink invocations are serialized (one at a time, in completion
// order), so callers can append to durable state such as a checkpoint
// file without their own locking; a sink error cancels the remaining
// points and is returned.
func StreamMap[P, R any](ctx context.Context, points []P, opts StreamOptions,
	fn func(context.Context, P) (R, error),
	sink func(i int, o Outcome[P, R]) error) ([]Outcome[P, R], error) {

	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(points) {
		parallel = len(points)
	}
	if parallel < 1 {
		parallel = 1
	}

	out := make([]Outcome[P, R], len(points))
	started := make([]bool, len(points))

	var (
		sinkMu  sync.Mutex
		sinkErr error
	)
	deliver := func(i int, o Outcome[P, R]) {
		out[i] = o
		if sink == nil {
			return
		}
		sinkMu.Lock()
		defer sinkMu.Unlock()
		if sinkErr != nil {
			return // already aborting; drop further deliveries
		}
		if err := sink(i, o); err != nil {
			sinkErr = err
			cancel()
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if o, ok := evalPoint(ctx, points[i], opts.PointTimeout, fn); ok {
					started[i] = true
					deliver(i, o)
				}
			}
		}()
	}
	// After cancellation the workers drain the remaining indices
	// without running fn, so every unstarted point is reported below.
	for i := range points {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i := range out {
		if !started[i] {
			out[i] = Outcome[P, R]{
				Point: points[i],
				Err:   fmt.Errorf("sweep: point %d not started: %w", i, context.Cause(ctx)),
			}
		}
	}
	sinkMu.Lock()
	err := sinkErr
	sinkMu.Unlock()
	return out, err
}

// evalPoint runs fn for one point under its own deadline, capturing
// panics as errors. It reports ok=false, without running fn, when ctx
// is already cancelled. fn runs in a child goroutine so a point that
// ignores its context can still be abandoned.
func evalPoint[P, R any](ctx context.Context, p P, timeout time.Duration, fn func(context.Context, P) (R, error)) (o Outcome[P, R], ok bool) {
	if ctx.Err() != nil {
		return o, false
	}
	start := time.Now()
	pctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	type result struct {
		v   R
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero R
				ch <- result{zero, fmt.Errorf("sweep: point panicked: %v", r)}
			}
		}()
		v, err := fn(pctx, p)
		ch <- result{v, err}
	}()
	o.Point = p
	select {
	case r := <-ch:
		o.Value, o.Err = r.v, r.err
	case <-pctx.Done():
		o.Err = pctx.Err()
	}
	o.Elapsed = time.Since(start)
	return o, true
}

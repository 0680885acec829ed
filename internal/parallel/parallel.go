// Package parallel is the repo's single deterministic work-pool: every
// concurrent fan-out — independent experiment arms and MVA sweep points —
// runs on these primitives rather than ad-hoc goroutines. It also holds
// Makespan, the model of concurrent work the simulator charges to the
// modeled clock; the simulated file system itself runs on one goroutine.
//
// The pool's contract is determinism: callers hand it n independent work
// items addressed by index, workers claim indexes from a shared counter,
// and every result lands in the slot its index owns. Because no item reads
// another item's output and merges happen in index order after the
// barrier, the observable result is bit-identical for every worker count,
// including 1. Randomized work keeps that property because each item seeds
// its own rand.Rand from its configuration instead of sharing one stream
// whose interleaving would depend on scheduling.
package parallel

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxAutoWorkers caps the automatic worker count, and is the lane count
// Makespan models when it is given none.
const maxAutoWorkers = 8

// Workers resolves a worker-count knob to a concrete count: w itself when
// positive, otherwise min(GOMAXPROCS, 8).
func Workers(w int) int {
	if w > 0 {
		return w
	}
	if n := runtime.GOMAXPROCS(0); n < maxAutoWorkers {
		return n
	}
	return maxAutoWorkers
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines (workers <= 0 selects the automatic count) and returns when
// all items are done. Items are claimed in index order from a shared
// counter, so short items load-balance; fn must only write state owned by
// its index. A panic in any item is re-raised on the caller's goroutine
// after the pool drains.
func ForEach(workers, n int, fn func(i int)) {
	if err := forEach(context.Background(), workers, n, fn); err != nil {
		panic(err) // unreachable: background context never cancels
	}
}

// ForEachCtx is ForEach with cancellation: once ctx is done, workers stop
// claiming new indexes, in-flight items run to completion, and the drained
// pool returns ctx.Err(). Items that never started are simply skipped, so
// the caller must treat a non-nil error as "results incomplete".
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	return forEach(ctx, workers, n, fn)
}

func forEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, r)
				}
			}()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
	return ctx.Err()
}

// Map runs fn for every index and returns the results in index order —
// the fan-out/ordered-collect shape of experiment arms and sweep points.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// Makespan models the wall-clock of executing tasks with the given
// durations on `lanes` parallel lanes: tasks are assigned in order to the
// lane that frees earliest (ties to the lowest lane). With one lane this is
// the serial sum; with lanes >= len(tasks) it is the max. lanes <= 0 models
// maxAutoWorkers lanes whatever the host, so a modeled wall never depends
// on GOMAXPROCS. The CP engine uses it to report flush wall-clock as
// max-over-groups plus merge rather than sum-over-groups, without making
// any measured counter depend on the lane count. Up to maxAutoWorkers lanes
// it allocates nothing.
func Makespan(tasks []time.Duration, lanes int) time.Duration {
	if lanes <= 0 {
		lanes = maxAutoWorkers
	}
	lanes = min(lanes, len(tasks))
	if lanes == 0 {
		return 0
	}
	var buf [maxAutoWorkers]time.Duration
	free := buf[:]
	if lanes > len(buf) {
		free = make([]time.Duration, lanes)
	}
	free = free[:lanes]
	for _, d := range tasks {
		earliest := 0
		for w := 1; w < lanes; w++ {
			if free[w] < free[earliest] {
				earliest = w
			}
		}
		free[earliest] += d
	}
	return slices.Max(free)
}

// Package parallel is the experiment engine's bounded worker pool. It
// fans embarrassingly parallel experiment stages — per-application
// counter gathering, per-fold training, per-tree fitting, per-family
// evaluation — across a fixed number of workers while preserving the
// repository's determinism contract: results are returned in input
// order, every task's work depends only on its own inputs (callers
// derive per-task RNG streams with stats.TaskSeed or the machine and
// collector Fork methods), and the observable outcome of Map and
// ForEach — results and error — is byte-identical for Workers=1 and
// Workers=N. Only wall-clock time changes with the worker count.
//
// Error semantics are deterministic by construction: when tasks fail,
// the error of the lowest-indexed failing task is returned, regardless
// of the wall-clock order in which workers observed failures. Dispatch
// is in input order and stops after a failure, so every task with a
// smaller index than an observed failure has already been dispatched
// and is allowed to finish; the minimum failing index is therefore the
// same one a sequential loop would have stopped at.
//
// A panicking task does not deadlock the pool: the panic is recovered
// into a *PanicError carrying the panic value and stack, and surfaces
// through the same deterministic error path.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Default returns the pool's default worker count: GOMAXPROCS, the
// number of CPUs the runtime will actually schedule on.
func Default() int { return runtime.GOMAXPROCS(0) }

// Normalize clamps a Workers knob to a usable count: zero or negative
// values fall back to Default().
func Normalize(workers int) int {
	if workers <= 0 {
		return Default()
	}
	return workers
}

// PanicError wraps a panic recovered from a task so it can propagate
// through the pool's error path instead of crashing a worker goroutine.
type PanicError struct {
	Index int    // task index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Index, e.Value)
}

// taskError pairs a task error with its index for deterministic
// selection.
type taskError struct {
	index int
	err   error
}

// Map applies fn to every item with at most workers concurrent calls
// and returns the results in input order. A workers value <= 0 uses
// Default(). fn receives the task's index alongside the item so callers
// can derive order-independent per-task state (RNG streams, labels).
//
// On failure Map returns a nil slice and the error of the lowest-
// indexed failing task; on context cancellation it stops dispatching,
// waits for in-flight tasks to drain, and returns ctx.Err() (unless an
// earlier-indexed task error takes precedence). An empty item slice
// returns (nil, nil) immediately without spawning goroutines.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, index int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Normalize(workers)
	if workers > n {
		workers = n
	}

	results := make([]R, n)
	if workers == 1 {
		// Sequential fast path: same semantics, no goroutines.
		for i := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := safeCall(ctx, i, items[i], fn)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	var (
		mu     sync.Mutex
		failed bool
		errs   []taskError
	)
	record := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		errs = append(errs, taskError{i, err})
		failed = true
	}
	stopped := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return failed
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idxCh {
				r, err := safeCall(ctx, i, items[i], fn)
				if err != nil {
					record(i, err)
					continue
				}
				results[i] = r
			}
		}()
	}

	var ctxErr error
dispatch:
	for i := 0; i < n; i++ {
		if stopped() {
			break
		}
		select {
		case idxCh <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break dispatch
		}
	}
	close(idxCh)
	wg.Wait()

	// Deterministic error selection: lowest failing index wins; a task
	// error at index i beats a cancellation observed at dispatch index
	// > i (a sequential run would have failed at i before cancelling).
	if len(errs) > 0 {
		min := errs[0]
		for _, te := range errs[1:] {
			if te.index < min.index {
				min = te
			}
		}
		return nil, min.err
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	return results, nil
}

// ForEach applies fn to every item with at most workers concurrent
// calls, with Map's dispatch, cancellation and error semantics.
func ForEach[T any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, index int, item T) error) error {
	_, err := Map(ctx, workers, items, func(ctx context.Context, i int, item T) (struct{}, error) {
		return struct{}{}, fn(ctx, i, item)
	})
	return err
}

// safeCall invokes fn and converts a panic into a *PanicError.
func safeCall[T, R any](ctx context.Context, i int, item T, fn func(ctx context.Context, index int, item T) (R, error)) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i, item)
}

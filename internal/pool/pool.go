// Package pool provides the bounded worker pool behind the parallel
// evaluation pipeline: ordered fan-out of a fixed index space across a
// configurable number of goroutines. Results come back in index order, so
// callers that assemble rows from them produce byte-identical output at
// any width — the property the artefact golden files pin down.
//
// A cancelled context stops Map from handing out new indices, and the call
// returns an error wrapping the context's error.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWidth is the pool width used when callers pass a non-positive
// width: one worker per schedulable CPU.
func DefaultWidth() int { return runtime.GOMAXPROCS(0) }

// Map evaluates fn(i) for every i in [0, n) on up to width goroutines
// and returns the results in index order. A non-positive width means
// DefaultWidth; width 1 runs inline with no goroutines. On failure Map
// stops handing out new indices and returns the error of the lowest
// failing index among those evaluated, with a nil slice.
//
// Cancellation is checked before every index: once ctx is done, no new
// fn(i) starts (in-flight calls finish) and the returned error wraps
// ctx.Err(), so callers can errors.Is it against context.Canceled or
// context.DeadlineExceeded.
func Map[T any](ctx context.Context, width, n int, fn func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if width <= 0 {
		width = DefaultWidth()
	}
	if width > n {
		width = n
	}
	out := make([]T, n)
	if width == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("pool: cancelled before index %d: %w", i, err)
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstIdx = -1
		firstErr error
	)
	fail := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(i, fmt.Errorf("pool: cancelled before index %d: %w", i, err))
				return
			}
			v, err := fn(i)
			if err != nil {
				fail(i, err)
				return
			}
			out[i] = v
		}
	}
	wg.Add(width)
	for w := 0; w < width; w++ {
		go worker()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrderAtEveryWidth(t *testing.T) {
	const n = 100
	for _, width := range []int{1, 2, 3, 16, 0, n + 5} {
		out, err := Map(context.Background(), width, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(out) != n {
			t.Fatalf("width %d: got %d results, want %d", width, len(out), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("width %d: out[%d] = %d, want %d", width, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Errorf("empty map: got (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, width := range []int{1, 4} {
		out, err := Map(context.Background(), width, 50, func(i int) (int, error) {
			if i == 7 {
				return 0, fmt.Errorf("index %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("width %d: error %v, want wrapped boom", width, err)
		}
		if out != nil {
			t.Errorf("width %d: results %v returned alongside error", width, out)
		}
	}
}

func TestMapStopsHandingOutWorkAfterError(t *testing.T) {
	var calls atomic.Int64
	_, err := Map(context.Background(), 2, 10_000, func(i int) (int, error) {
		calls.Add(1)
		return 0, errors.New("immediate failure")
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	// Both workers can fail once each before observing the flag, but the
	// remaining thousands of indices must be skipped.
	if c := calls.Load(); c > 4 {
		t.Errorf("%d calls after failure, want early stop", c)
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	out, err := Map(ctx, 4, 100, func(i int) (int, error) {
		calls.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want wrapped context.Canceled", err)
	}
	if out != nil {
		t.Errorf("results %v returned alongside cancellation", out)
	}
	if c := calls.Load(); c != 0 {
		t.Errorf("%d calls despite pre-cancelled context", c)
	}
}

func TestMapCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	_, err := Map(ctx, 2, 10_000, func(i int) (int, error) {
		if calls.Add(1) == 3 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want wrapped context.Canceled", err)
	}
	// The two in-flight cells may finish, but the remaining thousands of
	// indices must be skipped once the cancellation is observed.
	if c := calls.Load(); c > 8 {
		t.Errorf("%d calls after cancellation, want early stop", c)
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) {
	const width = 4
	arrived := make(chan struct{}, width)
	release := make(chan struct{})
	done := make(chan struct{})
	var out []int
	var err error
	go func() {
		defer close(done)
		out, err = Map(context.Background(), width, width, func(i int) (int, error) {
			arrived <- struct{}{}
			<-release // holds every worker until all have arrived
			return i, nil
		})
	}()
	// All width workers must arrive while all are blocked; a serial pool
	// would stall here and trip the test timeout.
	for i := 0; i < width; i++ {
		<-arrived
	}
	close(release)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Errorf("out[%d] = %d, want %d", i, v, i)
		}
	}
}

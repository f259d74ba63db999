package expt

// determinism_test.go pins the two guarantees the sweep executor makes:
// every artefact is identical at any pool width, and a repeated full
// evaluation is served almost entirely from the simulator result cache.

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"heterohadoop/internal/sim"
)

// TestPoolWidthDeterminism regenerates every artefact serially and at full
// pool width and requires the tables to match exactly — parallel fan-out
// must never reorder or perturb a row.
func TestPoolWidthDeterminism(t *testing.T) {
	defer restoreExecState(t)()
	for _, g := range All() {
		SetParallelism(1)
		serial, err := g.Run(context.Background())
		if err != nil {
			t.Fatalf("%s serial: %v", g.ID, err)
		}
		SetParallelism(runtime.NumCPU())
		parallel, err := g.Run(context.Background())
		if err != nil {
			t.Fatalf("%s parallel: %v", g.ID, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s differs between pool width 1 and %d:\nserial:   %v\nparallel: %v",
				g.ID, runtime.NumCPU(), serial.Rows, parallel.Rows)
		}
	}
}

// TestSecondPassServedFromCache runs the full evaluation twice from a cold
// cache and requires the second pass to hit the cache at least 90% of the
// time — the cross-artefact memoization the executor exists for.
func TestSecondPassServedFromCache(t *testing.T) {
	defer restoreExecState(t)()
	SetParallelism(runtime.NumCPU())
	sim.ResetCache()
	runAll := func() {
		for _, g := range All() {
			if _, err := g.Run(context.Background()); err != nil {
				t.Fatalf("%s: %v", g.ID, err)
			}
		}
	}
	runAll()
	first := sim.Stats()
	runAll()
	second := sim.Stats()

	misses := second.Misses - first.Misses
	served := (second.Hits - first.Hits) + (second.Coalesced - first.Coalesced)
	total := served + misses
	if total == 0 {
		t.Fatal("second pass issued no simulator requests")
	}
	rate := float64(served) / float64(total)
	t.Logf("second pass: %d served from cache, %d misses (%.1f%% hit rate)", served, misses, 100*rate)
	if rate < 0.90 {
		t.Errorf("second-pass cache hit rate %.1f%% < 90%%", 100*rate)
	}
}

// restoreExecState resets the pool width and the shared result cache when a
// test that mutates them finishes.
func restoreExecState(t *testing.T) func() {
	t.Helper()
	prev := SetParallelism(0)
	SetParallelism(prev)
	return func() {
		SetParallelism(prev)
		sim.ResetCache()
	}
}

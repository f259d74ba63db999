package sim

import (
	"context"
	"errors"
	"testing"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
)

func TestValidateWrapsSentinels(t *testing.T) {
	cluster, job := testJob(t)

	bad := cluster
	bad.Nodes = 0
	if err := bad.Validate(); !errors.Is(err, ErrInvalidCluster) {
		t.Errorf("zero-node cluster: %v, want wrapped ErrInvalidCluster", err)
	}

	noName := job
	noName.Name = ""
	if err := noName.Validate(); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("nameless job: %v, want wrapped ErrInvalidJob", err)
	}

	offGrid := job
	offGrid.Frequency = 2.5 * units.GHz
	if _, err := Run(context.Background(), cluster, offGrid); !errors.Is(err, ErrUnsupportedFrequency) {
		t.Errorf("2.5GHz run: %v, want wrapped ErrUnsupportedFrequency", err)
	}
}

func TestRunCtxEmitsSpanAndGauges(t *testing.T) {
	cluster, job := testJob(t)
	c := obs.NewCollector()
	ctx := obs.NewContext(context.Background(), c)

	rep, err := Run(ctx, cluster, job)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.SpanCount("sim.run"); n != 1 {
		t.Errorf("sim.run span count %d, want 1", n)
	}
	snap := c.Snapshot()
	name := "sim.phase." + PhaseMap.String() + ".seconds"
	got, ok := snap.Gauges[name]
	if !ok {
		t.Fatalf("gauge %s missing; gauges: %v", name, snap.Gauges)
	}
	if want := float64(rep.Phases[PhaseMap].Time); got != want {
		t.Errorf("gauge %s = %v, want %v", name, got, want)
	}
}

func TestRunCachedCtxCancelledIsNotMemoized(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cluster, job := testJob(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCached(ctx, cluster, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunCached: %v, want wrapped context.Canceled", err)
	}
	// The aborted lookup must not poison the cache: a fresh context computes
	// the report as a plain miss.
	if _, err := RunCached(context.Background(), cluster, job); err != nil {
		t.Fatalf("RunCached after cancelled attempt: %v", err)
	}
	if s := Stats(); s.Entries != 1 || s.InFlight != 0 {
		t.Errorf("stats after recovery: %+v, want 1 entry and 0 in flight", s)
	}
}

func TestRunCachedCtxEmitsCacheCounters(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cluster, job := testJob(t)
	c := obs.NewCollector()
	ctx := obs.NewContext(context.Background(), c)

	if _, err := RunCached(ctx, cluster, job); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached(ctx, cluster, job); err != nil {
		t.Fatal(err)
	}
	if n := c.Counter("sim.cache.misses"); n != 1 {
		t.Errorf("sim.cache.misses = %d, want 1", n)
	}
	if n := c.Counter("sim.cache.hits"); n != 1 {
		t.Errorf("sim.cache.hits = %d, want 1", n)
	}
}

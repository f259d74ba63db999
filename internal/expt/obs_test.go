package expt

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/sim"
)

// cancelOnSimWork is an observer that cancels its context the first time
// the simulator layer does any work — a sim.run span on a cache miss, or a
// cache counter on a hit/coalesce — so cancellation fires mid-sweep
// regardless of the process-wide cache's state.
type cancelOnSimWork struct {
	obs.Observer
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnSimWork) Enabled() bool { return true }

func (c *cancelOnSimWork) SpanStart(name string, attrs []obs.Attr) obs.SpanID {
	if name == "sim.run" {
		c.once.Do(c.cancel)
	}
	return c.Observer.SpanStart(name, attrs)
}

func (c *cancelOnSimWork) Count(name string, delta int64) {
	if strings.HasPrefix(name, "sim.cache.") {
		c.once.Do(c.cancel)
	}
	c.Observer.Count(name, delta)
}

func TestGeneratorCancelMidSweepAborts(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	g, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelOnSimWork{Observer: obs.NewCollector(), cancel: cancel}
	ctx = obs.NewContext(ctx, tr)

	tbl, err := g.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fig3 after mid-sweep cancel: %v, want wrapped context.Canceled", err)
	}
	if len(tbl.Rows) != 0 {
		t.Errorf("%d rows returned alongside cancellation", len(tbl.Rows))
	}
}

func TestGeneratorCtxPreCancelled(t *testing.T) {
	g, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Run: %v, want wrapped context.Canceled", err)
	}
}

func TestGeneratorEmitsArtefactSpan(t *testing.T) {
	g, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	ctx := obs.NewContext(context.Background(), c)
	if _, err := g.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if n := c.SpanCount("expt.artefact"); n != 1 {
		t.Errorf("expt.artefact span count %d, want 1", n)
	}
	// The sweep behind fig3 must surface at the simulator layer too —
	// either fresh sim.run spans or cache counters, depending on what
	// earlier tests left in the process-wide cache.
	snap := c.Snapshot()
	simWork := snap.Spans["sim.run"].Count +
		snap.Counters["sim.cache.hits"] + snap.Counters["sim.cache.misses"] + snap.Counters["sim.cache.coalesced"]
	if simWork == 0 {
		t.Error("no simulator-level telemetry recorded under fig3")
	}
}

func TestByIDWrapsErrUnknownArtefact(t *testing.T) {
	_, err := ByID("fig99")
	if !errors.Is(err, ErrUnknownArtefact) {
		t.Errorf("ByID(fig99): %v, want wrapped ErrUnknownArtefact", err)
	}
}

// TestExtensionArtefactsCarryContext pins that ext-phasesplit and ext-dvfs
// hand their context to every simulator call: the run's cache lookups are
// counted on the context's observer, and a cancelled context stops them.
func TestExtensionArtefactsCarryContext(t *testing.T) {
	for _, id := range []string{"ext-phasesplit", "ext-dvfs"} {
		t.Run(id, func(t *testing.T) {
			g, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			sim.ResetCache()
			c := obs.NewCollector()
			if _, err := g.Run(obs.NewContext(context.Background(), c)); err != nil {
				t.Fatal(err)
			}
			if n := c.Counter("sim.cache.hits") + c.Counter("sim.cache.misses"); n == 0 {
				t.Error("no sim.cache.* lookups attributed to the run")
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := g.Run(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled run: %v, want wrapped context.Canceled", err)
			}
		})
	}
}

package expt

import (
	"context"
	"errors"
	"testing"

	"heterohadoop/internal/obs"
)

// cancelOnSimRun is an observer that cancels its context at the first
// sim.run span, so cancellation fires mid-sweep.
type cancelOnSimRun struct {
	obs.Observer
	cancel context.CancelFunc
}

func (c *cancelOnSimRun) Enabled() bool { return true }

func (c *cancelOnSimRun) SpanStart(name string, attrs []obs.Attr) obs.SpanID {
	if name == "sim.run" {
		c.cancel()
	}
	return c.Observer.SpanStart(name, attrs)
}

func TestGeneratorCancelMidSweepAborts(t *testing.T) {
	g, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelOnSimRun{Observer: obs.NewCollector(), cancel: cancel}
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
	// The sweep behind fig3 must surface at the simulator layer too: one
	// sim.run span per cell.
	if n := c.SpanCount("sim.run"); n == 0 {
		t.Error("no sim.run spans recorded under fig3")
	}
}

func TestByIDWrapsErrUnknownArtefact(t *testing.T) {
	_, err := ByID("fig99")
	if !errors.Is(err, ErrUnknownArtefact) {
		t.Errorf("ByID(fig99): %v, want wrapped ErrUnknownArtefact", err)
	}
}

// TestExtensionArtefactsCarryContext pins that ext-phasesplit and ext-dvfs
// hand their context to every simulator call: the run's sim.run spans are
// recorded on the context's observer, and a cancelled context stops them.
func TestExtensionArtefactsCarryContext(t *testing.T) {
	for _, id := range []string{"ext-phasesplit", "ext-dvfs"} {
		t.Run(id, func(t *testing.T) {
			g, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			c := obs.NewCollector()
			if _, err := g.Run(obs.NewContext(context.Background(), c)); err != nil {
				t.Fatal(err)
			}
			if n := c.SpanCount("sim.run"); n == 0 {
				t.Error("no sim.run spans attributed to the run")
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := g.Run(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled run: %v, want wrapped context.Canceled", err)
			}
		})
	}
}

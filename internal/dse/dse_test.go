package dse

import (
	"context"
	"testing"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func explore(t *testing.T) []Result {
	t.Helper()
	rs, err := Explore(context.Background(), DefaultSpace(), PaperMix(), 256*units.MB, 1.8*units.GHz, 8)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func byName(t *testing.T, rs []Result, name string) Result {
	t.Helper()
	for _, r := range rs {
		if r.Candidate.Name == name {
			return r
		}
	}
	t.Fatalf("no result for %s", name)
	return Result{}
}

func TestExploreScoresAllCandidates(t *testing.T) {
	rs := explore(t)
	if len(rs) != len(DefaultSpace()) {
		t.Fatalf("got %d results, want %d", len(rs), len(DefaultSpace()))
	}
	for _, r := range rs {
		if r.Delay <= 0 || r.Energy <= 0 || r.Area <= 0 {
			t.Errorf("%s: degenerate result %+v", r.Candidate.Name, r)
		}
	}
	// Sorted by EDP ascending.
	for i := 1; i < len(rs); i++ {
		if rs[i].EDP() < rs[i-1].EDP() {
			t.Error("results not sorted by EDP")
		}
	}
}

func TestShippedChipsSpanTheFrontier(t *testing.T) {
	rs := explore(t)
	atom := byName(t, rs, "atom-c2758")
	xeon := byName(t, rs, "xeon-e5-2420")
	// The paper's trade-off in DSE terms: the little chip is smaller and
	// frugal, the big chip faster.
	if atom.Area >= xeon.Area {
		t.Error("little chip not smaller")
	}
	if atom.Energy >= xeon.Energy {
		t.Error("little chip not more frugal")
	}
	if xeon.Delay >= atom.Delay {
		t.Error("big chip not faster")
	}
	// Neither shipped chip dominates the other, so both are on the
	// (delay, energy, area) frontier.
	if !atom.Pareto || !xeon.Pareto {
		t.Errorf("shipped chips off the frontier: atom=%v xeon=%v", atom.Pareto, xeon.Pareto)
	}
}

func TestHypotheticalVariantsBehave(t *testing.T) {
	rs := explore(t)
	atom := byName(t, rs, "atom-c2758")
	wide := byName(t, rs, "little-3wide")
	if wide.Delay >= atom.Delay {
		t.Error("3-wide little core not faster than 2-wide")
	}
	if wide.Area <= atom.Area {
		t.Error("3-wide little core not bigger")
	}
	xeon := byName(t, rs, "xeon-e5-2420")
	inorder := byName(t, rs, "big-inorder")
	if inorder.Delay <= xeon.Delay {
		t.Error("stripping out-of-order machinery did not slow the big core")
	}
	if inorder.Area >= xeon.Area {
		t.Error("stripping out-of-order machinery did not shrink the chip")
	}
	bigL2 := byName(t, rs, "little-bigL2")
	if bigL2.Delay >= atom.Delay {
		t.Error("4MB L2 did not speed up the little core")
	}
}

func TestParetoSemantics(t *testing.T) {
	rs := []Result{
		{Delay: 10, Energy: 10, Area: 10},
		{Delay: 5, Energy: 5, Area: 5},   // dominates everything
		{Delay: 5, Energy: 5, Area: 5},   // duplicate: neither dominates the other
		{Delay: 20, Energy: 1, Area: 30}, // frugal outlier: non-dominated
	}
	markPareto(rs)
	if rs[0].Pareto {
		t.Error("dominated result marked Pareto")
	}
	if !rs[1].Pareto || !rs[2].Pareto {
		t.Error("duplicate optima should both be Pareto")
	}
	if !rs[3].Pareto {
		t.Error("energy outlier should be Pareto")
	}
}

func TestExploreValidation(t *testing.T) {
	if _, err := Explore(context.Background(), nil, PaperMix(), 256*units.MB, 1.8*units.GHz, 8); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := Explore(context.Background(), DefaultSpace(), nil, 256*units.MB, 1.8*units.GHz, 8); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := Explore(context.Background(), DefaultSpace(), PaperMix(), 256*units.MB, 1.8*units.GHz, 99); err == nil {
		t.Error("out-of-range core count accepted")
	}
}

func TestCloneCoreIsolation(t *testing.T) {
	base := DefaultSpace()[0].Core
	clone := cloneCore(base, "clone")
	clone.Hierarchy.Levels[0].Size *= 2
	if base.Hierarchy.Levels[0].Size == clone.Hierarchy.Levels[0].Size {
		t.Error("clone shares the hierarchy slice")
	}
}

func TestPaperMixShape(t *testing.T) {
	mix := PaperMix()
	if len(mix) != len(workloads.All()) {
		t.Fatalf("mix has %d entries", len(mix))
	}
	for _, e := range mix {
		if e.Weight != 1 || e.Data <= 0 {
			t.Errorf("bad entry %+v", e)
		}
	}
}

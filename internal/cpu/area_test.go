package cpu

import (
	"math"
	"testing"

	"heterohadoop/internal/units"
)

// TestAreaMatchesDatasheets validates the McPAT-style model against the
// paper's datasheet inputs: Atom 160 mm², Xeon 216 mm² (within 5%).
func TestAreaMatchesDatasheets(t *testing.T) {
	for _, c := range []Core{AtomC2758(), XeonE52420()} {
		b := EstimateArea(c)
		rel := math.Abs(float64(b.Total-c.Area)) / float64(c.Area)
		if rel > 0.05 {
			t.Errorf("%s: estimated %.1f mm² vs datasheet %v (%.1f%% off)", c.Name, float64(b.Total), c.Area, 100*rel)
		}
		if got := b.CoresArea + b.CacheArea + b.UncoreArea; math.Abs(float64(got-b.Total)) > 1e-9 {
			t.Errorf("%s: breakdown does not sum to total", c.Name)
		}
	}
}

// TestAreaScalesWithStructure checks the model's sensitivities: wider cores
// cost quadratically more, out-of-order machinery costs extra, caches cost
// by capacity, SoC integration dominates the little chip's uncore.
func TestAreaScalesWithStructure(t *testing.T) {
	atom := AtomC2758()
	wide := atom
	wide.IssueWidth = 4
	if EstimateArea(wide).CoresArea <= EstimateArea(atom).CoresArea {
		t.Error("wider cores did not cost area")
	}
	xeon := XeonE52420()
	inOrder := xeon
	inOrder.Kind = Little
	if EstimateArea(inOrder).CoresArea >= EstimateArea(xeon).CoresArea {
		t.Error("dropping out-of-order machinery did not shrink core area")
	}
	// The Levels slice is shared by struct copies, so build a fresh core
	// before mutating its hierarchy.
	bigCache := XeonE52420()
	bigCache.Hierarchy.Levels[2].Size *= 2
	if EstimateArea(bigCache).CacheArea <= EstimateArea(XeonE52420()).CacheArea {
		t.Error("doubling L3 did not grow cache area")
	}
	if EstimateArea(atom).UncoreArea <= EstimateArea(xeon).UncoreArea-units.SquareMM(uncorePerCore*8) {
		// SoC uncore (with platform hub) exceeds the socketed chip's base.
		t.Error("SoC uncore not larger than server uncore base")
	}
}

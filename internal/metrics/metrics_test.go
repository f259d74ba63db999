package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"heterohadoop/internal/units"
)

func TestEDPFamily(t *testing.T) {
	s := Sample{Energy: 100, Delay: 10, Area: 160}
	if got := s.EDP(); got != 1000 {
		t.Errorf("EDP = %v, want 1000", got)
	}
	if got := s.ED2P(); got != 10000 {
		t.Errorf("ED2P = %v, want 10000", got)
	}
	if got := s.ED3P(); got != 100000 {
		t.Errorf("ED3P = %v, want 100000", got)
	}
	if got := s.EDAP(); got != 160000 {
		t.Errorf("EDAP = %v, want 160000", got)
	}
	if got := s.ED2AP(); got != 1600000 {
		t.Errorf("ED2AP = %v, want 1.6e6", got)
	}
	if got := s.EDxP(0); got != 100 {
		t.Errorf("EDxP(0) = %v, want energy alone", got)
	}
}

func TestHigherXRewardsSpeed(t *testing.T) {
	// A platform 2x faster at 3x the energy loses on EDP but wins on ED3P:
	// the paper's observation that performance constraints favour big cores.
	slow := Sample{Energy: 100, Delay: 20}
	fast := Sample{Energy: 300, Delay: 10}
	if fast.EDP() <= slow.EDP() {
		t.Error("EDP should favour the frugal platform")
	}
	if fast.ED3P() >= slow.ED3P() {
		t.Error("ED3P should favour the fast platform")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(10, 4); got != 2.5 {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(10, 0); got != 0 {
		t.Errorf("Ratio by zero = %v, want 0", got)
	}
}

func TestEDxPMonotoneProperty(t *testing.T) {
	// For delay > 1, EDxP grows with x; for delay < 1 it shrinks.
	f := func(eRaw, dRaw uint16) bool {
		s := Sample{Energy: units.Joules(eRaw%1000 + 1), Delay: units.Seconds(float64(dRaw%100) + 1.5)}
		return s.EDP() < s.ED2P() && s.ED2P() < s.ED3P()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	small := Sample{Energy: 10, Delay: 0.5}
	if !(small.EDP() > small.ED2P() && small.ED2P() > small.ED3P()) {
		t.Error("sub-second delays should shrink with x")
	}
}

func TestAreaScalesEDAPLinearly(t *testing.T) {
	f := func(aRaw uint16) bool {
		area := units.SquareMM(aRaw%500 + 1)
		s := Sample{Energy: 50, Delay: 2, Area: area}
		return math.Abs(s.EDAP()-s.EDP()*float64(area)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package traditional

import (
	"testing"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/power"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func measure(t *testing.T, core cpu.Core, pm power.Model, s Suite) Measurement {
	t.Helper()
	m, err := Measure(core, pm, s, 1.8*units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func hadoopAvgIPC(t *testing.T, core cpu.Core) float64 {
	t.Helper()
	sum, n := 0.0, 0
	for _, w := range workloads.All() {
		timing, err := core.Run(w.Spec().MapProfile, 64*units.MB, 1.8*units.GHz)
		if err != nil {
			t.Fatal(err)
		}
		sum += timing.IPC
		n++
	}
	return sum / float64(n)
}

// TestFig1Shape asserts Fig 1's orderings: traditional IPC well above
// Hadoop IPC on both cores, the big core ahead of the little core
// everywhere, and a larger Hadoop-vs-traditional drop on the big core.
func TestFig1Shape(t *testing.T) {
	atom, xeon := cpu.AtomC2758(), cpu.XeonE52420()
	specA := measure(t, atom, power.AtomNode(), SPEC)
	specX := measure(t, xeon, power.XeonNode(), SPEC)
	parsecA := measure(t, atom, power.AtomNode(), PARSEC)
	parsecX := measure(t, xeon, power.XeonNode(), PARSEC)
	hadoopA := hadoopAvgIPC(t, atom)
	hadoopX := hadoopAvgIPC(t, xeon)

	t.Logf("IPC: spec a=%.2f x=%.2f | parsec a=%.2f x=%.2f | hadoop a=%.2f x=%.2f",
		specA.IPC, specX.IPC, parsecA.IPC, parsecX.IPC, hadoopA, hadoopX)

	if specA.IPC <= hadoopA || specX.IPC <= hadoopX {
		t.Error("SPEC IPC not above Hadoop IPC")
	}
	if parsecA.IPC <= hadoopA || parsecX.IPC <= hadoopX {
		t.Error("PARSEC IPC not above Hadoop IPC")
	}
	if specX.IPC <= specA.IPC || parsecX.IPC <= parsecA.IPC || hadoopX <= hadoopA {
		t.Error("big core IPC not above little core IPC")
	}
	// Paper: the IPC drop from traditional to Hadoop is larger on the big
	// core (2.16x) than the little core (1.55x).
	dropX := specX.IPC / hadoopX
	dropA := specA.IPC / hadoopA
	if dropX <= dropA {
		t.Errorf("Hadoop IPC drop on big core (%.2f) not above little core (%.2f)", dropX, dropA)
	}
}

// TestFig2Shape asserts Fig 2's orderings: EDxP ratios (Atom/Xeon) grow
// with the delay exponent, the big core overtakes under tight performance
// constraints sooner for traditional suites than for Hadoop, and plain EDP
// favours the little core for every suite.
func TestFig2Shape(t *testing.T) {
	atomP, xeonP := power.AtomNode(), power.XeonNode()
	for _, s := range []Suite{SPEC, PARSEC} {
		a := measure(t, cpu.AtomC2758(), atomP, s)
		x := measure(t, cpu.XeonE52420(), xeonP, s)
		edp := a.Sample.EDP() / x.Sample.EDP()
		ed2p := a.Sample.ED2P() / x.Sample.ED2P()
		ed3p := a.Sample.ED3P() / x.Sample.ED3P()
		t.Logf("%v: EDP=%.2f ED2P=%.2f ED3P=%.2f (atom/xeon)", s, edp, ed2p, ed3p)
		if !(edp < ed2p && ed2p < ed3p) {
			t.Errorf("%v: EDxP ratio not increasing in x: %.2f %.2f %.2f", s, edp, ed2p, ed3p)
		}
		if edp >= 1 {
			t.Errorf("%v: EDP ratio %.2f, want < 1 (little core wins plain EDP)", s, edp)
		}
		if ed3p <= 1 {
			t.Errorf("%v: ED3P ratio %.2f, want > 1 (big core wins under tight constraints)", s, ed3p)
		}
	}
}

// TestMeasureRejectsBadFrequency checks validation.
func TestMeasureRejectsBadFrequency(t *testing.T) {
	if _, err := Measure(cpu.AtomC2758(), power.AtomNode(), SPEC, 2.4*units.GHz); err == nil {
		t.Error("unsupported frequency accepted")
	}
}

func TestSuiteString(t *testing.T) {
	if SPEC.String() != "spec2006" || PARSEC.String() != "parsec2.1" {
		t.Error("suite names wrong")
	}
}

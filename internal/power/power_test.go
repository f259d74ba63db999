package power

import (
	"math"
	"testing"
	"testing/quick"

	"heterohadoop/internal/units"
)

func fullLoad(f units.Hertz, cores int) Draw {
	return Draw{ActiveCores: cores, Activity: 1, MemPressure: 0.5, DiskPressure: 0.3, F: f}
}

func TestShippedModelsValidate(t *testing.T) {
	for _, m := range []Model{AtomNode(), XeonNode()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	mutations := []func(*Model){
		func(m *Model) { m.Name = "" },
		func(m *Model) { m.Curve = nil },
		func(m *Model) { m.Curve[0].V = 0 },
		func(m *Model) { m.Curve[1].F = m.Curve[0].F },
		func(m *Model) { m.Curve[1].V = m.Curve[0].V - 0.1 },
		func(m *Model) { m.CoreDynamicNominal = 0 },
		func(m *Model) { m.CoreStatic = -1 },
		func(m *Model) { m.DiskActive = -0.5 },
	}
	for i, mut := range mutations {
		m := AtomNode()
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestVoltageInterpolation(t *testing.T) {
	m := AtomNode()
	if got := m.VoltageAt(1.2 * units.GHz); got != 0.85 {
		t.Errorf("V(1.2GHz) = %v, want 0.85", got)
	}
	if got := m.VoltageAt(1.8 * units.GHz); got != 1.00 {
		t.Errorf("V(1.8GHz) = %v, want 1.0", got)
	}
	got := m.VoltageAt(1.3 * units.GHz)
	if math.Abs(float64(got)-0.875) > 1e-9 {
		t.Errorf("V(1.3GHz) = %v, want 0.875 (midpoint)", got)
	}
	// Clamping outside the curve.
	if got := m.VoltageAt(0.8 * units.GHz); got != 0.85 {
		t.Errorf("V below curve = %v, want clamp to 0.85", got)
	}
	if got := m.VoltageAt(2.4 * units.GHz); got != 1.00 {
		t.Errorf("V above curve = %v, want clamp to 1.0", got)
	}
}

func TestCoreDynamicScalesWithVSquaredF(t *testing.T) {
	m := XeonNode()
	nom := m.CoreDynamic(1.8*units.GHz, 1)
	if math.Abs(float64(nom-m.CoreDynamicNominal)) > 1e-9 {
		t.Errorf("nominal dynamic = %v, want %v", nom, m.CoreDynamicNominal)
	}
	low := m.CoreDynamic(1.2*units.GHz, 1)
	wantScale := (0.90 * 0.90 * 1.2) / (1.05 * 1.05 * 1.8)
	if math.Abs(float64(low)/float64(nom)-wantScale) > 1e-9 {
		t.Errorf("low-f scale = %v, want %v", float64(low)/float64(nom), wantScale)
	}
	// Activity scales linearly and clamps.
	half := m.CoreDynamic(1.8*units.GHz, 0.5)
	if math.Abs(float64(half)*2-float64(nom)) > 1e-9 {
		t.Errorf("half activity = %v, want half of %v", half, nom)
	}
	if got := m.CoreDynamic(1.8*units.GHz, 2); got != nom {
		t.Errorf("activity not clamped above 1: %v", got)
	}
	if got := m.CoreDynamic(1.8*units.GHz, -1); got != 0 {
		t.Errorf("activity not clamped below 0: %v", got)
	}
}

func TestDynamicPowerMonotonicInFrequency(t *testing.T) {
	for _, m := range []Model{AtomNode(), XeonNode()} {
		prev := units.Watts(0)
		for _, f := range []units.Hertz{1.2, 1.4, 1.6, 1.8} {
			p := m.Dynamic(fullLoad(f*units.GHz, 4))
			if p <= prev {
				t.Errorf("%s: dynamic power not increasing at %v GHz: %v <= %v", m.Name, f, p, prev)
			}
			prev = p
		}
	}
}

func TestDynamicPowerMonotonicInCores(t *testing.T) {
	m := AtomNode()
	prev := units.Watts(-1)
	for cores := 0; cores <= 8; cores += 2 {
		p := m.Dynamic(fullLoad(1.8*units.GHz, cores))
		if p <= prev {
			t.Errorf("power not increasing with cores at %d: %v <= %v", cores, p, prev)
		}
		prev = p
	}
}

func TestBigNodeDrawsMuchMoreThanLittle(t *testing.T) {
	// The paper's EDP ratios imply roughly a 5-8x node dynamic power gap at
	// equal core counts.
	atom := AtomNode().Dynamic(fullLoad(1.8*units.GHz, 8))
	xeon := XeonNode().Dynamic(fullLoad(1.8*units.GHz, 8))
	ratio := float64(xeon) / float64(atom)
	if ratio < 4 || ratio > 10 {
		t.Errorf("Xeon/Atom dynamic power ratio = %.2f (atom %v, xeon %v), want 4-10", ratio, atom, xeon)
	}
}

func TestZeroCoresZeroUncore(t *testing.T) {
	m := XeonNode()
	p := m.Dynamic(Draw{ActiveCores: 0, Activity: 1, F: 1.8 * units.GHz})
	if p != 0 {
		t.Errorf("idle draw with 0 cores = %v, want 0 dynamic", p)
	}
	if got := m.Dynamic(Draw{ActiveCores: -3, F: 1.8 * units.GHz}); got != 0 {
		t.Errorf("negative cores draw = %v, want 0", got)
	}
}

func TestDynamicPropertyNonNegativeAndBounded(t *testing.T) {
	m := XeonNode()
	max := m.Dynamic(Draw{ActiveCores: 8, Activity: 1, MemPressure: 1, DiskPressure: 1, F: 1.8 * units.GHz})
	f := func(cores uint8, act, mem, disk float64, fsel uint8) bool {
		freqs := []units.Hertz{1.2, 1.4, 1.6, 1.8}
		d := Draw{
			ActiveCores:  int(cores % 9),
			Activity:     math.Mod(math.Abs(act), 1),
			MemPressure:  math.Mod(math.Abs(mem), 1),
			DiskPressure: math.Mod(math.Abs(disk), 1),
			F:            freqs[fsel%4] * units.GHz,
		}
		if math.IsNaN(d.Activity) || math.IsNaN(d.MemPressure) || math.IsNaN(d.DiskPressure) {
			return true
		}
		p := m.Dynamic(d)
		return p >= 0 && p <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeterSamplingAndAverages(t *testing.T) {
	m := NewMeter(30)
	m.Observe(50, 2)  // 2 samples at 50W
	m.Observe(100, 1) // 1 sample at 100W
	samples := m.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	if samples[0] != 50 || samples[1] != 50 || samples[2] != 100 {
		t.Errorf("samples = %v, want [50 50 100]", samples)
	}
	if m.Elapsed() != 3 {
		t.Errorf("elapsed = %v, want 3s", m.Elapsed())
	}
	wantAvg := units.Watts((50*2 + 100*1) / 3.0)
	if math.Abs(float64(m.AverageWall()-wantAvg)) > 1e-9 {
		t.Errorf("avg wall = %v, want %v", m.AverageWall(), wantAvg)
	}
	if math.Abs(float64(m.AverageDynamic()-(wantAvg-30))) > 1e-9 {
		t.Errorf("avg dynamic = %v, want %v", m.AverageDynamic(), wantAvg-30)
	}
}

func TestMeterSplitsSegmentsAcrossSampleBoundaries(t *testing.T) {
	m := NewMeter(0)
	m.Observe(40, 0.5)
	m.Observe(80, 1.0) // spans the 1s boundary
	samples := m.Samples()
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1 completed", len(samples))
	}
	// First window: 0.5s at 40 + 0.5s at 80 = 60W average.
	if math.Abs(float64(samples[0])-60) > 1e-9 {
		t.Errorf("sample = %v, want 60W", samples[0])
	}
	if math.Abs(float64(m.WallEnergy())-(40*0.5+80*1.0)) > 1e-9 {
		t.Errorf("energy = %v, want 100J", m.WallEnergy())
	}
}

func TestMeterEnergyConservation(t *testing.T) {
	f := func(p1, p2 uint16, d1, d2 float64) bool {
		da := math.Mod(math.Abs(d1), 10)
		db := math.Mod(math.Abs(d2), 10)
		if math.IsNaN(da) || math.IsNaN(db) {
			return true
		}
		m := NewMeter(10)
		m.Observe(units.Watts(p1%500), units.Seconds(da))
		m.Observe(units.Watts(p2%500), units.Seconds(db))
		want := float64(p1%500)*da + float64(p2%500)*db
		return math.Abs(float64(m.WallEnergy())-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeterIgnoresNonPositiveDurations(t *testing.T) {
	m := NewMeter(0)
	m.Observe(100, 0)
	m.Observe(100, -5)
	if m.Elapsed() != 0 || m.WallEnergy() != 0 {
		t.Error("meter accepted non-positive durations")
	}
	if m.AverageDynamic() != 0 {
		t.Error("empty meter reports nonzero dynamic power")
	}
}

func TestMeterDynamicClampsAtZero(t *testing.T) {
	m := NewMeter(100)
	m.Observe(50, 2) // below idle floor
	if m.AverageDynamic() != 0 {
		t.Errorf("dynamic below idle = %v, want 0", m.AverageDynamic())
	}
}

func TestDynamicBreakdownSumsToDynamic(t *testing.T) {
	for _, m := range []Model{AtomNode(), XeonNode()} {
		for _, cores := range []int{0, 2, 8} {
			d := Draw{ActiveCores: cores, Activity: 0.7, MemPressure: 0.4, DiskPressure: 0.6, F: 1.6 * units.GHz}
			b := m.DynamicBreakdown(d)
			if sum := b.Cores + b.Uncore + b.DRAM + b.Disk; math.Abs(float64(sum-m.Dynamic(d))) > 1e-9 {
				t.Errorf("%s cores=%d: breakdown %v != dynamic %v", m.Name, cores, sum, m.Dynamic(d))
			}
			if cores == 0 && (b.Cores != 0 || b.Uncore != 0) {
				t.Errorf("%s: idle cores draw %v/%v", m.Name, b.Cores, b.Uncore)
			}
		}
	}
}

package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBytesConversions(t *testing.T) {
	tests := []struct {
		in     Bytes
		wantMB float64
	}{
		{MB, 1},
		{512 * MB, 512},
		{GB, 1024},
		{10 * GB, 10240},
		{0, 0},
	}
	for _, tc := range tests {
		if got := tc.in.MegaBytes(); got != tc.wantMB {
			t.Errorf("%v.MegaBytes() = %v, want %v", tc.in, got, tc.wantMB)
		}
	}
}

func TestBytesString(t *testing.T) {
	tests := []struct {
		in   Bytes
		want string
	}{
		{500, "500B"},
		{2 * KB, "2.00KB"},
		{256 * MB, "256.00MB"},
		{3 * GB, "3.00GB"},
		{2 * TB, "2.00TB"},
	}
	for _, tc := range tests {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(tc.in), got, tc.want)
		}
	}
}

func TestHertz(t *testing.T) {
	if got := Hertz(1.8e9).GigaHertz(); got != 1.8 {
		t.Errorf("1.8e9 Hz = %v GHz, want 1.8", got)
	}
	if got := (1.2 * GHz).String(); got != "1.2GHz" {
		t.Errorf("String = %q, want 1.2GHz", got)
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	e := Energy(100, 10)
	if e != 1000 {
		t.Fatalf("Energy(100W, 10s) = %v, want 1000J", e)
	}
	if p := Power(e, 10); p != 100 {
		t.Fatalf("Power(1000J, 10s) = %v, want 100W", p)
	}
	if p := Power(e, 0); p != 0 {
		t.Fatalf("Power with zero time = %v, want 0", p)
	}
	if p := Power(e, -1); p != 0 {
		t.Fatalf("Power with negative time = %v, want 0", p)
	}
}

func TestCyclesTimeRoundTrip(t *testing.T) {
	tm := CyclesToTime(1.8e9, 1.8*GHz)
	if math.Abs(float64(tm)-1.0) > 1e-12 {
		t.Fatalf("CyclesToTime = %v, want 1s", tm)
	}
	if c := TimeToCycles(tm, 1.8*GHz); math.Abs(c-1.8e9) > 1 {
		t.Fatalf("TimeToCycles = %v, want 1.8e9", c)
	}
	if tm := CyclesToTime(100, 0); tm != 0 {
		t.Fatalf("CyclesToTime at 0Hz = %v, want 0", tm)
	}
}

func TestEnergyPowerPropertyRoundTrip(t *testing.T) {
	f := func(pw float64, tsec float64) bool {
		if math.IsNaN(pw) || math.IsInf(pw, 0) || math.IsNaN(tsec) || math.IsInf(tsec, 0) {
			return true
		}
		// Keep the product within float range so the round trip is exact.
		p := Watts(math.Mod(math.Abs(pw), 1e12))
		ts := Seconds(math.Mod(math.Abs(tsec), 1e12) + 1e-9)
		e := Energy(p, ts)
		back := Power(e, ts)
		return math.Abs(float64(back-p)) <= 1e-9*math.Max(1, float64(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCyclesPropertyRoundTrip(t *testing.T) {
	f := func(cyc float64) bool {
		c := math.Abs(cyc)
		if math.IsInf(c, 0) || math.IsNaN(c) {
			return true
		}
		fq := 1.6 * GHz
		back := TimeToCycles(CyclesToTime(c, fq), fq)
		return math.Abs(back-c) <= 1e-6*math.Max(1, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitStrings(t *testing.T) {
	if got := Joules(12.345).String(); got != "12.35J" {
		t.Errorf("Joules.String = %q", got)
	}
	if got := Watts(80).String(); got != "80.00W" {
		t.Errorf("Watts.String = %q", got)
	}
	if got := Volts(1.05).String(); got != "1.050V" {
		t.Errorf("Volts.String = %q", got)
	}
	if got := SquareMM(160).String(); got != "160mm2" {
		t.Errorf("SquareMM.String = %q", got)
	}
	if got := Seconds(2).String(); got != "2.000s" {
		t.Errorf("Seconds.String = %q", got)
	}
}

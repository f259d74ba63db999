package isa

import (
	"math"
	"strings"
	"testing"

	"heterohadoop/internal/units"
)

func validMix() Mix {
	return Mix{IntALU: 0.45, FPALU: 0.05, Load: 0.25, Store: 0.10, Branch: 0.15}
}

func validProfile() Profile {
	return Profile{
		Name:                 "test/map",
		InstructionsPerByte:  10,
		Mix:                  validMix(),
		Mem:                  MemBehavior{WorkingSet: 8 * units.MB, Locality: 1.2, CompulsoryMissRatio: 0.01},
		BranchMispredictRate: 0.03,
		ILP:                  2.5,
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{IntALU: "int", FPALU: "fp", Load: "load", Store: "store", Branch: "branch"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if got := Class(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown class String = %q", got)
	}
}

func TestMixValidate(t *testing.T) {
	if err := validMix().Validate(); err != nil {
		t.Errorf("valid mix rejected: %v", err)
	}
	bad := Mix{IntALU: 0.5, Load: 0.6}
	if err := bad.Validate(); err == nil {
		t.Error("mix summing to 1.1 accepted")
	}
	neg := Mix{IntALU: 1.2, Load: -0.2}
	if err := neg.Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
	unknown := Mix{Class(42): 1.0}
	if err := unknown.Validate(); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestMixMemFraction(t *testing.T) {
	m := validMix()
	if got := m.MemFraction(); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("MemFraction = %v, want 0.35", got)
	}
}

func TestMixString(t *testing.T) {
	s := validMix().String()
	for _, sub := range []string{"int:0.45", "load:0.25", "branch:0.15"} {
		if !strings.Contains(s, sub) {
			t.Errorf("Mix.String() = %q missing %q", s, sub)
		}
	}
}

func TestMemBehaviorValidate(t *testing.T) {
	good := MemBehavior{WorkingSet: units.MB, Locality: 1, CompulsoryMissRatio: 0.05}
	if err := good.Validate(); err != nil {
		t.Errorf("valid behaviour rejected: %v", err)
	}
	cases := []MemBehavior{
		{WorkingSet: 0, Locality: 1, CompulsoryMissRatio: 0},
		{WorkingSet: units.MB, Locality: 0, CompulsoryMissRatio: 0},
		{WorkingSet: units.MB, Locality: 1, CompulsoryMissRatio: 1.5},
		{WorkingSet: units.MB, Locality: 1, CompulsoryMissRatio: -0.1},
	}
	for i, b := range cases {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid behaviour accepted: %+v", i, b)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	if err := validProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	p := validProfile()
	p.Name = ""
	if err := p.Validate(); err == nil {
		t.Error("nameless profile accepted")
	}
	p = validProfile()
	p.InstructionsPerByte = 0
	if err := p.Validate(); err == nil {
		t.Error("zero instructions-per-byte accepted")
	}
	p = validProfile()
	p.BranchMispredictRate = 1.1
	if err := p.Validate(); err == nil {
		t.Error("mispredict rate > 1 accepted")
	}
	p = validProfile()
	p.ILP = 0.5
	if err := p.Validate(); err == nil {
		t.Error("ILP < 1 accepted")
	}
}

func TestProfileInstructions(t *testing.T) {
	p := validProfile()
	if got := p.Instructions(100 * units.MB); got != 10*100*float64(units.MB) {
		t.Errorf("Instructions = %v", got)
	}
}

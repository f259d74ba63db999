package energy

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"heterohadoop/internal/obs"
)

// busyEvent returns a one-second fully-busy single-core phase interval
// with some IO and allocation traffic.
func busyEvent() obs.PhaseEvent {
	return obs.PhaseEvent{
		Task:     obs.TaskRef{Job: "j", Kind: obs.KindMap},
		Phase:    obs.PhaseMap,
		Start:    time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC),
		Duration: time.Second,
		Res: obs.ResourceDelta{
			CPU:          time.Second,
			ReadBytes:    1 << 20,
			WrittenBytes: 1 << 20,
			AllocBytes:   8 << 20,
		},
	}
}

func TestBuiltinProfilesValidate(t *testing.T) {
	for _, p := range []*Profile{Big(), Little()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s profile invalid: %v", p.Class, err)
		}
	}
}

// TestPhaseJoulesOrdering pins the physics the paper's comparison rests
// on: a busy span costs positive energy, more than an idle span of the
// same length, and the big core costs more than the little core for the
// same work.
func TestPhaseJoulesOrdering(t *testing.T) {
	big, little := Big(), Little()
	busy := busyEvent()
	idle := busyEvent()
	idle.Res = obs.ResourceDelta{}

	jBigBusy := big.PhaseJoules(busy)
	jBigIdle := big.PhaseJoules(idle)
	jLittleBusy := little.PhaseJoules(busy)
	if jBigBusy <= 0 || jLittleBusy <= 0 {
		t.Fatalf("busy spans estimated non-positive energy: big=%v little=%v", jBigBusy, jLittleBusy)
	}
	if jBigBusy <= jBigIdle {
		t.Errorf("busy span (%v J) not above idle span (%v J)", jBigBusy, jBigIdle)
	}
	if jBigBusy <= jLittleBusy {
		t.Errorf("big core (%v J) not above little core (%v J) for the same span", jBigBusy, jLittleBusy)
	}
	if got := big.PhaseJoules(obs.PhaseEvent{}); got != 0 {
		t.Errorf("zero-duration interval estimated %v J, want 0", got)
	}
}

// TestPhaseJoulesOverloadClamped feeds a delta whose rates exceed every
// nominal bandwidth and whose CPU exceeds the core count; the estimate
// must stay finite and bounded by full-chip power (the model clamps
// pressures and the profile clamps active cores).
func TestPhaseJoulesOverloadClamped(t *testing.T) {
	p := Little()
	ev := busyEvent()
	ev.Res.CPU = 1000 * time.Second
	ev.Res.ReadBytes = 1 << 40
	ev.Res.AllocBytes = 1 << 40
	j := p.PhaseJoules(ev)
	saturated := busyEvent()
	saturated.Res.CPU = time.Duration(p.Cores) * time.Second
	saturated.Res.ReadBytes = int64(p.DiskBandwidth)
	saturated.Res.WrittenBytes = 0
	saturated.Res.AllocBytes = int64(p.MemBandwidth)
	jSat := p.PhaseJoules(saturated)
	if j <= 0 || j > jSat*1.01 {
		t.Errorf("overloaded span estimated %v J; want positive and <= saturated %v J", j, jSat)
	}
}

func TestSelectAndLoad(t *testing.T) {
	for flag, class := range map[string]string{"": "big", "big": "big", "little": "little"} {
		p, err := Select(flag)
		if err != nil {
			t.Fatalf("Select(%q): %v", flag, err)
		}
		if p.ClassName() != class {
			t.Errorf("Select(%q).ClassName() = %q, want %q", flag, p.ClassName(), class)
		}
	}

	custom := Little()
	custom.Class = "a53"
	buf, err := json.Marshal(custom)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a53.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Select(path)
	if err != nil {
		t.Fatalf("Select(%s): %v", path, err)
	}
	if p.Class != "a53" || p.Cores != custom.Cores {
		t.Errorf("loaded profile = %+v, want %+v", p, custom)
	}

	if _, err := Select(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("Select of a missing file did not fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"class":"","cores":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("Load of an invalid profile did not fail")
	}
}

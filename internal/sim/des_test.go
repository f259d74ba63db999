package sim

import (
	"context"
	"math"
	"testing"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func desJob(t *testing.T, name string, data units.Bytes, block units.Bytes) JobSpec {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return JobSpec{Name: name, Spec: w.Spec(), DataPerNode: data,
		BlockSize: block, Frequency: 1.8 * units.GHz}
}

// TestDESValidatesWaveModel is the cross-validation contract: without
// jitter, the event-driven task scheduler must agree with the algebraic
// wave approximation on the map-phase duration within 25% across shapes
// (full waves, partial tails, single wave).
func TestDESValidatesWaveModel(t *testing.T) {
	cases := []struct {
		name  string
		data  units.Bytes
		block units.Bytes
	}{
		{"wordcount", 10 * units.GB, 256 * units.MB},  // 40 tasks, 5 waves
		{"wordcount", units.GB, 512 * units.MB},       // 2 tasks, partial wave
		{"sort", 10 * units.GB, 512 * units.MB},       // 20 tasks
		{"naivebayes", 10 * units.GB, 128 * units.MB}, // 80 tasks
	}
	for _, tc := range cases {
		job := desJob(t, tc.name, tc.data, tc.block)
		cluster := NewCluster(AtomNode(8))
		alg, err := Run(context.Background(), cluster, job)
		if err != nil {
			t.Fatal(err)
		}
		des, err := DESRun(context.Background(), cluster, job, DESOptions{})
		if err != nil {
			t.Fatal(err)
		}
		am := alg.Phases[PhaseMap].Time
		dm := des.Phases[PhaseMap].Time
		ratio := float64(dm) / float64(am)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s %v/%v: DES map %v vs wave %v (ratio %.2f) outside 25%%",
				tc.name, tc.data, tc.block, dm, am, ratio)
		}
	}
}

// TestDESJitterLengthensTail checks the straggler effect: duration noise
// can only stretch the makespan relative to its own no-jitter run on
// average, and different seeds give different (deterministic) results.
func TestDESJitterLengthensTail(t *testing.T) {
	job := desJob(t, "wordcount", 10*units.GB, 256*units.MB)
	cluster := NewCluster(AtomNode(8))
	base, err := DESRun(context.Background(), cluster, job, DESOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	var first, second units.Seconds
	for seed := int64(0); seed < 8; seed++ {
		r, err := DESRun(context.Background(), cluster, job, DESOptions{Seed: seed, Jitter: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(r.Phases[PhaseMap].Time)
		if seed == 0 {
			first = r.Total.Time
		}
		if seed == 1 {
			second = r.Total.Time
		}
	}
	mean := sum / 8
	if mean <= float64(base.Phases[PhaseMap].Time)*0.98 {
		t.Errorf("jittered mean map time %.1f below no-jitter %.1f", mean, float64(base.Phases[PhaseMap].Time))
	}
	if first == second {
		t.Error("different seeds produced identical makespans")
	}
	// Determinism per seed.
	again, err := DESRun(context.Background(), cluster, job, DESOptions{Seed: 0, Jitter: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if again.Total.Time != first {
		t.Error("same seed produced different results")
	}
}

// TestDESTotalsConsistent checks the spliced report's accounting.
func TestDESTotalsConsistent(t *testing.T) {
	job := desJob(t, "terasort", units.GB, 128*units.MB)
	cluster := NewCluster(XeonNode(8))
	r, err := DESRun(context.Background(), cluster, job, DESOptions{Seed: 3, Jitter: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var sumT units.Seconds
	var sumE units.Joules
	for _, ph := range Phases() {
		sumT += r.Phases[ph].Time
		sumE += r.Phases[ph].Energy
	}
	if math.Abs(float64(sumT-r.Total.Time)) > 1e-9 {
		t.Errorf("times: %v != %v", sumT, r.Total.Time)
	}
	if math.Abs(float64(sumE-r.Total.Energy)) > 1e-6 {
		t.Errorf("energies: %v != %v", sumE, r.Total.Energy)
	}
}

func TestDESOptionsValidate(t *testing.T) {
	job := desJob(t, "wordcount", units.GB, 256*units.MB)
	if _, err := DESRun(context.Background(), NewCluster(AtomNode(8)), job, DESOptions{Jitter: 1.5}); err == nil {
		t.Error("jitter >= 1 accepted")
	}
	if _, err := DESRun(context.Background(), NewCluster(AtomNode(8)), job, DESOptions{Jitter: -0.1}); err == nil {
		t.Error("negative jitter accepted")
	}
}

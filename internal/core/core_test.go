package core

import (
	"context"
	"testing"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func TestCharacterizeBasics(t *testing.T) {
	w, _ := workloads.ByName("wordcount")
	r, err := Characterize(context.Background(), Config{
		Workload: w, DataPerNode: units.GB, BlockSize: 256 * units.MB, Platform: Atom(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "wordcount" || r.Class != workloads.Compute {
		t.Errorf("report identity wrong: %+v", r)
	}
	if r.Sample.Delay <= 0 || r.Sample.Energy <= 0 {
		t.Error("empty sample")
	}
	if r.Sample.Area != 160 {
		t.Errorf("Atom area = %v, want 160", r.Sample.Area)
	}
	if _, err := Characterize(context.Background(), Config{}); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestPlatformConstructors(t *testing.T) {
	if p := Atom(); p.Kind != cpu.Little || p.Cores != 8 || p.Frequency != 1.8*units.GHz {
		t.Errorf("Atom() = %+v, want 8 little cores at 1.8 GHz", p)
	}
}

func TestCompareVerdicts(t *testing.T) {
	wc, _ := workloads.ByName("wordcount")
	cmp, err := Compare(context.Background(), wc, units.GB, 512*units.MB, 1.8*units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TimeRatio <= 1 {
		t.Errorf("big core not faster: time ratio %.2f", cmp.TimeRatio)
	}
	if cmp.EDPRatio >= 1 || cmp.EDPWinner != cpu.Little {
		t.Errorf("wordcount EDP verdict wrong: ratio %.2f winner %v", cmp.EDPRatio, cmp.EDPWinner)
	}
	if cmp.MapEDPWinner != cpu.Little {
		t.Errorf("wordcount map phase winner = %v, want little", cmp.MapEDPWinner)
	}

	st, _ := workloads.ByName("sort")
	cmp, err = Compare(context.Background(), st, units.GB, 512*units.MB, 1.8*units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EDPWinner != cpu.Big {
		t.Errorf("sort EDP winner = %v, want big", cmp.EDPWinner)
	}

	nb, _ := workloads.ByName("naivebayes")
	cmp, err = Compare(context.Background(), nb, 10*units.GB, 512*units.MB, 1.8*units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ReduceEDPWinner != cpu.Big {
		t.Errorf("naivebayes reduce winner = %v, want big (paper §3.2.2)", cmp.ReduceEDPWinner)
	}
}

func TestTuneBlockSizeInterior(t *testing.T) {
	wc, _ := workloads.ByName("wordcount")
	best, curve, err := TuneBlockSize(context.Background(), wc, units.GB, Atom())
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 5 {
		t.Fatalf("curve has %d points, want 5", len(curve))
	}
	if best == 32*units.MB || best == 512*units.MB {
		t.Errorf("wordcount optimum at sweep edge: %v", best)
	}
	for bs, v := range curve {
		if v < curve[best] {
			t.Errorf("curve[%v]=%v below reported best %v", bs, v, curve[best])
		}
	}
}

func TestRunRealEndToEnd(t *testing.T) {
	for _, name := range []string{"wordcount", "terasort"} {
		w, _ := workloads.ByName(name)
		res, err := RunRealParallel(context.Background(), w, 32*units.KB, 8*units.KB, 2, 0, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Generators overshoot the requested size by up to one record, so
		// 32 KB at 8 KB blocks gives 4 or 5 splits.
		if res.Counters.MapTasks < 4 || res.Counters.MapTasks > 5 {
			t.Errorf("%s: %d map tasks, want 4-5", name, res.Counters.MapTasks)
		}
		if len(res.SortedOutput()) == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
}

// TestAdviseDVFS checks the paper's §3.1.1 co-tuning claim: with a tuned
// block size, a lower DVFS point can stay within a modest slowdown budget
// of the nominal default configuration and save energy.
func TestAdviseDVFS(t *testing.T) {
	wc, _ := workloads.ByName("wordcount")
	// Baseline: Hadoop's default 64 MB block at nominal frequency.
	adv, err := AdviseDVFS(context.Background(), wc, units.GB, Atom(), 64*units.MB, 1.10)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Frequency >= 1.8*units.GHz {
		t.Errorf("advice stayed at nominal frequency %v", adv.Frequency)
	}
	if adv.EnergySaving <= 0 {
		t.Errorf("no energy saving: %v", adv.EnergySaving)
	}
	if float64(adv.Time) > float64(adv.Baseline)*1.10+1e-9 {
		t.Errorf("advice %v violates the 10%% budget over baseline %v", adv.Time, adv.Baseline)
	}
	// A zero-slack budget still admits nominal frequency.
	tight, err := AdviseDVFS(context.Background(), wc, units.GB, Atom(), 64*units.MB, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Time > tight.Baseline {
		t.Errorf("1.0-budget advice slower than baseline")
	}
	if _, err := AdviseDVFS(context.Background(), wc, units.GB, Atom(), 64*units.MB, 0.5); err == nil {
		t.Error("budget < 1 accepted")
	}
}

package sched

import (
	"context"
	"testing"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func testStream(t *testing.T) []StreamJob {
	t.Helper()
	mk := func(name string, at float64) StreamJob {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		data := units.Bytes(units.GB)
		if name == "naivebayes" {
			data = 10 * units.GB
		}
		return StreamJob{Workload: w, Arrival: units.Seconds(at), Data: data}
	}
	return []StreamJob{
		mk("wordcount", 0),
		mk("sort", 5),
		mk("terasort", 10),
		mk("naivebayes", 15),
		mk("grep", 20),
	}
}

func TestSimulateStreamStructure(t *testing.T) {
	pool := Pool{BigCores: 8, LittleCores: 16}
	out, err := SimulateStream(context.Background(), pool, testStream(t), PolicyStrategy, MinEDP, 1.8*units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerJob) != 5 {
		t.Fatalf("%d job outcomes", len(out.PerJob))
	}
	var lastFinish units.Seconds
	for _, j := range out.PerJob {
		if j.Start < 0 || j.Finish <= j.Start {
			t.Errorf("%s: bad interval [%v, %v]", j.Job, j.Start, j.Finish)
		}
		if d := float64(j.Duration - (j.Finish - j.Start)); d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: duration mismatch", j.Job)
		}
		if j.Finish > lastFinish {
			lastFinish = j.Finish
		}
	}
	if out.Makespan != lastFinish {
		t.Errorf("makespan %v != last finish %v", out.Makespan, lastFinish)
	}
	if out.EDP <= 0 || out.TotalEnergy <= 0 {
		t.Error("degenerate stream metrics")
	}
	// The policy sends the I/O-bound sort to big cores and compute-bound
	// jobs to little cores.
	kinds := map[string]cpu.Kind{}
	for _, j := range out.PerJob {
		kinds[j.Job] = j.Kind
	}
	if kinds["sort"] != cpu.Big {
		t.Error("sort not on big cores under the policy")
	}
	if kinds["wordcount"] != cpu.Little || kinds["naivebayes"] != cpu.Little {
		t.Error("compute-bound jobs not on little cores under the policy")
	}
}

func TestStreamQueueingWaits(t *testing.T) {
	// A pool with only 8 little cores: two simultaneous compute jobs must
	// serialize, producing nonzero wait.
	pool := Pool{BigCores: 2, LittleCores: 8}
	wc, _ := workloads.ByName("wordcount")
	nb, _ := workloads.ByName("naivebayes")
	jobs := []StreamJob{
		{Workload: nb, Arrival: 0, Data: 10 * units.GB},
		{Workload: wc, Arrival: 1, Data: units.GB},
	}
	out, err := SimulateStream(context.Background(), pool, jobs, PolicyStrategy, MinEDP, 1.8*units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	if out.MeanWait <= 0 {
		t.Errorf("no queueing delay on a contended pool: %v", out.MeanWait)
	}
	if out.PerJob[1].Start <= out.PerJob[0].Start {
		t.Error("second job did not wait behind the first")
	}
}

func TestCompareStrategiesOrdering(t *testing.T) {
	pool := Pool{BigCores: 8, LittleCores: 16}
	outcomes, err := CompareStrategies(context.Background(), pool, testStream(t), MinEDP, 1.8*units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 4 {
		t.Fatalf("%d strategies", len(outcomes))
	}
	// Big-only finishes fastest (big cores are faster), little-only burns
	// the least energy, and the heterogeneity-aware strategies sit between
	// the two on energy while the per-job optimum never loses to the
	// policy on per-job EDP totals.
	big := outcomes[BigOnlyStrategy]
	little := outcomes[LittleOnlyStrategy]
	policy := outcomes[PolicyStrategy]
	if big.Makespan >= little.Makespan {
		t.Errorf("big-only makespan %v not below little-only %v", big.Makespan, little.Makespan)
	}
	if little.TotalEnergy >= big.TotalEnergy {
		t.Errorf("little-only energy %v not below big-only %v", little.TotalEnergy, big.TotalEnergy)
	}
	if policy.TotalEnergy > big.TotalEnergy {
		t.Errorf("policy energy %v above big-only %v", policy.TotalEnergy, big.TotalEnergy)
	}
	if policy.Makespan > little.Makespan {
		t.Errorf("policy makespan %v above little-only %v", policy.Makespan, little.Makespan)
	}
	for s, o := range outcomes {
		if o.Strategy != s {
			t.Errorf("outcome strategy mismatch for %v", s)
		}
		if want := float64(o.TotalEnergy) * float64(o.Makespan); o.EDP != want {
			t.Errorf("%v: EDP = %v, want energy x makespan = %v", s, o.EDP, want)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		PolicyStrategy: "paper-policy", BigOnlyStrategy: "big-only",
		LittleOnlyStrategy: "little-only", OptimalStrategy: "per-job-optimal",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d: %q", int(s), s.String())
		}
	}
}

func TestSimulateStreamErrors(t *testing.T) {
	if _, err := SimulateStream(context.Background(), Pool{BigCores: 8, LittleCores: 8}, nil, PolicyStrategy, MinEDP, 1.8*units.GHz); err == nil {
		t.Error("empty stream accepted")
	}
	wc, _ := workloads.ByName("wordcount")
	jobs := []StreamJob{{Workload: wc, Arrival: 0, Data: units.GB}}
	// No little capacity at all: the compute-bound policy placement fails.
	if _, err := SimulateStream(context.Background(), Pool{BigCores: 8, LittleCores: 0}, jobs, PolicyStrategy, MinEDP, 1.8*units.GHz); err == nil {
		t.Error("zero-capacity platform accepted")
	}
}

package sched

import (
	"context"
	"errors"
	"testing"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func TestPolicyMatchesPaperPseudoCode(t *testing.T) {
	tests := []struct {
		class workloads.Class
		goal  Goal
		kind  cpu.Kind
		cores int
	}{
		{workloads.Compute, MinEDP, cpu.Little, 8},
		{workloads.Compute, MinED2AP, cpu.Little, 8},
		{workloads.IO, MinEDP, cpu.Big, 4},
		{workloads.IO, MinED2AP, cpu.Big, 4},
		{workloads.Hybrid, MinED2AP, cpu.Big, 2},
		{workloads.Hybrid, MinEDP, cpu.Little, 8},
		{workloads.Hybrid, MinEDAP, cpu.Little, 8},
	}
	for _, tc := range tests {
		d := Policy(tc.class, tc.goal)
		if d.Kind != tc.kind || d.Cores != tc.cores {
			t.Errorf("Policy(%v, %v) = %v/%d, want %v/%d", tc.class, tc.goal, d.Kind, d.Cores, tc.kind, tc.cores)
		}
		if d.Rationale == "" {
			t.Error("decision lacks rationale")
		}
	}
}

func TestGoalStrings(t *testing.T) {
	want := map[Goal]string{MinEDP: "EDP", MinED2P: "ED2P", MinEDAP: "EDAP", MinED2AP: "ED2AP"}
	for g, s := range want {
		if g.String() != s {
			t.Errorf("Goal.String = %q, want %q", g.String(), s)
		}
	}
}

// TestOptimalAgreesWithPolicyOnPlatformClass validates the published policy
// against exhaustive simulation: for the paper's flagship cases the optimal
// platform class matches the policy's.
func TestOptimalAgreesWithPolicyOnPlatformClass(t *testing.T) {
	f := 1.8 * units.GHz
	cases := []struct {
		workload string
		goal     Goal
		data     units.Bytes
	}{
		{"wordcount", MinEDP, units.GB},       // compute-bound -> little
		{"naivebayes", MinEDP, 10 * units.GB}, // compute-bound -> little
		{"sort", MinEDP, units.GB},            // I/O-bound -> big
	}
	for _, tc := range cases {
		w, err := workloads.ByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		want := Policy(w.Class(), tc.goal)
		got, _, err := Optimal(context.Background(), w, tc.goal, tc.data, f)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind {
			t.Errorf("%s/%v: optimal platform %v, policy says %v", tc.workload, tc.goal, got.Kind, want.Kind)
		}
	}
}

// TestTwoBigCoresBeatEightLittleOnED2AP asserts the paper's §3.5
// observation for the hybrid workloads: under real-time cost-efficiency
// (ED2AP), a small number of Xeon cores beats even the full Atom chip.
func TestTwoBigCoresBeatEightLittleOnED2AP(t *testing.T) {
	for _, name := range []string{"terasort", "grep"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		xeon2, err := Evaluate(context.Background(), w, cpu.Big, 2, units.GB, 1.8*units.GHz)
		if err != nil {
			t.Fatal(err)
		}
		atom8, err := Evaluate(context.Background(), w, cpu.Little, 8, units.GB, 1.8*units.GHz)
		if err != nil {
			t.Fatal(err)
		}
		if xeon2.ED2AP() >= atom8.ED2AP() {
			t.Errorf("%s: 2 Xeon cores ED2AP %.3g not below 8 Atom cores %.3g", name, xeon2.ED2AP(), atom8.ED2AP())
		}
	}
}

// TestMoreAtomCoresReduceEDPForCompute asserts Table 3's trend: for
// compute-bound applications, EDP falls as Atom cores are added.
func TestMoreAtomCoresReduceEDPForCompute(t *testing.T) {
	w, _ := workloads.ByName("naivebayes")
	prev := -1.0
	for _, m := range CoreCounts {
		s, err := Evaluate(context.Background(), w, cpu.Little, m, 10*units.GB, 1.8*units.GHz)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && s.EDP() >= prev {
			t.Errorf("EDP did not fall at %d Atom cores", m)
		}
		prev = s.EDP()
	}
}

func TestAllocateRespectsPoolAndFallsBack(t *testing.T) {
	jobs := []workloads.Workload{
		workloads.NewWordCount(),  // compute -> little 8
		workloads.NewNaiveBayes(), // compute -> little 8
		workloads.NewFPGrowth(2),  // compute -> little, pool short
		workloads.NewSort(),       // IO -> big 4
	}
	pool := Pool{BigCores: 8, LittleCores: 12}
	got := Allocate(pool, jobs, MinEDP)
	if len(got) != 4 {
		t.Fatalf("got %d assignments", len(got))
	}
	if got[0].Decision.Kind != cpu.Little || got[0].Decision.Cores != 8 {
		t.Errorf("job 0 = %+v, want little/8", got[0].Decision)
	}
	if got[1].Decision.Kind != cpu.Little || got[1].Decision.Cores != 4 {
		t.Errorf("job 1 = %+v, want little/4 (remaining)", got[1].Decision)
	}
	// Little pool exhausted: FP-Growth falls back to big cores.
	if got[2].Decision.Kind != cpu.Big {
		t.Errorf("job 2 = %+v, want fallback to big", got[2].Decision)
	}
	// Total allocations never exceed the pool.
	used := map[cpu.Kind]int{}
	for _, a := range got {
		used[a.Decision.Kind] += a.Decision.Cores
	}
	if used[cpu.Big] > pool.BigCores || used[cpu.Little] > pool.LittleCores {
		t.Errorf("pool overcommitted: %+v", used)
	}
}

func TestAllocateExhaustedPool(t *testing.T) {
	got := Allocate(Pool{BigCores: 1, LittleCores: 1}, []workloads.Workload{workloads.NewWordCount()}, MinEDP)
	if got[0].Decision.Cores != 0 {
		t.Errorf("exhausted pool still allocated %d cores", got[0].Decision.Cores)
	}
}

// TestOptimalCtxDeterministic pins the exhaustive search to a hand-rolled
// sequential argmin over the same grid (same first-strictly-smaller
// tie-break): identical decision and score.
func TestOptimalCtxDeterministic(t *testing.T) {
	w := workloads.NewTeraSort()
	goal := MinEDAP
	data := units.GB
	f := 1.8 * units.GHz

	var (
		want      Decision
		wantScore = -1.0
	)
	for _, kind := range []cpu.Kind{cpu.Little, cpu.Big} {
		for _, m := range CoreCounts {
			s, err := Evaluate(context.Background(), w, kind, m, data, f)
			if err != nil {
				t.Fatal(err)
			}
			if score := goal.score(s); wantScore < 0 || score < wantScore {
				wantScore = score
				want = Decision{Kind: kind, Cores: m}
			}
		}
	}
	got, sample, err := Optimal(context.Background(), w, goal, data, f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.Cores != want.Cores {
		t.Fatalf("argmin %v/%d, sequential reference %v/%d", got.Kind, got.Cores, want.Kind, want.Cores)
	}
	if goal.score(sample) != wantScore {
		t.Fatalf("score %v, want %v", goal.score(sample), wantScore)
	}
}

// TestOptimalCtxCancelled checks that cancellation surfaces as a wrapped
// context error instead of a partial result.
func TestOptimalCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Optimal(ctx, workloads.NewWordCount(), MinEDP, units.GB, 1.8*units.GHz)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: %v, want wrapped context.Canceled", err)
	}
}

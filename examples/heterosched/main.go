// Heterosched: schedule a mixed stream of Hadoop jobs over a heterogeneous
// big+little pool using the paper's §3.5 policy, and compare the policy's
// choices against the simulator-backed exhaustive optimum.
package main

import (
	"context"
	"fmt"
	"log"

	"heterohadoop/internal/sched"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func main() {
	ctx := context.Background()
	jobs := []workloads.Workload{
		workloads.NewNaiveBayes(), // compute-bound
		workloads.NewSort(),       // I/O-bound
		workloads.NewTeraSort(),   // hybrid
		workloads.NewWordCount(),  // compute-bound
		workloads.NewGrep("ou"),   // hybrid
	}

	pool := sched.Pool{BigCores: 8, LittleCores: 16}
	fmt.Printf("pool: %d big cores, %d little cores\n\n", pool.BigCores, pool.LittleCores)

	for _, goal := range []sched.Goal{sched.MinEDP, sched.MinED2AP} {
		fmt.Printf("goal: minimize %v\n", goal)
		for _, a := range sched.Allocate(pool, jobs, goal) {
			fmt.Printf("  %-10s -> %v x%d  (%s)\n", a.Job, a.Decision.Kind, a.Decision.Cores, a.Decision.Rationale)
		}
		fmt.Println()
	}

	// Simulate a timed job stream on the shared pool under four strategies.
	stream := []sched.StreamJob{
		{Workload: workloads.NewWordCount(), Arrival: 0, Data: units.GB},
		{Workload: workloads.NewSort(), Arrival: 10, Data: units.GB},
		{Workload: workloads.NewTeraSort(), Arrival: 20, Data: units.GB},
		{Workload: workloads.NewNaiveBayes(), Arrival: 30, Data: 10 * units.GB},
		{Workload: workloads.NewGrep("ou"), Arrival: 40, Data: units.GB},
	}
	outcomes, err := sched.CompareStrategies(ctx, pool, stream, sched.MinEDP, 1.8*units.GHz)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("job-stream simulation (5 jobs over a shared 8-big/16-little pool):")
	for _, s := range []sched.Strategy{sched.BigOnlyStrategy, sched.LittleOnlyStrategy, sched.PolicyStrategy, sched.OptimalStrategy} {
		o := outcomes[s]
		fmt.Printf("  %-16s makespan %7.1fs  energy %9.0fJ  mean wait %6.1fs  EDP %.3g\n",
			s, float64(o.Makespan), float64(o.TotalEnergy), float64(o.MeanWait), o.EDP)
	}
	fmt.Println()

	// Validate the policy against exhaustive search for two flagship cases.
	fmt.Println("policy vs exhaustive optimum:")
	for _, tc := range []struct {
		w    workloads.Workload
		goal sched.Goal
		data units.Bytes
	}{
		{workloads.NewNaiveBayes(), sched.MinEDP, 10 * units.GB},
		{workloads.NewSort(), sched.MinEDP, units.GB},
		{workloads.NewTeraSort(), sched.MinED2AP, units.GB},
	} {
		policy := sched.Policy(tc.w.Class(), tc.goal)
		opt, sample, err := sched.Optimal(ctx, tc.w, tc.goal, tc.data, 1.8*units.GHz)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %-6v policy=%v/%d optimal=%v/%d (score %.3g)\n",
			tc.w.Name(), tc.goal, policy.Kind, policy.Cores, opt.Kind, opt.Cores, sample.EDP())
	}
}

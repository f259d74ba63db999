// Phasesplit: the heterogeneous future the paper's characterization points
// at — schedule the map phase on the little cores and the memory-intensive
// reduce pipeline on the big cores, and compare against both homogeneous
// deployments.
package main

import (
	"context"
	"fmt"
	"log"

	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func main() {
	ctx := context.Background()
	little := sim.NewCluster(sim.AtomNode(8))
	big := sim.NewCluster(sim.XeonNode(8))

	for _, name := range []string{"naivebayes", "terasort", "wordcount"} {
		w, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		data := units.Bytes(units.GB)
		if name == "naivebayes" {
			data = 10 * units.GB
		}
		job := sim.JobSpec{
			Name: name, Spec: w.Spec(), DataPerNode: data,
			BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz,
		}

		homoL, err := sim.Run(ctx, little, job)
		if err != nil {
			log.Fatal(err)
		}
		homoB, err := sim.Run(ctx, big, job)
		if err != nil {
			log.Fatal(err)
		}
		split, err := sim.RunPhaseSplit(ctx, little, big, job)
		if err != nil {
			log.Fatal(err)
		}

		edp := func(t units.Seconds, e units.Joules) float64 { return float64(e) * float64(t) }
		fmt.Printf("%s (%v/node):\n", name, data)
		fmt.Printf("  all-little:            %7.1fs  EDP %.3g\n",
			float64(homoL.Total.Time), edp(homoL.Total.Time, homoL.Total.Energy))
		fmt.Printf("  all-big:               %7.1fs  EDP %.3g\n",
			float64(homoB.Total.Time), edp(homoB.Total.Time, homoB.Total.Energy))
		fmt.Printf("  little-map/big-reduce: %7.1fs  EDP %.3g  (handoff %.1fs)\n\n",
			float64(split.Total.Time), split.EDP(), float64(split.Handoff.Time))
	}
	fmt.Println("reading the results: the split buys back part of the all-little cluster's execution time")
	fmt.Println("(its reduce pipeline runs at big-core speed) at an energy premium plus the shuffle handoff;")
	fmt.Println("for these applications the homogeneous little cluster remains EDP-optimal, matching the")
	fmt.Println("paper's whole-application verdicts, while the split sits between the two on delay.")
}

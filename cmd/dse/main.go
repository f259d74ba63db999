// Command dse runs the heterogeneous-server design-space exploration: it
// scores the shipped chips and hypothetical variants on the paper's
// workload mix and prints the (delay, energy, area) Pareto frontier.
//
// Usage:
//
//	dse                      # default space, paper mix, 256MB @1.8GHz, 8 cores
//	dse -block 512 -freq 1.6 -cores 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"heterohadoop/internal/dse"
	"heterohadoop/internal/units"
)

func main() {
	var (
		blockMB = flag.Int("block", 256, "HDFS block size in MB")
		freqGHz = flag.Float64("freq", 1.8, "core frequency in GHz")
		cores   = flag.Int("cores", 8, "active cores per node")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	results, err := dse.Explore(ctx, dse.DefaultSpace(), dse.PaperMix(),
		units.Bytes(*blockMB)*units.MB, units.Hertz(*freqGHz)*units.GHz, *cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("design-space exploration: paper mix, %dMB blocks, %.1fGHz, %d cores\n\n", *blockMB, *freqGHz, *cores)
	fmt.Printf("%-14s %10s %10s %9s %12s %12s  %s\n", "candidate", "delay[s]", "energy[J]", "area[mm2]", "EDP", "EDAP", "pareto")
	for _, r := range results {
		mark := ""
		if r.Pareto {
			mark = "*"
		}
		fmt.Printf("%-14s %10.0f %10.0f %9.0f %12.3g %12.3g  %s\n",
			r.Candidate.Name, float64(r.Delay), float64(r.Energy), float64(r.Area), r.EDP(), r.EDAP(), mark)
	}
	fmt.Println("\n* = on the (delay, energy, area) Pareto frontier")
}

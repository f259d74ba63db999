// Costanalysis: the operational-vs-capital cost study behind the paper's
// Table 3 and Fig 17 spider graphs — EDP/ED2P/EDAP/ED2AP for 2-8 cores on
// both platforms, normalized to the 8-Xeon-core configuration.
package main

import (
	"context"
	"fmt"
	"log"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/metrics"
	"heterohadoop/internal/sched"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func main() {
	ctx := context.Background()
	for _, name := range []string{"wordcount", "sort", "terasort"} {
		w, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (class %v), 1 GB/node @1.8 GHz, normalized to Xeon x8:\n", name, w.Class())

		ref, err := sched.Evaluate(ctx, w, cpu.Big, 8, units.GB, 1.8*units.GHz)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %8s %8s %8s %8s\n", "config", "EDP", "ED2P", "EDAP", "ED2AP")
		for _, kind := range []cpu.Kind{cpu.Little, cpu.Big} {
			for _, m := range sched.CoreCounts {
				s, err := sched.Evaluate(ctx, w, kind, m, units.GB, 1.8*units.GHz)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  %-8s %8.2f %8.2f %8.2f %8.2f\n",
					fmt.Sprintf("%v x%d", kind, m),
					metrics.Ratio(s.EDP(), ref.EDP()),
					metrics.Ratio(s.ED2P(), ref.ED2P()),
					metrics.Ratio(s.EDAP(), ref.EDAP()),
					metrics.Ratio(s.ED2AP(), ref.ED2AP()))
			}
		}
		fmt.Println()
	}
	fmt.Println("reading the spider data: values < 1 beat the 8-Xeon baseline on that axis.")
	fmt.Println("little cores dominate EDP/EDAP for compute-bound work; a couple of big cores win ED2AP for hybrids;")
	fmt.Println("the I/O-bound sort is the exception where big cores win everything but capital cost.")
}

// Quickstart: run WordCount for real on the MapReduce engine, then
// characterize it on the big and little server models and print the
// big-vs-little verdict — the library's core loop in ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"

	"heterohadoop/internal/core"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func main() {
	ctx := context.Background()
	wc := workloads.NewWordCount()

	// 1. Execute the real job over 64 KB of generated Zipf text split into
	//    16 KB HDFS blocks (4 map tasks), with 2 reducers.
	res, err := core.RunRealParallel(ctx, wc, 64*units.KB, 16*units.KB, 2, 0, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("real engine run:")
	fmt.Printf("  %v\n", res.Counters)
	top := res.SortedOutput()
	fmt.Printf("  %d distinct words; first three: ", len(top))
	for i := 0; i < 3 && i < len(top); i++ {
		fmt.Printf("%s=%s ", top[i].Key, top[i].Value)
	}
	fmt.Println()

	// 2. Characterize the same workload at paper scale (1 GB/node) on both
	//    server models.
	cmp, err := core.Compare(ctx, wc, units.GB, 256*units.MB, 1.8*units.GHz)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbig vs little at 1 GB/node, 256 MB blocks, 1.8 GHz:")
	fmt.Printf("  little: %6.1fs, %7.1fJ (EDP %.3g)\n",
		float64(cmp.Little.Sim.Total.Time), float64(cmp.Little.Sim.Total.Energy), cmp.Little.Sample.EDP())
	fmt.Printf("  big:    %6.1fs, %7.1fJ (EDP %.3g)\n",
		float64(cmp.Big.Sim.Total.Time), float64(cmp.Big.Sim.Total.Energy), cmp.Big.Sample.EDP())
	fmt.Printf("  the big core is %.2fx faster, but the %v core wins EDP (ratio %.2f)\n",
		cmp.TimeRatio, cmp.EDPWinner, cmp.EDPRatio)

	// 3. Tune the HDFS block size for the little core.
	best, curve, err := core.TuneBlockSize(ctx, wc, units.GB, core.Atom())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nblock-size tuning on the little core (EDP by block size):\n")
	for _, bs := range []units.Bytes{32 * units.MB, 64 * units.MB, 128 * units.MB, 256 * units.MB, 512 * units.MB} {
		marker := " "
		if bs == best {
			marker = "<- best"
		}
		fmt.Printf("  %8v  %.3g %s\n", bs, curve[bs], marker)
	}
}

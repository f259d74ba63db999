// Acceleration: the paper's §3.4 study — offload the map phase to an FPGA
// and watch how the big-vs-little choice changes for the code that remains
// on the CPU (Eq. 1's before/after speedup ratio).
package main

import (
	"context"
	"fmt"
	"log"

	"heterohadoop/internal/accel"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func main() {
	ctx := context.Background()
	fpga := accel.PCIeGen3x8()
	fmt.Printf("accelerator: %s (%v link, %v active)\n\n", fpga.Name, fpga.LinkBandwidth, fpga.ActivePower)

	for _, name := range []string{"wordcount", "terasort", "fpgrowth"} {
		w, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		data := units.Bytes(units.GB)
		if name == "fpgrowth" {
			data = 10 * units.GB
		}
		job := sim.JobSpec{
			Name: name, Spec: w.Spec(), DataPerNode: data,
			BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz,
		}
		atomBefore, err := sim.Run(ctx, sim.NewCluster(sim.AtomNode(8)), job)
		if err != nil {
			log.Fatal(err)
		}
		xeonBefore, err := sim.Run(ctx, sim.NewCluster(sim.XeonNode(8)), job)
		if err != nil {
			log.Fatal(err)
		}
		before := float64(atomBefore.Total.Time) / float64(xeonBefore.Total.Time)
		fmt.Printf("%s: before acceleration the big core is %.2fx faster\n", name, before)

		for _, k := range []float64{5, 30, 100} {
			off := accel.DefaultOffload(k)
			atomAfter, err := accel.Apply(atomBefore, data, fpga, off)
			if err != nil {
				log.Fatal(err)
			}
			xeonAfter, err := accel.Apply(xeonBefore, data, fpga, off)
			if err != nil {
				log.Fatal(err)
			}
			ratio := accel.SpeedupRatio(atomBefore, xeonBefore, atomAfter, xeonAfter)
			after := float64(atomAfter.TotalTime) / float64(xeonAfter.TotalTime)
			fmt.Printf("  %4gx map acceleration: big-core advantage %.2fx (Eq.1 ratio %.2f), map speedup little %.1fx / big %.1fx\n",
				k, after, ratio, atomAfter.MapSpeedup, xeonAfter.MapSpeedup)
		}
		fmt.Println()
	}
	fmt.Println("ratios below 1 mean acceleration shrinks the payoff of migrating the remaining CPU code to the big core —")
	fmt.Println("with a strong accelerator, the frugal little core becomes the better host (the paper's conclusion).")
}

// Command hadoopsim characterizes one Hadoop workload on a big- or
// little-core cluster: per-phase execution time and energy at paper scale,
// the big-vs-little comparison, and optionally a real small-scale run of
// the workload on the MapReduce engine.
//
// Usage:
//
//	hadoopsim -workload wordcount -data 1 -block 256 -freq 1.8
//	hadoopsim -workload terasort -compare
//	hadoopsim -workload fpgrowth -real -realsize 65536
//	hadoopsim -workload sort -trace run.jsonl   # JSONL sim.run span trace
//	hadoopsim -workload sort -real -trace run.jsonl   # plus the real run's phase events, for cmd/tracer
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"heterohadoop/internal/core"
	"heterohadoop/internal/cpu"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func main() {
	var (
		name     = flag.String("workload", "wordcount", "workload: wordcount|sort|grep|terasort|naivebayes|fpgrowth")
		platform = flag.String("platform", "atom", "platform: atom|xeon")
		cores    = flag.Int("cores", 8, "active cores (1-8)")
		freqGHz  = flag.Float64("freq", 1.8, "core frequency in GHz (1.2/1.4/1.6/1.8)")
		dataGB   = flag.Float64("data", 1, "input size per node in GB")
		blockMB  = flag.Int("block", 256, "HDFS block size in MB")
		compare  = flag.Bool("compare", false, "characterize both platforms and print the verdicts")
		real     = flag.Bool("real", false, "also execute the workload for real on the MapReduce engine")
		realSize = flag.Int("realsize", 64*1024, "real-run input size in bytes")
		parallel = flag.Int("parallel", 0, "real-run task slots: 0 = one per CPU, 1 = serial")
		advise   = flag.Bool("advise", false, "co-tune DVFS and block size within a 10% slowdown budget")
		des      = flag.Bool("des", false, "refine the map phase with the task-level discrete-event scheduler")
		jitter   = flag.Float64("jitter", 0.15, "per-task duration jitter for -des")
		trace    = flag.String("trace", "", "stream a JSONL observability trace to this file")
	)
	flag.Parse()

	ctx := context.Background()
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer tf.Close()
		tw := obs.NewTraceWriter(tf)
		defer tw.Close()
		ctx = obs.NewContext(ctx, tw)
	}

	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	data := units.Bytes(*dataGB * float64(units.GB))
	block := units.Bytes(*blockMB) * units.MB
	f := units.Hertz(*freqGHz) * units.GHz

	if *advise {
		kind := cpu.Little
		if *platform == "xeon" {
			kind = cpu.Big
		}
		adv, err := core.AdviseDVFS(ctx, w, data, core.Platform{Kind: kind, Cores: *cores, Frequency: f}, block, 1.10)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s on %v: run at %v with %v blocks\n", w.Name(), kind, adv.Frequency, adv.BlockSize)
		fmt.Printf("  %.1fs vs %.1fs baseline (budget 10%%), saving %.1f%% dynamic energy\n",
			float64(adv.Time), float64(adv.Baseline), 100*adv.EnergySaving)
		return
	}

	if *compare {
		cmp, err := core.Compare(ctx, w, data, block, f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s (%s-class), %v/node, %v blocks, %v\n", w.Name(), w.Class(), data, block, f)
		fmt.Printf("  little (Atom C2758): %8.1fs  %8.1fJ  EDP %.3g\n",
			float64(cmp.Little.Sim.Total.Time), float64(cmp.Little.Sim.Total.Energy), cmp.Little.Sample.EDP())
		fmt.Printf("  big    (Xeon E5):    %8.1fs  %8.1fJ  EDP %.3g\n",
			float64(cmp.Big.Sim.Total.Time), float64(cmp.Big.Sim.Total.Energy), cmp.Big.Sample.EDP())
		fmt.Printf("  time ratio (little/big): %.2f\n", cmp.TimeRatio)
		fmt.Printf("  EDP ratio  (little/big): %.2f -> winner: %v\n", cmp.EDPRatio, cmp.EDPWinner)
		fmt.Printf("  map phase prefers: %v | reduce phase prefers: %v\n", cmp.MapEDPWinner, cmp.ReduceEDPWinner)
		return
	}

	kind := cpu.Little
	if *platform == "xeon" {
		kind = cpu.Big
	} else if *platform != "atom" {
		fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platform)
		os.Exit(2)
	}
	r, err := core.Characterize(ctx, core.Config{
		Workload:    w,
		DataPerNode: data,
		BlockSize:   block,
		Platform:    core.Platform{Kind: kind, Cores: *cores, Frequency: f},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s on %s (%d cores @ %v), %v/node, %v blocks\n",
		r.Workload, r.Sim.Core, *cores, f, data, block)
	fmt.Printf("  map tasks: %d (%d waves, %d spills/task), map IPC %.2f\n",
		r.Sim.MapTasks, r.Sim.Waves, r.Sim.SpillsPerTask, r.Sim.MapIPC)
	for _, ph := range sim.Phases() {
		st := r.Sim.Phases[ph]
		if st.Time == 0 {
			continue
		}
		fmt.Printf("  %-8s %8.1fs  %8.1fJ  avg %5.1fW\n", ph, float64(st.Time), float64(st.Energy), float64(st.AvgPower))
	}
	fmt.Printf("  %-8s %8.1fs  %8.1fJ  avg %5.1fW\n", "total", float64(r.Sim.Total.Time), float64(r.Sim.Total.Energy), float64(r.Sim.Total.AvgPower))
	fmt.Printf("  EDP %.4g J·s | ED2P %.4g J·s² | EDAP %.4g J·s·mm²\n", r.Sample.EDP(), r.Sample.ED2P(), r.Sample.EDAP())

	if *des {
		node := sim.AtomNode(*cores)
		if kind == cpu.Big {
			node = sim.XeonNode(*cores)
		}
		dr, err := sim.DESRun(ctx, sim.NewCluster(node), sim.JobSpec{
			Name: w.Name(), Spec: w.Spec(), DataPerNode: data, BlockSize: block,
			Frequency: f, Reducers: *cores,
		}, sim.DESOptions{Seed: 1, Jitter: *jitter})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\ntask-level DES refinement (jitter %.0f%%): map %.1fs, total %.1fs\n",
			100**jitter, float64(dr.Phases[sim.PhaseMap].Time), float64(dr.Total.Time))
	}

	if *real {
		res, err := core.RunRealParallel(ctx, w, units.Bytes(*realSize), units.Bytes(*realSize/4), *cores, *parallel, 42)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nreal engine run (%d bytes): %v\n", *realSize, res.Counters)
	}
}

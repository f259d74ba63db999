// Command bench is the repository's benchmark: six workloads from the
// in-process engine to a loopback dist cluster, each output checked against
// a naive reference, end-to-end metrics with tracing off and per-layer
// metrics from a separate traced run.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//	bench [-rounds R] [-layers] [-out FILE]                  every workload, one result file
//	bench -compare A.json B.json                             two result files, metric by metric
//
// See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a single run prints; the acceptance driver reads
// exactly these keys.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the settings one run needs.
type options struct {
	seed    int64
	seconds float64
	divisor int    // input-size divisor: 1, or tinyDivisor for the smoke test
	scratch string // where inputs, spill trees and snapshots go
	procs   int    // GOMAXPROCS, also the worker count
}

func main() {
	var (
		workload    = flag.String("workload", "", "run one workload and print one JSON line; empty runs all of them")
		seed        = flag.Int64("seed", 42, "input generator seed")
		seconds     = flag.Float64("seconds", 10, "seconds of measurement per run")
		trace       = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced passes")
		scale       = flag.String("scale", "full", "full or tiny (inputs 1/256, for the smoke test)")
		scratch     = flag.String("scratch", "", "directory for inputs, spill trees, snapshots and layers.jsonl (default: a temp dir under the working directory)")
		rounds      = flag.Int("rounds", 3, "all-workloads mode: interleaved rounds per workload")
		layers      = flag.Bool("layers", false, "all-workloads mode: add one traced run per workload")
		out         = flag.String("out", "bench-result.json", "all-workloads mode: result file")
		compare     = flag.Bool("compare", false, "compare two result files given as arguments")
		allowSerial = flag.Bool("allow-serial", false, "all-workloads mode: record numbers on a machine with fewer than 2 CPUs")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	opt := options{seed: *seed, seconds: *seconds, divisor: 1}
	switch *scale {
	case "full":
	case "tiny":
		opt.divisor = tinyDivisor
	default:
		fatal(fmt.Errorf("unknown -scale %q (full|tiny)", *scale))
	}
	opt.procs = runtime.NumCPU()
	if opt.procs > 4 {
		opt.procs = 4
	}
	runtime.GOMAXPROCS(opt.procs)

	ownScratch := *scratch == ""
	if ownScratch {
		dir, err := os.MkdirTemp(".", "bench-scratch-")
		if err != nil {
			fatal(err)
		}
		*scratch = dir
	}
	abs, err := filepath.Abs(*scratch)
	if err != nil {
		fatal(err)
	}
	opt.scratch = abs
	cleanup := func() {
		if ownScratch {
			os.RemoveAll(abs)
		}
	}

	if *workload == "" {
		if runtime.NumCPU() < 2 && !*allowSerial {
			cleanup()
			fatal(fmt.Errorf("this machine has %d CPU: parallel layers cannot show; pass -allow-serial to record anyway", runtime.NumCPU()))
		}
		err := runAll(opt, *rounds, *layers, *out)
		cleanup()
		if err != nil {
			fatal(err)
		}
		return
	}

	s, ok := specByName(*workload)
	if !ok {
		cleanup()
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "bench: 1 CPU — numbers from this run say nothing about the parallel layers")
	}
	var rep report
	if *trace == 0 {
		rep, err = runEndToEnd(s.scaled(opt.divisor), opt)
	} else {
		rep, err = runLayers(s.scaled(opt.divisor), opt)
	}
	cleanup()
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// setupRepeats is how often a run sets the workload up; setup_s is the
// median, and the last instance is the one measured.
const setupRepeats = 3

// warmUp runs the jobs that precede measurement.
func warmUp(in *instance) error {
	w := measure(0, in.spec.warmUp, in.spec.clients, in.spec.deadline, in.runOnce)
	if w.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d jobs failed: %w", w.failed, w.attempted, w.firstErr)
	}
	return nil
}

// runEndToEnd is the --trace 0 run: set up (several times, for a steady
// setup_s), measure for the given seconds with no observer attached, tear
// down, report every end-to-end metric.
func runEndToEnd(s spec, opt options) (report, error) {
	var in *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return report{}, err
			}
		}
		t := time.Now()
		var err error
		in, err = newInstance(s, opt.seed, filepath.Join(opt.scratch, s.name), opt.procs)
		if err != nil {
			return report{}, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		if err := warmUp(in); err != nil {
			in.close()
			return report{}, fmt.Errorf("%s: %w", s.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	w := measure(time.Duration(opt.seconds*float64(time.Second)), s.minOps, s.clients, s.deadline, in.runOnce)
	if err := in.close(); err != nil {
		return report{}, fmt.Errorf("%s: %w", s.name, err)
	}
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d jobs failed, first: %v\n", s.name, w.failed, w.attempted, w.firstErr)
	}
	if len(w.latencies) == 0 {
		return report{}, fmt.Errorf("%s: no job succeeded: %w", s.name, w.firstErr)
	}
	return newReport(endToEndMetrics, map[string]float64{
		"job_s":       typical(w.latencies),
		"cpu_s":       w.cpuPerJob,
		"jobs_per_s":  w.jobsPerSecond(),
		"peak_rss_mb": peakRSSMB(),
		"setup_s":     median(setups),
	}, w.attempted, w.failed)
}

// newReport pairs measured values with their declarations: every declared
// metric is reported (0 when the run has no value for it) with its declared
// unit, and a value nobody declared is an error, not a silent extra.
func newReport(declared []decl, values map[string]float64, attempted, failed int) (report, error) {
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range declared {
		rep.Metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	for name := range values {
		if _, ok := rep.Metrics[name]; !ok {
			return report{}, fmt.Errorf("undeclared metric %s", name)
		}
	}
	return rep, nil
}

// Package core is the library's primary surface: the big-vs-little
// characterizer. It couples the real MapReduce execution path (functional
// runs of the six workloads on the engine) with the calibrated analytic
// path (paper-scale time/energy on the big Xeon-like and little Atom-like
// server models), and turns the results into the decisions the paper is
// about: which core class to run a Hadoop application on, at which DVFS
// point, with which HDFS block size and how many cores.
package core

import (
	"context"
	"fmt"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/metrics"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// Platform selects a server configuration.
type Platform struct {
	// Kind is the core class (cpu.Little = Atom C2758, cpu.Big = Xeon
	// E5-2420).
	Kind cpu.Kind
	// Cores is the active core count (1-8).
	Cores int
	// Frequency is the DVFS point (1.2/1.4/1.6/1.8 GHz).
	Frequency units.Hertz
}

// Atom returns the little-core platform at full core count and nominal
// frequency.
func Atom() Platform { return Platform{Kind: cpu.Little, Cores: 8, Frequency: 1.8 * units.GHz} }

// node materializes the platform's simulator node.
func (p Platform) node() sim.Node {
	if p.Kind == cpu.Big {
		return sim.XeonNode(p.Cores)
	}
	return sim.AtomNode(p.Cores)
}

// Config is one characterization run.
type Config struct {
	// Workload is the application under test.
	Workload workloads.Workload
	// DataPerNode is the input size per node.
	DataPerNode units.Bytes
	// BlockSize is the HDFS block size.
	BlockSize units.Bytes
	// Platform is the server configuration.
	Platform Platform
}

// Report is a characterization outcome.
type Report struct {
	// Workload and Class echo the application.
	Workload string
	Class    workloads.Class
	// Sim is the full per-phase simulation report.
	Sim sim.Report
	// Sample carries the cost-metric inputs (energy, delay, chip area).
	Sample metrics.Sample
}

// Characterize simulates the workload on the platform at paper scale. The
// simulation runs under the context's observer (sim.run spans, per-phase
// gauges) and aborts early if the context is cancelled.
func Characterize(ctx context.Context, cfg Config) (Report, error) {
	if cfg.Workload == nil {
		return Report{}, fmt.Errorf("core: no workload")
	}
	node := cfg.Platform.node()
	r, err := sim.Run(ctx, sim.NewCluster(node), sim.JobSpec{
		Name:        cfg.Workload.Name(),
		Spec:        cfg.Workload.Spec(),
		DataPerNode: cfg.DataPerNode,
		BlockSize:   cfg.BlockSize,
		Frequency:   cfg.Platform.Frequency,
		Reducers:    cfg.Platform.Cores,
	})
	if err != nil {
		return Report{}, err
	}
	return Report{
		Workload: cfg.Workload.Name(),
		Class:    cfg.Workload.Class(),
		Sim:      r,
		Sample:   metrics.Sample{Energy: r.Total.Energy, Delay: r.Total.Time, Area: node.Core.Area},
	}, nil
}

// Comparison is the big-vs-little verdict for one workload configuration.
type Comparison struct {
	// Little and Big are the per-platform reports.
	Little, Big Report
	// TimeRatio is littleTime/bigTime (> 1 means the big core is faster).
	TimeRatio float64
	// EDPRatio is littleEDP/bigEDP (< 1 means the little core is more
	// energy-efficient).
	EDPRatio float64
	// EDPWinner is the core class with lower EDP.
	EDPWinner cpu.Kind
	// MapEDPWinner and ReduceEDPWinner give the per-phase verdicts the
	// paper uses to guide phase-level scheduling.
	MapEDPWinner    cpu.Kind
	ReduceEDPWinner cpu.Kind
}

// Compare characterizes the workload on both platforms at the given knobs
// and derives the paper's verdicts.
func Compare(ctx context.Context, w workloads.Workload, data, block units.Bytes, f units.Hertz) (Comparison, error) {
	little, err := Characterize(ctx, Config{Workload: w, DataPerNode: data, BlockSize: block,
		Platform: Platform{Kind: cpu.Little, Cores: 8, Frequency: f}})
	if err != nil {
		return Comparison{}, err
	}
	big, err := Characterize(ctx, Config{Workload: w, DataPerNode: data, BlockSize: block,
		Platform: Platform{Kind: cpu.Big, Cores: 8, Frequency: f}})
	if err != nil {
		return Comparison{}, err
	}
	cmp := Comparison{
		Little:    little,
		Big:       big,
		TimeRatio: metrics.Ratio(float64(little.Sim.Total.Time), float64(big.Sim.Total.Time)),
		EDPRatio:  metrics.Ratio(little.Sample.EDP(), big.Sample.EDP()),
	}
	cmp.EDPWinner = winner(cmp.EDPRatio)
	lm, lr := little.Sim.MapReduceOnly()
	bm, br := big.Sim.MapReduceOnly()
	cmp.MapEDPWinner = winner(phaseEDPRatio(lm, bm))
	cmp.ReduceEDPWinner = winner(phaseEDPRatio(lr, br))
	return cmp, nil
}

// winner converts a little/big ratio into the preferred class (ties go to
// the little core, the lower-power default).
func winner(littleOverBig float64) cpu.Kind {
	if littleOverBig > 1 {
		return cpu.Big
	}
	return cpu.Little
}

// phaseEDPRatio returns little/big EDP for one phase; phases absent on both
// platforms count as a little-core tie (0).
func phaseEDPRatio(little, big sim.PhaseStat) float64 {
	le := float64(little.Energy) * float64(little.Time)
	be := float64(big.Energy) * float64(big.Time)
	return metrics.Ratio(le, be)
}

// TuneBlockSize sweeps the paper's block sizes and returns the one
// minimizing EDP on the platform, with the full EDP curve.
func TuneBlockSize(ctx context.Context, w workloads.Workload, data units.Bytes, p Platform) (units.Bytes, map[units.Bytes]float64, error) {
	curve := make(map[units.Bytes]float64, 5)
	var best units.Bytes
	bestScore := -1.0
	for _, bs := range []units.Bytes{32 * units.MB, 64 * units.MB, 128 * units.MB, 256 * units.MB, 512 * units.MB} {
		r, err := Characterize(ctx, Config{Workload: w, DataPerNode: data, BlockSize: bs, Platform: p})
		if err != nil {
			return 0, nil, err
		}
		score := r.Sample.EDP()
		curve[bs] = score
		if bestScore < 0 || score < bestScore {
			bestScore, best = score, bs
		}
	}
	return best, curve, nil
}

// RunRealParallel executes the workload for real on the MapReduce engine
// over a synthetic dataset of the given size — the functional-verification
// path. parallelism is the task-slot count: 0 means one slot per
// schedulable CPU, 1 forces a serial run (useful as a measurement
// baseline). Output and counters are identical at any parallelism. An
// observer carried by ctx sees the run's spans and phase events.
func RunRealParallel(ctx context.Context, w workloads.Workload, size, blockSize units.Bytes, reducers, parallelism int, seed int64) (*mapreduce.Result, error) {
	input := w.Generate(size, seed)
	store, err := hdfs.NewStore(hdfs.Config{BlockSize: blockSize, Replication: 1})
	if err != nil {
		return nil, err
	}
	if _, err := store.Write("input", input); err != nil {
		return nil, err
	}
	cfg := mapreduce.DefaultConfig(w.Name())
	cfg.NumReducers = reducers
	cfg.Parallelism = parallelism
	job, err := w.Build(cfg, input)
	if err != nil {
		return nil, err
	}
	return mapreduce.NewEngine(store).RunContext(ctx, job, "input")
}

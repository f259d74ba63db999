// Package trace derives measured dataflow profiles from real executions of
// the workloads on the MapReduce engine. It is the calibration bridge
// between the real path (Go code over real data) and the analytic path
// (the cluster simulator at paper scale): the shipped workload Specs must
// agree with traced measurements, which the tests enforce.
package trace

import (
	"context"
	"fmt"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/isa"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// Measurement is the dataflow profile observed in one real run.
type Measurement struct {
	// Workload is the workload name.
	Workload string
	// InputBytes is the generated input size.
	InputBytes units.Bytes
	// MapTasks and ReduceTasks are the executed task counts.
	MapTasks    int
	ReduceTasks int
	// MapOutputRatio is map output bytes per input byte (pre-combiner).
	MapOutputRatio float64
	// CombinerReduction is the combiner's record reduction factor.
	CombinerReduction float64
	// ShuffleRatio is shuffled bytes per input byte (post-combiner).
	ShuffleRatio float64
	// ReduceOutputRatio is final output bytes per input byte.
	ReduceOutputRatio float64
	// RecordsPerKB is map input records per input kilobyte.
	RecordsPerKB float64
	// SpillsPerMapTask is the average spill count per map task.
	SpillsPerMapTask float64
}

// Options configures a measurement run.
type Options struct {
	// Size is the generated input size (default 64 KB).
	Size units.Bytes
	// BlockSize is the HDFS block size (default 16 KB).
	BlockSize units.Bytes
	// Reducers is the reduce-task count (default 2).
	Reducers int
	// SortBuffer overrides the engine sort buffer (default Hadoop 100 MB).
	SortBuffer units.Bytes
	// Seed selects the generated dataset (default 1).
	Seed int64
}

func (o *Options) setDefaults() {
	if o.Size <= 0 {
		o.Size = 64 * units.KB
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 16 * units.KB
	}
	if o.Reducers <= 0 {
		o.Reducers = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Measure generates input for the workload, runs it for real on the engine
// and returns the observed dataflow profile.
func Measure(ctx context.Context, w workloads.Workload, opts Options) (Measurement, error) {
	opts.setDefaults()
	input := w.Generate(opts.Size, opts.Seed)
	store, err := hdfs.NewStore(hdfs.Config{BlockSize: opts.BlockSize, Replication: 1})
	if err != nil {
		return Measurement{}, err
	}
	if _, err := store.Write("trace-input", input); err != nil {
		return Measurement{}, err
	}
	cfg := mapreduce.DefaultConfig("trace/" + w.Name())
	cfg.NumReducers = opts.Reducers
	cfg.Parallelism = 0 // auto: one slot per CPU; counters are parallelism-independent
	if opts.SortBuffer > 0 {
		cfg.SortBuffer = opts.SortBuffer
	}
	job, err := w.Build(cfg, input)
	if err != nil {
		return Measurement{}, err
	}
	res, err := mapreduce.NewEngine(store).RunContext(ctx, job, "trace-input")
	if err != nil {
		return Measurement{}, err
	}
	c := res.Counters
	m := Measurement{
		Workload:          w.Name(),
		InputBytes:        units.Bytes(len(input)),
		MapTasks:          c.MapTasks,
		ReduceTasks:       c.ReduceTasks,
		MapOutputRatio:    c.MapOutputRatio(),
		CombinerReduction: c.CombinerReduction(),
		RecordsPerKB:      float64(c.MapInputRecords) / float64(len(input)) * 1024,
	}
	if len(input) > 0 {
		m.ShuffleRatio = float64(c.ShuffleBytes) / float64(len(input))
		m.ReduceOutputRatio = float64(c.ReduceOutputBytes) / float64(len(input))
	}
	if c.MapTasks > 0 {
		m.SpillsPerMapTask = float64(c.Spills) / float64(c.MapTasks)
	}
	return m, nil
}

// CheckSpec verifies that the workload's shipped Spec agrees with this
// measurement. The map output ratio is scale-independent and must match
// within the multiplicative tolerance. The shuffle ratio is scale-dependent
// for aggregating workloads (combiners improve with input size), so the
// spec's paper-scale value must sit at or below the small-scale measurement
// (with tolerance headroom); for non-combining workloads it must match
// within tolerance.
func (m Measurement) CheckSpec(spec workloads.Spec, tol float64) error {
	if tol < 1 {
		return fmt.Errorf("trace: tolerance must be >= 1")
	}
	within := func(name string, specVal, measured float64) error {
		const eps = 0.02
		if specVal < eps && measured < eps {
			return nil
		}
		if specVal <= 0 || measured <= 0 {
			return fmt.Errorf("trace: %s/%s: spec %v vs measured %v (one is zero)", m.Workload, name, specVal, measured)
		}
		ratio := specVal / measured
		if ratio < 1/tol || ratio > tol {
			return fmt.Errorf("trace: %s/%s: spec %v vs measured %v exceeds %vx tolerance", m.Workload, name, specVal, measured, tol)
		}
		return nil
	}
	if err := within("mapOutputRatio", spec.MapOutputRatio, m.MapOutputRatio); err != nil {
		return err
	}
	combining := m.CombinerReduction > 1.05
	if combining {
		if spec.ShuffleRatio > m.ShuffleRatio*1.2 {
			return fmt.Errorf("trace: %s/shuffleRatio: spec %v above measured %v for a combining workload", m.Workload, spec.ShuffleRatio, m.ShuffleRatio)
		}
		return nil
	}
	return within("shuffleRatio", spec.ShuffleRatio, m.ShuffleRatio)
}

// String formats the measurement.
func (m Measurement) String() string {
	return fmt.Sprintf("%s: in=%v maps=%d reduces=%d mapOut=%.3f combine=%.2f shuffle=%.3f out=%.3f rec/KB=%.1f spills/task=%.2f",
		m.Workload, m.InputBytes, m.MapTasks, m.ReduceTasks,
		m.MapOutputRatio, m.CombinerReduction, m.ShuffleRatio, m.ReduceOutputRatio,
		m.RecordsPerKB, m.SpillsPerMapTask)
}

// DraftSpec converts a measurement into a starting workload Spec: dataflow
// ratios come straight from the traced run, compute profiles from
// class-typical templates (the bundled workloads' calibration families).
// Users adding their own workload (see examples/customworkload) trace it at
// small scale, draft a spec, and then refine the compute parameters.
func (m Measurement) DraftSpec(class workloads.Class) workloads.Spec {
	template := computeTemplate(class)
	shuffle := m.ShuffleRatio
	if shuffle > m.MapOutputRatio {
		shuffle = m.MapOutputRatio
	}
	spillReduction := 1.0
	if m.CombinerReduction > 1.05 {
		// Per-spill combining is weaker than whole-job combining; a
		// conservative draft halves the log-scale benefit.
		spillReduction = 1 + (m.CombinerReduction-1)/8
		if spillReduction > 8 {
			spillReduction = 8
		}
	}
	return workloads.Spec{
		MapProfile:        template.mapProfile,
		ReduceProfile:     template.reduceProfile,
		MapOutputRatio:    m.MapOutputRatio,
		ShuffleRatio:      shuffle,
		ReduceOutputRatio: m.ReduceOutputRatio,
		SpillReduction:    spillReduction,
		HasReduce:         m.ReduceTasks > 0,
	}
}

// specTemplate pairs class-typical compute profiles.
type specTemplate struct {
	mapProfile    isa.Profile
	reduceProfile isa.Profile
}

// computeTemplate returns the calibration family for an application class:
// compute-bound drafts borrow WordCount's shape, I/O-bound Sort's, hybrids
// TeraSort's.
func computeTemplate(class workloads.Class) specTemplate {
	var src workloads.Workload
	switch class {
	case workloads.IO:
		src, _ = workloads.ByName("sort")
	case workloads.Hybrid:
		src, _ = workloads.ByName("terasort")
	default:
		src, _ = workloads.ByName("wordcount")
	}
	spec := src.Spec()
	// For map-only templates (Sort) the reduce slot holds the shuffle-sort
	// profile, which serves equally well as a draft reduce profile.
	reduce := spec.ReduceProfile
	m := spec.MapProfile
	m.Name = "draft/map"
	reduce.Name = "draft/reduce"
	return specTemplate{mapProfile: m, reduceProfile: reduce}
}

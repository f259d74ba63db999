package workloads

import (
	"fmt"

	"heterohadoop/internal/isa"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
)

// Class is the paper's application taxonomy used by the scheduler:
// compute-bound (C), I/O-bound (I) or hybrid (H).
type Class int

// Application classes.
const (
	Compute Class = iota
	IO
	Hybrid
)

// String returns the single-letter class code the paper uses.
func (c Class) String() string {
	switch c {
	case Compute:
		return "C"
	case IO:
		return "I"
	case Hybrid:
		return "H"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Spec is the calibrated, machine-independent resource description of a
// workload that the cluster simulator consumes. Dataflow ratios are
// validated against real engine runs by the trace tests.
type Spec struct {
	// MapProfile describes the map task's per-byte compute behaviour.
	MapProfile isa.Profile
	// ReduceProfile describes the reduce task's compute behaviour per
	// shuffled byte.
	ReduceProfile isa.Profile
	// MapOutputRatio is map output bytes per input byte before the
	// combiner runs (decides spill pressure against the sort buffer).
	MapOutputRatio float64
	// ShuffleRatio is shuffled bytes per input byte after the combiner, at
	// paper scale. For aggregating workloads (WordCount, Grep, NB) the
	// combiner gets more effective as inputs grow, so this is at or below
	// small-scale traced values; for non-combining workloads it equals the
	// map output ratio.
	ShuffleRatio float64
	// ReduceOutputRatio is final output bytes per input byte.
	ReduceOutputRatio float64
	// SpillReduction is the byte reduction the combiner achieves within a
	// single spill buffer (1 = no combiner). It is below the whole-job
	// CombinerReduction because one sort-buffer's worth of records holds
	// fewer duplicates per key; it governs how much spill I/O each map
	// task writes.
	SpillReduction float64
	// HasReduce reports whether the workload has a materially non-trivial
	// reduce phase (the paper treats Sort as map-only in phase breakdowns).
	HasReduce bool
	// SortSpill reports whether reduce-side work scales as n·log n with
	// input (the sort-flavoured workloads).
	SortSpill bool
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if err := s.MapProfile.Validate(); err != nil {
		return err
	}
	if s.HasReduce || s.SortSpill {
		if err := s.ReduceProfile.Validate(); err != nil {
			return err
		}
	}
	if s.MapOutputRatio < 0 {
		return fmt.Errorf("workloads: negative map output ratio")
	}
	if s.ShuffleRatio < 0 {
		return fmt.Errorf("workloads: negative shuffle ratio")
	}
	if s.ShuffleRatio > s.MapOutputRatio {
		return fmt.Errorf("workloads: shuffle ratio %v exceeds map output ratio %v", s.ShuffleRatio, s.MapOutputRatio)
	}
	if s.ReduceOutputRatio < 0 {
		return fmt.Errorf("workloads: negative reduce output ratio")
	}
	if s.SpillReduction < 1 {
		return fmt.Errorf("workloads: spill reduction %v below 1", s.SpillReduction)
	}
	return nil
}

// CombinerReduction is the byte reduction factor the combiner achieves on
// spilled data (1 = no combiner), derived from the map-output and shuffle
// ratios.
func (s Spec) CombinerReduction() float64 {
	if s.ShuffleRatio <= 0 {
		return 1
	}
	return s.MapOutputRatio / s.ShuffleRatio
}

// Workload is one of the studied Hadoop applications: it can generate its
// own synthetic input, build the real MapReduce job over that input, and
// describe itself to the simulator.
type Workload interface {
	// Name returns the paper's short code: wordcount, sort, grep,
	// terasort, naivebayes, fpgrowth.
	Name() string
	// Class returns the paper's compute/IO/hybrid classification.
	Class() Class
	// Generate produces roughly size bytes of representative input.
	Generate(size units.Bytes, seed int64) []byte
	// Build assembles the MapReduce job for the given input (available to
	// samplers such as TeraSort's partitioner builder).
	Build(cfg mapreduce.Config, input []byte) (mapreduce.Job, error)
	// Spec returns the calibrated resource profile for simulation.
	Spec() Spec
}

// Sider is a workload whose job needs side data computed once from its whole
// input for numReducers reducers, as Hadoop computes TeraSort's partition
// list or Mahout PFP's f-list at submission for the distributed cache.
type Sider interface {
	Side(input []byte, numReducers int) ([]byte, error)
}

// SideBuilder is a workload whose tasks rebuild its job from side data
// alone: a Sider's Side output, or the submitter's (grep's pattern).
type SideBuilder interface {
	BuildSide(cfg mapreduce.Config, side []byte) (mapreduce.Job, error)
}

// All returns the six studied workloads in the paper's order: the four
// micro-benchmarks, then the two real-world applications.
func All() []Workload {
	return []Workload{
		NewWordCount(),
		NewSort(),
		NewGrep("ou"),
		NewTeraSort(),
		NewNaiveBayes(),
		NewFPGrowth(2),
	}
}

// MicroBenchmarks returns WordCount, Sort, Grep and TeraSort.
func MicroBenchmarks() []Workload { return All()[:4] }

// RealWorld returns Naive Bayes and FP-Growth.
func RealWorld() []Workload { return All()[4:] }

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

package workloads

import (
	"regexp"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
)

// Grep extracts strings matching a pattern and counts match frequencies —
// the paper's second CPU-intensive micro-benchmark, with hybrid behaviour
// from its two internal stages (search, then sort by frequency).
type Grep struct {
	pattern string
	re      *regexp.Regexp
}

// NewGrep returns a Grep workload for the given regular expression.
func NewGrep(pattern string) *Grep {
	return &Grep{pattern: pattern, re: regexp.MustCompile(pattern)}
}

// Name returns "grep".
func (*Grep) Name() string { return "grep" }

// Class returns Hybrid: grep's search phase is compute-bound but its
// frequency-sort phase behaves like the sort benchmarks.
func (*Grep) Class() Class { return Hybrid }

// Generate produces Zipf-distributed text.
func (*Grep) Generate(size units.Bytes, seed int64) []byte {
	return GenerateText(size, seed)
}

// Spec returns the calibrated resource profile.
func (*Grep) Spec() Spec { return grepSpec() }

// grepMapper emits (word, 1) for words matching the pattern, scanning
// fields and matching in place.
type grepMapper struct{ re *regexp.Regexp }

func (m grepMapper) MapBytes(_ int, line []byte, emit mapreduce.ByteEmitter) error {
	forEachField(line, func(w []byte) {
		if m.re.Match(w) {
			emit(w, one)
		}
	})
	return nil
}

// Build assembles the search job: match words against the pattern, emit
// (match, 1), sum with combiner and reducer. (Hadoop's grep example chains
// a second tiny job that sorts matches by frequency; it is not built here.)
func (g *Grep) Build(cfg mapreduce.Config, _ []byte) (mapreduce.Job, error) {
	return mapreduce.Job{
		Config:   cfg,
		Mapper:   grepMapper{re: g.re},
		Combiner: sumReducer(),
		Reducer:  sumReducer(),
	}, nil
}

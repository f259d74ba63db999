package workloads

import (
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
)

// Sort orders its input lines using the framework's shuffle/sort machinery
// with identity map and reduce functions — the paper's I/O-intensive
// micro-benchmark ("the actual sorting occurs in the internal shuffle and
// sort phase"; the paper treats it as having no reduce phase because the
// reducer is an identity pass-through).
type Sort struct{}

// NewSort returns the Sort workload.
func NewSort() *Sort { return &Sort{} }

// Name returns "sort".
func (*Sort) Name() string { return "sort" }

// Class returns IO: the paper classifies Sort as I/O-intensive.
func (*Sort) Class() Class { return IO }

// Generate produces fixed-width random integer lines.
func (*Sort) Generate(size units.Bytes, seed int64) []byte {
	return GenerateNumbers(size, seed)
}

// Spec returns the calibrated resource profile.
func (*Sort) Spec() Spec { return sortSpec() }

// Build samples the input for quantile cuts and assembles the sort job.
func (s *Sort) Build(cfg mapreduce.Config, input []byte) (mapreduce.Job, error) {
	side, err := s.Side(input, cfg.NumReducers)
	if err != nil {
		return mapreduce.Job{}, err
	}
	return s.BuildSide(cfg, side)
}

// Side samples the input for numReducers-1 quantile cut keys.
func (*Sort) Side(input []byte, numReducers int) ([]byte, error) {
	return sideCuts(input, numReducers, func(line string) string { return line })
}

// BuildSide assembles the sort job around Side's cuts: identity mapper keyed
// by the record, a range partitioner for global order, identity reducer.
func (*Sort) BuildSide(cfg mapreduce.Config, side []byte) (mapreduce.Job, error) {
	return mapreduce.Job{
		Config:      cfg,
		Mapper:      mapreduce.IdentityMapper(),
		Reducer:     mapreduce.IdentityReducer(),
		Partitioner: mapreduce.RangePartitioner(parseCuts(side)),
	}, nil
}

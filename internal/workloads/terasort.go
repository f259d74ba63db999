package workloads

import (
	"bytes"
	"strings"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
)

// TeraSort performs a scalable sort of TeraGen-format records: it samples
// the input to compute quantile cut keys, range-partitions on the 10-byte
// key, and relies on the shuffle for ordering — the paper's hybrid
// micro-benchmark.
type TeraSort struct{}

// NewTeraSort returns the TeraSort workload.
func NewTeraSort() *TeraSort { return &TeraSort{} }

// Name returns "terasort".
func (*TeraSort) Name() string { return "terasort" }

// Class returns Hybrid per the paper's characterization.
func (*TeraSort) Class() Class { return Hybrid }

// Generate produces TeraGen-format records.
func (*TeraSort) Generate(size units.Bytes, seed int64) []byte {
	return GenerateTeraRecords(size, seed)
}

// Spec returns the calibrated resource profile.
func (*TeraSort) Spec() Spec { return teraSortSpec() }

// teraKey extracts the 10-byte sort key from a record line.
func teraKey(line string) string {
	if i := strings.IndexByte(line, '\t'); i >= 0 {
		return line[:i]
	}
	return line
}

// teraMapper splits records into (key, payload) at the tab, in place.
type teraMapper struct{}

func (teraMapper) MapBytes(_ int, line []byte, emit mapreduce.ByteEmitter) error {
	if i := bytes.IndexByte(line, '\t'); i >= 0 {
		emit(line[:i], line[i+1:])
	} else {
		emit(line, nil)
	}
	return nil
}

// Build samples the input for quantile cuts and assembles the sort job.
func (t *TeraSort) Build(cfg mapreduce.Config, input []byte) (mapreduce.Job, error) {
	side, err := t.Side(input, cfg.NumReducers)
	if err != nil {
		return mapreduce.Job{}, err
	}
	return t.BuildSide(cfg, side)
}

// Side samples the record keys for TeraSort's partition list.
func (*TeraSort) Side(input []byte, numReducers int) ([]byte, error) {
	return sideCuts(input, numReducers, teraKey)
}

// BuildSide assembles the sort job around Side's cuts.
func (*TeraSort) BuildSide(cfg mapreduce.Config, side []byte) (mapreduce.Job, error) {
	return BuildTeraSortWithCuts(cfg, parseCuts(side)), nil
}

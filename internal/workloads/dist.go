package workloads

import "heterohadoop/internal/mapreduce"

// The TeraSort helpers below assemble the job around cuts sampled from part
// of the input, for a caller that never holds it whole (bench/'s file runs).

// SampleCuts samples input lines and returns numReducers-1 quantile cut
// keys (TeraSort's sampler), extracting each line's sort key with keyOf.
func SampleCuts(input []byte, numReducers int, keyOf func(line string) string) ([]string, error) {
	return sampleCuts(input, numReducers, keyOf)
}

// TeraKey extracts the 10-byte TeraSort key from a record line.
func TeraKey(line string) string { return teraKey(line) }

// BuildTeraSortWithCuts assembles the TeraSort job around externally
// supplied range-partitioner cuts instead of sampling the input locally.
func BuildTeraSortWithCuts(cfg mapreduce.Config, cuts []string) mapreduce.Job {
	return mapreduce.Job{
		Config:      cfg,
		Mapper:      teraMapper{},
		Reducer:     mapreduce.IdentityReducer(),
		Partitioner: mapreduce.RangePartitioner(cuts),
	}
}

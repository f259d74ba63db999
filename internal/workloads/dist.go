package workloads

import (
	"strings"

	"heterohadoop/internal/mapreduce"
)

// The helpers below expose the master-side preparation steps a distributed
// runtime needs to ship jobs by name: input sampling for the range
// partitioners, the FP-Growth item-frequency list, and a job builder that
// accepts a pre-computed f-list instead of scanning its input.

// SampleCuts samples input lines and returns numReducers-1 quantile cut
// keys (TeraSort's sampler), extracting each line's sort key with keyOf.
func SampleCuts(input []byte, numReducers int, keyOf func(line string) string) ([]string, error) {
	return sampleCuts(input, numReducers, keyOf)
}

// TeraKey extracts the 10-byte TeraSort key from a record line.
func TeraKey(line string) string { return teraKey(line) }

// CountItems builds FP-Growth's global item-frequency list (the f-list)
// from transaction input: per-transaction-deduplicated item counts.
func CountItems(input []byte) map[string]int {
	counts := make(map[string]int)
	for _, line := range strings.Split(string(input), "\n") {
		if line == "" {
			continue
		}
		for _, item := range dedupe(strings.Fields(line)) {
			counts[item]++
		}
	}
	return counts
}

// BuildTeraSortWithCuts assembles the TeraSort job around externally
// supplied range-partitioner cuts (computed by a master-side sampler)
// instead of sampling the input locally.
func BuildTeraSortWithCuts(cfg mapreduce.Config, cuts []string) mapreduce.Job {
	return mapreduce.Job{
		Config:      cfg,
		Mapper:      teraMapper{},
		Reducer:     mapreduce.IdentityReducer(),
		Partitioner: mapreduce.RangePartitioner(cuts),
	}
}

// BuildFPGrowthWithFList assembles the FP-Growth mining job from an
// externally supplied f-list, for runtimes that compute the counting pass
// centrally (or as a separate job) and ship the result to workers.
func BuildFPGrowthWithFList(cfg mapreduce.Config, counts map[string]int, minSupport int) mapreduce.Job {
	if minSupport < 1 {
		minSupport = 1
	}
	return buildFPGrowthJob(cfg, counts, minSupport)
}

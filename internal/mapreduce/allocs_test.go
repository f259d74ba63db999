package mapreduce_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// TestEngineAllocsPerRecord is the regression fence for the flat-arena
// record path: a whole job may allocate per task, per spill and per
// partition, never per record. The bound is a fixed fraction of the map
// output records, so it needs no baseline file and no matching machine —
// today's engine allocates 0.015 (wordcount) to 0.07 (terasort) times per
// record, and one revived per-record allocation pushes that past 1. The
// terasort-cuts row is the job as hadoopd and bench/ build it. The
// naivebayes row fences the string adapters: its mapper concatenates one
// key string per emit and the adapter pays a string or two per input line,
// 1.27 per record together; an adapter that allocated per emitted record
// would read above 3.
//
// Under the race detector the record sort runs about ten times slower and
// the determinism lanes repeat every test nine times, while the counts come
// out the same, so the fence runs in uninstrumented binaries only: tier-1's
// `go test ./...` and its own lane in ci.sh.
func TestEngineAllocsPerRecord(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are checked without the race detector")
			}
		}
	}
	build := workloads.Workload.Build
	buildWithCuts := func(_ workloads.Workload, cfg mapreduce.Config, input []byte) (mapreduce.Job, error) {
		cuts, err := workloads.SampleCuts(input, cfg.NumReducers, workloads.TeraKey)
		return workloads.BuildTeraSortWithCuts(cfg, cuts), err
	}
	for _, row := range []struct {
		name, workload     string
		build              func(workloads.Workload, mapreduce.Config, []byte) (mapreduce.Job, error)
		maxAllocsPerRecord float64
	}{
		{"wordcount", "wordcount", build, 0.25},
		{"terasort", "terasort", build, 0.25},
		{"terasort-cuts", "terasort", buildWithCuts, 0.25},
		{"naivebayes", "naivebayes", build, 1.45},
	} {
		w, err := workloads.ByName(row.workload)
		if err != nil {
			t.Fatal(err)
		}
		input := w.Generate(units.MB, 1)
		store, err := hdfs.NewStore(hdfs.Config{BlockSize: 64 * units.KB, Replication: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Write("input", input); err != nil {
			t.Fatal(err)
		}
		for _, parallelism := range []int{1, 0} {
			cfg := mapreduce.DefaultConfig(row.name)
			cfg.NumReducers = 4
			cfg.Parallelism = parallelism
			job, err := row.build(w, cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			run := func() *mapreduce.Result {
				res, err := mapreduce.NewEngine(store).RunContext(context.Background(), job, "input")
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			run() // warm the buffer pools, so the measured run sees steady state
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := run()
			runtime.ReadMemStats(&after)
			records := res.Counters.MapOutputRecords
			if records == 0 {
				t.Fatalf("%s: no map output records", row.name)
			}
			allocs := after.Mallocs - before.Mallocs
			perRecord := float64(allocs) / float64(records)
			t.Logf("%s parallelism %d: %.3f allocations per map output record", row.name, parallelism, perRecord)
			if perRecord > row.maxAllocsPerRecord {
				t.Errorf("%s parallelism %d: %d allocations for %d map output records (%.3f per record), want <= %.2f",
					row.name, parallelism, allocs, records, perRecord, row.maxAllocsPerRecord)
			}
		}
	}
}

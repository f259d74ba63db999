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
// record, and one revived per-record allocation pushes that past 1.
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
	const maxAllocsPerRecord = 0.25
	for _, name := range []string{"wordcount", "terasort"} {
		w, err := workloads.ByName(name)
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
			cfg := mapreduce.DefaultConfig(name)
			cfg.NumReducers = 4
			cfg.Parallelism = parallelism
			job, err := w.Build(cfg, input)
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
				t.Fatalf("%s: no map output records", name)
			}
			allocs := after.Mallocs - before.Mallocs
			if perRecord := float64(allocs) / float64(records); perRecord > maxAllocsPerRecord {
				t.Errorf("%s parallelism %d: %d allocations for %d map output records (%.3f per record), want <= %.2f",
					name, parallelism, allocs, records, perRecord, maxAllocsPerRecord)
			}
		}
	}
}

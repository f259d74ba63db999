package mapreduce_test

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
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
	skipUnderRace(t)
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

// skipUnderRace skips an allocation fence in a binary built with -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are checked without the race detector")
			}
		}
	}
}

// oocTeraSort is the bench's terasort-ooc job in miniature — 16 splits, 4
// reducers, sort buffer = spill memory = half a split, the default
// MergeFactor of 10 — over input, with cuts sampled from it. Every map task
// spills to files and merges them into one output file, so each reducer faces
// 16 disk runs against a fan-in of 10. It returns the split size to run with.
func oocTeraSort(t *testing.T, name string, input []byte, spillDir string) (mapreduce.Job, units.Bytes) {
	t.Helper()
	split := units.Bytes((len(input) + 15) / 16)
	cfg := mapreduce.DefaultConfig(name)
	cfg.NumReducers = 4
	cfg.SortBuffer = split / 2
	if spillDir != "" {
		cfg.SpillDir = spillDir
		cfg.SpillMemory = split / 2
	}
	cuts, err := workloads.SampleCuts(input, cfg.NumReducers, workloads.TeraKey)
	if err != nil {
		t.Fatal(err)
	}
	return workloads.BuildTeraSortWithCuts(cfg, cuts), split
}

// TestOutOfCoreHopCount counts how often a record crosses the disk. A spilled
// terasort writes each record at the map spill and at the map task's output
// merge, and the reduce-side consolidation rewrites only the 7 of 16 runs
// the fan-in forces: at most 2.6 times the shuffle in spill-file bytes, where
// rewriting all 16 costs 2.95 in raw terms. Everything the job computes —
// output bytes and every counter the disk path does not own — equals the
// in-memory run's.
func TestOutOfCoreHopCount(t *testing.T) {
	input := workloads.NewTeraSort().Generate(4*units.MB, 7)
	run := func(spillDir string) (mapreduce.Counters, []byte) {
		job, split := oocTeraSort(t, "hops", input, spillDir)
		store, err := hdfs.NewStore(hdfs.Config{BlockSize: split, Replication: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Write("input", input); err != nil {
			t.Fatal(err)
		}
		res, err := mapreduce.NewEngine(store).RunContext(context.Background(), job, "input")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		var out bytes.Buffer
		if err := res.MaterializeOutputTo(&out); err != nil {
			t.Fatal(err)
		}
		return res.Counters, out.Bytes()
	}
	mem, memOut := run("")
	ooc, oocOut := run(t.TempDir())
	if mem.MapTasks != 16 || ooc.SpillFilesWritten == 0 || ooc.ReduceMergePasses != 4 {
		t.Fatalf("test shape is off — want 16 map tasks, file spills and one consolidation round per reducer:\nmem %+v\nooc %+v", mem, ooc)
	}
	if limit := ooc.ShuffleBytes * 26 / 10; ooc.SpillFileBytesWritten > limit {
		t.Errorf("SpillFileBytesWritten = %d, %.2f x the %d shuffle bytes, want <= 2.6 x",
			ooc.SpillFileBytesWritten, float64(ooc.SpillFileBytesWritten)/float64(ooc.ShuffleBytes), ooc.ShuffleBytes)
	}
	ooc.SpillFilesWritten, ooc.SpillFileBytesWritten, ooc.SpillFileBytesRead, ooc.ReduceMergePasses = 0, 0, 0, 0
	if ooc != mem || !bytes.Equal(oocOut, memOut) {
		t.Errorf("out-of-core run diverges from the in-memory run beyond the spill fields (output equal: %v):\nooc %+v\nmem %+v", bytes.Equal(oocOut, memOut), ooc, mem)
	}
}

// TestOutOfCoreAllocBytes fences the bytes a spilled job allocates: at most
// three times its input plus a fixed allowance for the per-run slot buffers,
// however many writers and disk cursors it opens — their frame scratch is
// recycled, a spill bound for a file is laid out in slot scratch, and nothing
// is inflated. A fresh buffer per writer and per cursor, which is what the
// fence replaces, measured eleven times the input on the bench workload.
// The job runs once from a local file and once from a store holding the
// same bytes: both read each split's window into slot buffers.
func TestOutOfCoreAllocBytes(t *testing.T) {
	skipUnderRace(t)
	input := workloads.NewTeraSort().Generate(16*units.MB, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "input")
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	job, split := oocTeraSort(t, "ooc-alloc", input, filepath.Join(dir, "spill"))
	job.Config.Parallelism = 2 // the allowance below is two slots' buffers
	store, err := hdfs.NewStore(hdfs.Config{BlockSize: split, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write("input", input); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() (*mapreduce.Result, error)
	}{
		{"file", func() (*mapreduce.Result, error) {
			return mapreduce.NewEngine(nil).RunFileContext(context.Background(), job, path, split)
		}},
		{"store", func() (*mapreduce.Result, error) {
			return mapreduce.NewEngine(store).RunContext(context.Background(), job, "input")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				res, err := tc.run()
				if err != nil {
					t.Fatal(err)
				}
				defer res.Close()
				if err := res.MaterializeOutputTo(io.Discard); err != nil {
					t.Fatal(err)
				}
				if res.Counters.SpillFilesWritten == 0 || res.Counters.ReduceMergePasses == 0 {
					t.Fatalf("test shape is off — want file spills and a consolidation round: %+v", res.Counters)
				}
			}
			run() // warm the frame pool, so the measured run sees steady state
			// No collection during the measured run: a cycle empties the pool, and how
			// many land inside one job is the machine's business, not the engine's.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			const allowance = 8 << 20
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%.2f x the input allocated (%d bytes for %d)", float64(alloc)/float64(len(input)), alloc, len(input))
			if alloc > 3*uint64(len(input))+allowance {
				t.Errorf("one spilled job over %d input bytes allocated %d bytes (%.2f x), want <= 3 x + %d",
					len(input), alloc, float64(alloc)/float64(len(input)), allowance)
			}
		})
	}
}

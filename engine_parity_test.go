package heterohadoop_test

// engine_parity_test.go pins the executor's determinism claim at the
// workload level: for every studied application, output and counters must
// be byte-identical to the serial in-memory run at any parallelism, and the
// out-of-core run must match it in everything but the disk-path counters.
// It lives at the repo root because internal/workloads imports
// internal/mapreduce.

import (
	"context"
	"reflect"
	"testing"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func runWorkload(t *testing.T, w workloads.Workload, input []byte, parallelism int, spillDir string) *mapreduce.Result {
	t.Helper()
	store, err := hdfs.NewStore(hdfs.Config{BlockSize: units.Bytes(len(input))/6 + 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write("in", input); err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.DefaultConfig(w.Name())
	cfg.NumReducers = 3
	cfg.SortBuffer = 4 * units.KB // force spills so the merge machinery runs
	cfg.Parallelism = parallelism
	cfg.SpillDir = spillDir
	cfg.SpillMemory = 8 * units.KB // with a SpillDir: overflow to disk
	job, err := w.Build(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.NewEngine(store).RunContext(context.Background(), job, "in")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Close() })
	return res
}

// TestStreamingShuffleParityAllWorkloads checks, for every workload, that
// per-partition output, global sorted output and every counter are
// identical between the serial run and the parallel runs, that no
// in-memory run records a disk merge pass, and that the out-of-core run
// differs only in the spill-file and disk-merge-pass counters.
func TestStreamingShuffleParityAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			size := 64 * units.KB
			if w.Name() == "fpgrowth" {
				// Its mapper emits quadratic prefix-path bytes per line; a
				// quarter of the input keeps the -race -cpu 1,2,4 gate in
				// seconds and still spills and merges in every run.
				size = 16 * units.KB
			}
			input := w.Generate(size, 42)
			want := runWorkload(t, w, input, 1, "")
			if want.Counters.ReduceMergePasses != 0 {
				t.Fatalf("in-memory run recorded %d reduce merge passes", want.Counters.ReduceMergePasses)
			}
			same := func(label string, got *mapreduce.Result) {
				t.Helper()
				if !reflect.DeepEqual(got.Output(), want.Output()) {
					t.Fatalf("%s: output differs from the serial in-memory run", label)
				}
				if !reflect.DeepEqual(got.SortedOutput(), want.SortedOutput()) {
					t.Fatalf("%s: SortedOutput differs", label)
				}
			}
			for _, par := range []int{0, 4} { // one slot per CPU, and four
				got := runWorkload(t, w, input, par, "")
				same("in-memory parallel", got)
				if got.Counters != want.Counters {
					t.Fatalf("parallelism %d: counters differ:\nparallel %+v\nserial   %+v", par, got.Counters, want.Counters)
				}
			}
			ooc := runWorkload(t, w, input, 0, t.TempDir())
			same("out-of-core", ooc)
			gc := ooc.Counters
			gc.SpillFilesWritten, gc.SpillFileBytesWritten, gc.SpillFileBytesRead = 0, 0, 0
			gc.ReduceMergePasses = 0
			if gc != want.Counters {
				t.Fatalf("out-of-core counters diverge beyond the disk fields:\nooc %+v\nmem %+v", gc, want.Counters)
			}
		})
	}
}

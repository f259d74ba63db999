package heterohadoop_test

// arena_parity_test.go pins the arena fast path's equivalence contract: a
// job whose mapper/reducer/partitioner expose the byte-level interfaces
// (ByteMapper, StreamReducer, BytePartitioner) must produce output,
// sorted output and counters byte-identical to the same job forced through
// the legacy string adapters. The fuzz target drives all six workloads
// plus an adversarial echo job (empty keys and values, multi-KB keys,
// non-UTF8 bytes, duplicate keys spanning spill segments) through both
// paths; the deterministic test pins exact counter parity — spill, merge
// and shuffle byte accounting included — for every workload.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// stringOnlyJob rewraps a job's user code in the plain func adapters, which
// implement only the string interfaces: the engine's type assertions for
// the byte fast paths all fail, forcing the legacy string route through
// the same arena machinery. A nil partitioner is pinned to the wrapped
// default so the engine's built-in hash partitioner cannot sneak its byte
// path back in.
func stringOnlyJob(job mapreduce.Job) mapreduce.Job {
	out := job
	out.Mapper = mapreduce.MapperFunc(job.Mapper.Map)
	if job.Combiner != nil {
		out.Combiner = mapreduce.ReducerFunc(job.Combiner.Reduce)
	}
	if job.Reducer != nil {
		out.Reducer = mapreduce.ReducerFunc(job.Reducer.Reduce)
	}
	p := job.Partitioner
	if p == nil {
		p = mapreduce.HashPartitioner()
	}
	out.Partitioner = mapreduce.PartitionerFunc(p.Partition)
	return out
}

// runParityJob executes a job over input without failing the test, so
// callers can require that both paths agree on errors too.
func runParityJob(tb testing.TB, job mapreduce.Job, input []byte) (*mapreduce.Result, error) {
	tb.Helper()
	store, err := hdfs.NewStore(hdfs.Config{BlockSize: units.Bytes(len(input))/6 + 1, Replication: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := store.Write("in", input); err != nil {
		tb.Fatal(err)
	}
	return mapreduce.NewEngine(store).Run(job, "in")
}

// parityConfig forces the interesting machinery: several reducers, a sort
// buffer small enough to spill, and fan-in 2 so multi-pass merges run.
func parityConfig(name string) mapreduce.Config {
	cfg := mapreduce.DefaultConfig(name)
	cfg.NumReducers = 3
	cfg.SortBuffer = 4 * units.KB
	cfg.MergeFactor = 2
	cfg.Parallelism = 1
	return cfg
}

// echoMapper splits each line at the first ':' into (key, value) on both
// the string and byte paths — the adversarial record generator for the
// fuzz target (fuzz data chooses the bytes on either side of the colon).
type echoMapper struct{}

func (echoMapper) Map(_, line string, emit mapreduce.Emitter) error {
	if i := strings.IndexByte(line, ':'); i >= 0 {
		emit(line[:i], line[i+1:])
	} else {
		emit(line, "")
	}
	return nil
}

func (echoMapper) MapBytes(_ int, line []byte, emit mapreduce.ByteEmitter) error {
	if i := bytes.IndexByte(line, ':'); i >= 0 {
		emit(line[:i], line[i+1:])
	} else {
		emit(line, nil)
	}
	return nil
}

// buildParityJob returns the fast-path job for a fuzz mode: modes 0-5 are
// the six studied workloads, 6 the adversarial echo job, 7 the echo job
// with a secondary-sort grouping (group on first key byte).
func buildParityJob(mode uint8, cfg mapreduce.Config, input []byte) (mapreduce.Job, error) {
	if mode < 6 {
		return workloads.All()[mode].Build(cfg, input)
	}
	job := mapreduce.Job{
		Config:  cfg,
		Mapper:  echoMapper{},
		Reducer: mapreduce.IdentityReducer(),
	}
	if mode == 7 {
		job.Grouping = func(a, b string) bool {
			if len(a) == 0 || len(b) == 0 {
				return len(a) == len(b)
			}
			return a[0] == b[0]
		}
	}
	return job, nil
}

// comparePaths runs the fast job and its string-forced twin over input and
// fails if any observable — per-partition output, globally sorted output,
// counters, or error behaviour — differs.
func comparePaths(t *testing.T, fast mapreduce.Job, input []byte) {
	t.Helper()
	want, wantErr := runParityJob(t, stringOnlyJob(fast), input)
	got, gotErr := runParityJob(t, fast, input)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error parity: string path err=%v, arena path err=%v", wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got.Output(), want.Output()) {
		t.Fatalf("arena output differs from string-path output")
	}
	if !reflect.DeepEqual(got.SortedOutput(), want.SortedOutput()) {
		t.Fatalf("arena SortedOutput differs from string path")
	}
	if got.Counters != want.Counters {
		t.Fatalf("counters differ:\narena  %+v\nstring %+v", got.Counters, want.Counters)
	}
}

// TestArenaStringCounterParityAllWorkloads pins exact counter parity — the
// KV.Bytes accounting identity — between the byte fast paths and the
// string adapters for every workload. Spilled, merged and shuffled byte
// counters must match record for record.
func TestArenaStringCounterParityAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			input := w.Generate(48*units.KB, 7)
			job, err := w.Build(parityConfig(w.Name()), input)
			if err != nil {
				t.Fatal(err)
			}
			comparePaths(t, job, input)
		})
	}
}

// FuzzStringVsArenaParity fuzzes the equivalence contract itself. The seed
// corpus covers each workload plus the adversarial record shapes the arena
// must not mangle: empty keys, empty values, multi-kilobyte keys larger
// than the sort buffer's spill granule, invalid UTF-8, and duplicate-key
// runs long enough to span several spill segments.
func FuzzStringVsArenaParity(f *testing.F) {
	for mode := uint8(0); mode < 6; mode++ {
		f.Add(mode, workloads.All()[mode].Generate(4*units.KB, 21))
	}
	f.Add(uint8(6), []byte(":\n:v\nk:\n::\n"))                              // empty keys and values
	f.Add(uint8(6), []byte(strings.Repeat("K", 8192)+":v\nsmall:1\n"))      // multi-KB key
	f.Add(uint8(6), []byte("\xff\xfe\x80:val\nkey:\xc3\x28\n\x00:\x00\n"))  // non-UTF8 bytes
	f.Add(uint8(6), []byte(strings.Repeat("dup:x\n", 600)))                 // duplicates spanning segments
	f.Add(uint8(7), []byte("a1:x\na2:y\nb1:z\na3:w\n"))                     // grouped keys
	f.Add(uint8(7), []byte(strings.Repeat("g", 4096)+":v\n:empty\ng0:q\n")) // grouping with edge keys

	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		mode %= 8
		if len(data) == 0 {
			return
		}
		// Bound fuzz cost: FP-Growth's mapper emits quadratic prefix-path
		// bytes per line, the rest stay linear.
		limit := 16 * 1024
		if mode == 5 {
			limit = 2 * 1024
		}
		if len(data) > limit {
			data = data[:limit]
		}
		job, err := buildParityJob(mode, parityConfig("fuzz"), data)
		if err != nil {
			// Both paths share Build; nothing to compare.
			return
		}
		comparePaths(t, job, data)

		// The parallel arena run must agree with the serial string-forced
		// reference on output and on every counter.
		pjob := job
		pjob.Config.Parallelism = 4
		want, wantErr := runParityJob(t, stringOnlyJob(job), data)
		got, gotErr := runParityJob(t, pjob, data)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("parallel error parity: serial err=%v, parallel err=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got.Output(), want.Output()) {
			t.Fatalf("parallel arena output differs from serial string-path output")
		}
		if got.Counters != want.Counters || want.Counters.ReduceMergePasses != 0 {
			t.Fatalf("parallel counters differ:\narena  %+v\nstring %+v", got.Counters, want.Counters)
		}
	})
}

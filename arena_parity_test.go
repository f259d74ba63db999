package heterohadoop_test

// arena_parity_test.go pins the string API's equivalence contract: a job
// written against the func adapters (MapperFunc, ReducerFunc,
// PartitionerFunc) must produce output, sorted output, counters and errors
// identical to the same job written natively against the engine's byte
// contracts. The fuzz target drives an adversarial echo job (empty keys and
// values, multi-KB keys, non-UTF8 bytes, duplicate keys spanning spill
// segments) through both forms, and every job —
// the six workloads included — serially and at Parallelism 4.

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

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
	return mapreduce.NewEngine(store).RunContext(context.Background(), job, "in")
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

// errEcho is what both echo mappers return for a line starting with '!'.
var errEcho = errors.New("echo: rejected line")

// echoMapper splits each line at the first ':' into (key, value) — the
// adversarial record generator for the fuzz target (fuzz data chooses the
// bytes on either side of the colon).
type echoMapper struct{}

func (echoMapper) MapBytes(_ int, line []byte, emit mapreduce.ByteEmitter) error {
	if line[0] == '!' {
		return errEcho
	}
	if i := bytes.IndexByte(line, ':'); i >= 0 {
		emit(line[:i], line[i+1:])
	} else {
		emit(line, nil)
	}
	return nil
}

// echoJob is the echo job in native form: byte mapper, the engine's
// identity reducer (as combiner too) and its default hash partitioner.
func echoJob(cfg mapreduce.Config) mapreduce.Job {
	return mapreduce.Job{
		Config:   cfg,
		Mapper:   echoMapper{},
		Combiner: mapreduce.IdentityReducer(),
		Reducer:  mapreduce.IdentityReducer(),
	}
}

// echoJobStrings is the same job written against the string API only.
func echoJobStrings(cfg mapreduce.Config) mapreduce.Job {
	identity := mapreduce.ReducerFunc(func(key string, values []string, emit mapreduce.Emitter) error {
		for _, v := range values {
			emit(key, v)
		}
		return nil
	})
	return mapreduce.Job{
		Config: cfg,
		Mapper: mapreduce.MapperFunc(func(_, line string, emit mapreduce.Emitter) error {
			if line[0] == '!' {
				return errEcho
			}
			key, value, _ := strings.Cut(line, ":")
			emit(key, value)
			return nil
		}),
		Combiner: identity,
		Reducer:  identity,
		Partitioner: mapreduce.PartitionerFunc(func(key string, n int) int {
			h := fnv.New32a()
			h.Write([]byte(key))
			return int(h.Sum32() % uint32(n))
		}),
	}
}

// compareRuns fails if two runs of what should be the same job differ in
// any observable: error behaviour, per-partition output, globally sorted
// output, or any counter.
func compareRuns(t *testing.T, what string, got *mapreduce.Result, gotErr error, want *mapreduce.Result, wantErr error) {
	t.Helper()
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: error parity: got err=%v, want err=%v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		if errors.Is(wantErr, errEcho) != errors.Is(gotErr, errEcho) {
			t.Fatalf("%s: error cause differs: got %v, want %v", what, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got.Output(), want.Output()) {
		t.Fatalf("%s: output differs", what)
	}
	if !reflect.DeepEqual(got.SortedOutput(), want.SortedOutput()) {
		t.Fatalf("%s: SortedOutput differs", what)
	}
	if got.Counters != want.Counters || want.Counters.ReduceMergePasses != 0 {
		t.Fatalf("%s: counters differ:\ngot  %+v\nwant %+v", what, got.Counters, want.Counters)
	}
}

// FuzzStringVsArenaParity fuzzes the equivalence contract itself. Modes
// 0-5 are the six studied workloads, 6 the adversarial echo job. The seed
// corpus covers each workload plus the record shapes the arena must not
// mangle: empty keys, empty values, multi-kilobyte keys larger than the sort
// buffer's spill granule, invalid UTF-8, and duplicate-key runs long enough
// to span several spill segments.
func FuzzStringVsArenaParity(f *testing.F) {
	for mode := uint8(0); mode < 6; mode++ {
		f.Add(mode, workloads.All()[mode].Generate(4*units.KB, 21))
	}
	f.Add(uint8(6), []byte(":\n:v\nk:\n::\n"))                              // empty keys and values
	f.Add(uint8(6), []byte(strings.Repeat("K", 8192)+":v\nsmall:1\n"))      // multi-KB key
	f.Add(uint8(6), []byte("\xff\xfe\x80:val\nkey:\xc3\x28\n\x00:\x00\n"))  // non-UTF8 bytes
	f.Add(uint8(6), []byte(strings.Repeat("dup:x\n", 600)))                 // duplicates spanning segments
	f.Add(uint8(6), []byte("a1:x\na2:y\nb1:z\na3:w\n"))                     // keys sharing a prefix
	f.Add(uint8(6), []byte(strings.Repeat("g", 4096)+":v\n:empty\ng0:q\n")) // multi-KB and prefix keys
	f.Add(uint8(6), []byte("a:1\nb:2\n!boom\nc:3\n"))                       // mapper error mid-input

	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		mode %= 7
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
		cfg := parityConfig("fuzz")
		var job mapreduce.Job
		if mode < 6 {
			var err error
			if job, err = workloads.All()[mode].Build(cfg, data); err != nil {
				return // nothing to run
			}
		} else {
			job = echoJob(cfg)
			want, wantErr := runParityJob(t, echoJobStrings(cfg), data)
			got, gotErr := runParityJob(t, job, data)
			compareRuns(t, "native vs string API", got, gotErr, want, wantErr)
		}

		// The parallel run must agree with the serial one on output, errors
		// and every counter.
		pjob := job
		pjob.Config.Parallelism = 4
		want, wantErr := runParityJob(t, job, data)
		got, gotErr := runParityJob(t, pjob, data)
		compareRuns(t, "parallel vs serial", got, gotErr, want, wantErr)
	})
}

package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// sortedOutputReference is the legacy SortedOutput semantics: concatenate
// all partitions in order, then stable-sort globally by key.
func sortedOutputReference(r *Result) []KV {
	var out []KV
	for _, p := range r.Output() {
		out = append(out, p...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestSortedOutputMergeMatchesSort pins the k-way-merge SortedOutput
// against the legacy concatenate-then-sort semantics, including key ties
// spanning partitions (where only merge stability by partition order keeps
// the two identical) and empty partitions.
func TestSortedOutputMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		nparts := 1 + rng.Intn(8)
		output := make([][]KV, nparts)
		for p := range output {
			n := rng.Intn(10)
			kvs := make([]KV, n)
			for i := range kvs {
				kvs[i] = KV{Key: fmt.Sprintf("k%d", rng.Intn(6)), Value: fmt.Sprintf("p%d.%d", p, i)}
			}
			sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
			output[p] = kvs
		}
		res := ResultFromKVs(output, Counters{})
		got := res.SortedOutput()
		want := sortedOutputReference(res)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merge-based SortedOutput diverges\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

// TestSortedOutputUnsortedPartitionFallback covers the slow path: a
// partition whose records are not key-sorted (a reducer may emit keys in
// any order) must still come out globally sorted, exactly as the legacy
// concatenate-then-sort produced.
func TestSortedOutputUnsortedPartitionFallback(t *testing.T) {
	res := ResultFromKVs([][]KV{
		{{Key: "z", Value: "1"}, {Key: "a", Value: "2"}}, // out of order
		{{Key: "m", Value: "3"}},
	}, Counters{})
	got := res.SortedOutput()
	want := sortedOutputReference(res)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback SortedOutput = %v, want %v", got, want)
	}
	if got[0].Key != "a" || got[2].Key != "z" {
		t.Fatalf("fallback not sorted: %v", got)
	}
}

// resultGobCases are the results the wire round trip is pinned on, and the
// seeds of the decoder's fuzz target.
func resultGobCases() map[string]*Result {
	return map[string]*Result{
		"regular": ResultFromKVs([][]KV{
			{{Key: "a", Value: "1"}, {Key: "b", Value: ""}},
			nil, // empty partition
			{{Key: "c", Value: strings.Repeat("v", 300)}},
		}, Counters{MapTasks: 3, ReduceTasks: 2, ReduceOutputRecords: 3}),
		"counters-only": {Counters: Counters{MapTasks: 1}},
	}
}

// TestResultGobRoundTrip pins the wire behavior of Result across net/rpc:
// partitions travel in the binary segment format via GobEncode/GobDecode,
// and the decoded result reproduces Output, SortedOutput and Counters
// exactly — including nil-output results (failed runs ship counters only)
// and empty partitions. The decoded result owns its bytes: overwriting the
// buffer it was decoded from changes nothing.
func TestResultGobRoundTrip(t *testing.T) {
	for name, res := range resultGobCases() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(res); err != nil {
				t.Fatal(err)
			}
			var back Result
			if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
				t.Fatal(err)
			}
			if back.Counters != res.Counters {
				t.Errorf("counters changed in transit:\ngot  %+v\nwant %+v", back.Counters, res.Counters)
			}
			if !reflect.DeepEqual(back.Output(), res.Output()) {
				t.Errorf("output changed in transit:\ngot  %v\nwant %v", back.Output(), res.Output())
			}
			if !reflect.DeepEqual(back.SortedOutput(), res.SortedOutput()) {
				t.Errorf("sorted output changed in transit")
			}

			blob, err := res.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			var owned Result
			if err := owned.GobDecode(blob); err != nil {
				t.Fatal(err)
			}
			for i := range blob {
				blob[i] = 0xAA
			}
			if !reflect.DeepEqual(owned.Output(), res.Output()) || owned.Counters != res.Counters {
				t.Errorf("decoded result aliases the buffer it was decoded from")
			}
		})
	}
}

// FuzzResultGobDecode treats the Result wire form as untrusted input:
// arbitrary bytes decode or fail with an error, never a panic, and a result
// that decodes can be read in full. Truncation, trailing bytes and a
// partition count the bytes cannot hold are errors.
func FuzzResultGobDecode(f *testing.F) {
	for _, res := range resultGobCases() {
		blob, err := res.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if err := r.GobDecode(data); err == nil {
			r.Output()
		}
		if len(data) < 8 {
			return
		}
		for name, bad := range map[string][]byte{
			"truncated": data[:len(data)-1],
			"trailing":  append(append([]byte(nil), data...), 0),
		} {
			var full, cut Result
			if full.GobDecode(data) == nil && cut.GobDecode(bad) == nil {
				t.Errorf("%s input decodes alongside the input it was cut from", name)
			}
		}
		// The partition count is the u32 after the counters blob.
		cn := int(binary.LittleEndian.Uint32(data))
		if cn > len(data)-8 {
			return
		}
		over := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(over[4+cn:], uint32(len(data)))
		var r2 Result
		if r2.GobDecode(over) == nil {
			t.Error("a partition count larger than the bytes can hold decodes")
		}
	})
}

// identityJob assembles a sort-shaped job: identity mapper keyed by line,
// the given reducer, hash partitioning.
func identityJob(cfg Config, red Reducer) Job {
	return Job{Config: cfg, Mapper: IdentityMapper(), Reducer: red}
}

// nonPassthroughIdentity wraps IdentityReducer's behavior without the
// PassthroughReducer marker, forcing the ordinary reduce loop.
func nonPassthroughIdentity() Reducer {
	return ReducerFunc(func(key string, values []string, emit Emitter) error {
		for _, v := range values {
			emit(key, v)
		}
		return nil
	})
}

// TestPassthroughReduceParity pins the identity-reduce fast path against
// the ordinary group loop: records and counters must be identical whether or
// not the reducer carries the PassthroughReducer marker, both with the arena
// sink (in memory) and with the spill-writer sink (under SpillDir; the
// default spill budget keeps every run resident, so no pressure fold
// perturbs the counters).
func TestPassthroughReduceParity(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "%05d payload-%d\n", (i*7919)%500, i)
	}
	input := sb.String()
	for _, mode := range []string{"memory", "spilldir"} {
		t.Run(mode, func(t *testing.T) {
			run := func(red Reducer) *Result {
				t.Helper()
				e := newEngine(t, 256, input)
				cfg := DefaultConfig("sort-pt")
				cfg.NumReducers = 4
				if mode == "spilldir" {
					cfg.SpillDir = t.TempDir()
				}
				res, err := e.RunContext(context.Background(), identityJob(cfg, red), "input")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { res.Close() })
				return res
			}
			fast := run(IdentityReducer())
			slow := run(nonPassthroughIdentity())
			if !reflect.DeepEqual(fast.Output(), slow.Output()) {
				t.Fatal("passthrough output diverges from ordinary reduce loop")
			}
			if fast.Counters != slow.Counters {
				t.Fatalf("passthrough counters diverge:\nfast %+v\nslow %+v", fast.Counters, slow.Counters)
			}
		})
	}
}

// BenchmarkSortedOutput compares the merge-based SortedOutput against the
// legacy concatenate-then-sort over pre-sorted partitions — the shape every
// engine result has.
func BenchmarkSortedOutput(b *testing.B) {
	const perPart, nparts = 4096, 8
	rng := rand.New(rand.NewSource(42))
	output := make([][]KV, nparts)
	for p := range output {
		kvs := make([]KV, perPart)
		for i := range kvs {
			kvs[i] = KV{Key: fmt.Sprintf("key-%07d", rng.Intn(perPart*16)), Value: "v"}
		}
		sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
		output[p] = kvs
	}
	res := ResultFromKVs(output, Counters{})
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := res.SortedOutput(); len(got) != perPart*nparts {
				b.Fatal("short output")
			}
		}
	})
	b.Run("concat-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := sortedOutputReference(res); len(got) != perPart*nparts {
				b.Fatal("short output")
			}
		}
	})
}

// TestCountersBinaryRoundTrip sets every Counters field to a distinct value
// by reflection and round-trips it through AppendCounters/DecodeCounters
// and through a Result's wire form: a field added to Counters but not to
// the codec's field list fails here instead of being dropped in transit.
func TestCountersBinaryRoundTrip(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	if n := v.NumField(); n*8 != CountersSize {
		t.Fatalf("Counters has %d fields, CountersSize covers %d", n, CountersSize/8)
	}
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i+1)<<40 | int64(i+1))
	}
	b := AppendCounters([]byte("prefix"), c)
	if len(b) != len("prefix")+CountersSize {
		t.Fatalf("AppendCounters wrote %d bytes, want %d", len(b)-len("prefix"), CountersSize)
	}
	back, rest, err := DecodeCounters(append(b[len("prefix"):], "tail"...))
	if err != nil || string(rest) != "tail" {
		t.Fatalf("DecodeCounters: %v, rest %q", err, rest)
	}
	if back != c {
		t.Errorf("counters round trip:\ngot  %+v\nwant %+v", back, c)
	}
	if _, _, err := DecodeCounters(b[len("prefix") : len(b)-1]); err == nil {
		t.Error("DecodeCounters accepted a truncated form")
	}
	blob, err := (&Result{Counters: c}).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := r.GobDecode(blob); err != nil || r.Counters != c {
		t.Errorf("result wire form: %v, counters %+v, want %+v", err, r.Counters, c)
	}
}

package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"heterohadoop/internal/units"
)

// TestPartialResultCountsOnlyCompletedMaps pins the MapTasks accounting on
// early abort: a run cancelled mid-wave must return a partial result whose
// MapTasks counter equals the number of map tasks that actually completed,
// not the number of splits.
func TestPartialResultCountsOnlyCompletedMaps(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "line %d with words\n", i)
	}
	t.Run("reducers1", func(t *testing.T) {
		e := newEngine(t, 64, sb.String())
		cfg := DefaultConfig("wc-partial")
		cfg.Parallelism = 1
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel from inside the third map task: tasks 0 and 1 complete,
		// task 2 completes too (cancellation is checked between dispatches),
		// and no further task starts.
		calls := 0
		cfg.beforeTask = func(string) {
			calls++
			if calls == 3 {
				cancel()
			}
		}
		res, err := e.RunContext(ctx, wordCountJob(cfg), "input")
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
		if res == nil {
			t.Fatal("cancelled run returned no partial result")
		}
		if got := res.Counters.MapTasks; got != 3 {
			t.Errorf("partial MapTasks = %d, want 3 (completed tasks only)", got)
		}
		if res.Counters.ReduceTasks != 0 {
			t.Errorf("partial ReduceTasks = %d, want 0", res.Counters.ReduceTasks)
		}
	})
}

// TestParallelMatchesSerialConcurrentPublication drives the shuffle sink
// hard — many small splits publishing into many partitions at full
// parallelism — and checks byte-identical output and identical counters
// against the serial run. Run under -race this doubles as the
// concurrent-segment-publication race test.
func TestParallelMatchesSerialConcurrentPublication(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 600; i++ {
		fmt.Fprintf(&sb, "w%d x%d shared tail%d\n", i%97, i%13, i%7)
	}
	input := sb.String()

	run := func(par int) *Result {
		t.Helper()
		e := newEngine(t, 64, input) // ~hundreds of map tasks
		cfg := DefaultConfig("wc-pub")
		cfg.NumReducers = 16 // some partitions stay empty
		cfg.Parallelism = par
		res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	if want.Counters.ReduceMergePasses != 0 {
		t.Fatalf("in-memory run recorded %d reduce merge passes", want.Counters.ReduceMergePasses)
	}
	for round := 0; round < 4; round++ {
		got := run(4)
		if !reflect.DeepEqual(got.Output(), want.Output()) {
			t.Fatalf("round %d: parallel output differs from serial output", round)
		}
		if got.Counters != want.Counters {
			t.Fatalf("round %d: counters differ:\nparallel %+v\nserial   %+v", round, got.Counters, want.Counters)
		}
	}
}

// TestCollectorArrivalOrderProperty is the property test behind the
// shuffle's determinism claim, exercised directly on the sharded
// collectors: for randomized shard counts × run arrival orders — including
// empty coverage markers, single-run partitions, and trials where a tiny
// spill budget pressure-folds resident runs to disk — gathering the shards'
// runs in shard order and folding them with one final stable merge must be
// byte-identical to the one-shot merge over the same segments in task
// order. This drives the exact routing (shardOf) and composition (gather in
// shard order) the shuffle sink uses.
func TestCollectorArrivalOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nsplits := 1 + rng.Intn(40)
		factor := 2 + rng.Intn(6)
		nshards := min(1+rng.Intn(6), nsplits)
		pressure := trial%3 == 2 // every third trial folds runs to disk
		// Build one sorted run per task; some tasks publish empty coverage
		// markers, some runs share keys so merge stability is observable.
		segs := make([]Segment, nsplits)
		for task := range segs {
			n := rng.Intn(6)
			if rng.Intn(4) == 0 {
				n = 0 // empty coverage marker
			}
			kvs := make([]KV, n)
			for i := range kvs {
				kvs[i] = KV{
					Key:   fmt.Sprintf("k%02d", rng.Intn(8)),
					Value: fmt.Sprintf("t%d.%d", task, i),
				}
			}
			sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
			segs[task] = SegmentFromKVs(kvs)
		}

		// Reference: the one-shot stable merge in task order.
		nonEmpty := make([]Segment, 0, nsplits)
		for _, s := range segs {
			if s.Len() > 0 {
				nonEmpty = append(nonEmpty, s)
			}
		}
		want := stableMergeOracle(nonEmpty)

		var js *jobSpill
		if pressure {
			js = &jobSpill{dir: t.TempDir()}
		}
		cols := make([]*collector, nshards)
		for s := range cols {
			// Pressure trials keep the zero budget: every resident byte is
			// over it, so each non-empty run is folded to disk.
			cols[s] = &collector{factor: factor, js: js, shard: s}
		}
		for _, task := range rng.Perm(nsplits) {
			s := shardOf(task, nsplits, nshards)
			if err := cols[s].add(task, memRun(segs[task])); err != nil {
				t.Fatalf("trial %d: add: %v", trial, err)
			}
		}

		// Gather in shard order — shard intervals are contiguous and
		// increasing, so the concatenation lists runs in task order.
		var runs []partRun
		passes := 0
		for _, col := range cols {
			for _, r := range col.runs {
				runs = append(runs, r.run)
			}
			passes += col.folds.ReduceMergePasses
		}
		got := drainRuns(t, runs)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (nsplits=%d nshards=%d factor=%d passes=%d pressure=%v): sharded collector output diverges from one-shot merge\ngot  %v\nwant %v",
					trial, nsplits, nshards, factor, passes, pressure, got, want)
			}
		}
		if !pressure {
			// In memory the collector only files: one run per task, no
			// merge passes.
			if len(runs) != nsplits || passes != 0 {
				t.Fatalf("trial %d: in-memory collectors hold %d runs for %d tasks, %d passes", trial, len(runs), nsplits, passes)
			}
			continue
		}
		folded := false
		for _, r := range runs {
			folded = folded || r.isDisk()
		}
		if !folded && len(want) > 0 {
			t.Fatalf("trial %d: pressure trial folded nothing to disk", trial)
		}
		// Draining does not consume the gathered runs.
		if got2 := drainRuns(t, runs); !reflect.DeepEqual(got2, got) {
			t.Fatalf("trial %d: second drain of the gathered runs diverges", trial)
		}
	}
}

// drainRuns streams the stable merge of runs into a KV slice.
func drainRuns(t *testing.T, runs []partRun) []KV {
	t.Helper()
	var kvs []KV
	if _, err := mergeRunsTo(runs, func(k, v []byte) error {
		kvs = append(kvs, KV{Key: string(k), Value: string(v)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kvs
}

// TestCollectorShardRouting pins the interval property shardOf must
// provide: contiguous, non-decreasing, full-coverage task intervals for
// every (nsplits, nshards) shape.
func TestCollectorShardRouting(t *testing.T) {
	for nsplits := 1; nsplits <= 40; nsplits++ {
		for nshards := 1; nshards <= nsplits; nshards++ {
			seen := make([]int, nshards)
			prev := 0
			for task := 0; task < nsplits; task++ {
				s := shardOf(task, nsplits, nshards)
				if s < 0 || s >= nshards {
					t.Fatalf("shardOf(%d,%d,%d) = %d out of range", task, nsplits, nshards, s)
				}
				if s < prev {
					t.Fatalf("shardOf not monotone at task %d (nsplits=%d nshards=%d)", task, nsplits, nshards)
				}
				prev = s
				seen[s]++
			}
			for s, n := range seen {
				if n == 0 {
					t.Fatalf("shard %d empty (nsplits=%d nshards=%d)", s, nsplits, nshards)
				}
			}
		}
	}
}

// TestShuffleDegeneratePartitions pins the degenerate shapes through the
// shuffle sink itself: a one-task partition and an all-empty partition must
// come out of publish/wait/partition unchanged, in task order, with zero
// fold counters.
func TestShuffleDegeneratePartitions(t *testing.T) {
	seg := SegmentFromKVs([]KV{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}})
	const nsplits = 3
	sh := newShuffle(wordCountJob(DefaultConfig("degenerate")), make([]phaseClock, 2), nsplits, 2, nil)
	for _, task := range []int{2, 0, 1} {
		runs := []partRun{{}, {}}
		if task == 1 {
			runs[0] = memRun(seg)
		}
		sh.publish(task, runs)
	}
	sh.wait()
	for p := 0; p < 2; p++ {
		runs, folds, err := sh.partition(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != nsplits || folds != (Counters{}) {
			t.Fatalf("partition %d: %d runs (want %d), folds %+v", p, len(runs), nsplits, folds)
		}
		got := drainRuns(t, runs)
		if p == 0 && !reflect.DeepEqual(got, seg.KVs()) {
			t.Fatalf("single-run partition altered: %v", got)
		}
		if p == 1 && len(got) != 0 {
			t.Fatalf("all-empty partition produced %d records", len(got))
		}
	}
}

// FuzzStreamingShuffleParity fuzzes the determinism claim: for arbitrary
// input bytes, block sizes and reducer counts — including counts far above
// the key count, so most partitions are empty — the parallel run and the
// out-of-core runs must match the serial in-memory run exactly. Out of core
// it runs twice: with a one-byte budget (every run a file) and with a budget
// a few spills wide, so merges see resident and file runs side by side.
func FuzzStreamingShuffleParity(f *testing.F) {
	f.Add([]byte("a b c\nb c d\nc d e\n"), uint8(8), uint8(4))
	f.Add([]byte("lone\n"), uint8(2), uint8(31)) // 31 reducers, 1 key: empty partitions
	f.Add([]byte("x x x x x x x x\n"), uint8(1), uint8(16))
	f.Add([]byte(""), uint8(4), uint8(3))
	// The aliasing test's shape in miniature: the same few keys in every
	// split and every spill, so each merge has key ties across resident and
	// file runs.
	f.Add(bytes.Repeat([]byte("k1 k2 k1 k3 k2 k1 k4 k1\nk2 k1 k5 k1 k3\n"), 12), uint8(40), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, bsRaw, nredRaw uint8) {
		data = bytes.ReplaceAll(data, []byte{0}, []byte{'\n'})
		if len(data) == 0 {
			return
		}
		bs := int(bsRaw%64) + 1
		nred := int(nredRaw%32) + 1
		run := func(par int, spillDir string, budget units.Bytes) *Result {
			t.Helper()
			e := newEngine(t, units.Bytes(bs), string(data))
			cfg := DefaultConfig("wc-fuzz")
			cfg.NumReducers = nred
			cfg.SortBuffer = 64 // tiny buffer: spills on most inputs
			cfg.Parallelism = par
			cfg.SpillDir = spillDir
			cfg.SpillMemory = budget
			res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(1, "", 0)
		got := run(4, "", 0)
		if !reflect.DeepEqual(got.Output(), want.Output()) {
			t.Fatalf("parallel/serial divergence: bs=%d nred=%d input=%q", bs, nred, data)
		}
		if got.Counters != want.Counters || want.Counters.ReduceMergePasses != 0 {
			t.Fatalf("parallel/serial counters diverge: bs=%d nred=%d input=%q\nparallel %+v\nserial   %+v", bs, nred, data, got.Counters, want.Counters)
		}
		for _, budget := range []units.Bytes{1, 256} { // all on disk; mixed
			ooc := run(4, t.TempDir(), budget)
			defer ooc.Close()
			if !reflect.DeepEqual(ooc.Output(), want.Output()) {
				t.Fatalf("out-of-core/in-memory divergence: budget=%d bs=%d nred=%d input=%q", budget, bs, nred, data)
			}
		}
	})
}

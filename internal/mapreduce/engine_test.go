package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/units"
)

// wordCountJob returns the canonical word-count job used across the tests.
func wordCountJob(cfg Config) Job {
	mapper := MapperFunc(func(_, line string, emit Emitter) error {
		for _, w := range strings.Fields(line) {
			emit(w, "1")
		}
		return nil
	})
	sum := ReducerFunc(func(key string, values []string, emit Emitter) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			total += n
		}
		emit(key, strconv.Itoa(total))
		return nil
	})
	return Job{Config: cfg, Mapper: mapper, Combiner: sum, Reducer: sum}
}

func newEngine(t *testing.T, blockSize units.Bytes, input string) *Engine {
	t.Helper()
	store, err := hdfs.NewStore(hdfs.Config{BlockSize: blockSize, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write("input", []byte(input)); err != nil {
		t.Fatal(err)
	}
	return NewEngine(store)
}

func outputMap(t *testing.T, res *Result) map[string]string {
	t.Helper()
	m := make(map[string]string)
	for _, p := range res.Output() {
		for _, kv := range p {
			if prev, dup := m[kv.Key]; dup {
				t.Fatalf("duplicate output key %q (values %q and %q)", kv.Key, prev, kv.Value)
			}
			m[kv.Key] = kv.Value
		}
	}
	return m
}

func TestWordCountEndToEnd(t *testing.T) {
	e := newEngine(t, 32, "the quick brown fox\njumps over the lazy dog\nthe end\n")
	cfg := DefaultConfig("wc")
	cfg.NumReducers = 3
	res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
	if err != nil {
		t.Fatal(err)
	}
	got := outputMap(t, res)
	want := map[string]string{"the": "3", "quick": "1", "brown": "1", "fox": "1",
		"jumps": "1", "over": "1", "lazy": "1", "dog": "1", "end": "1"}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%q] = %q, want %q", k, got[k], v)
		}
	}
	c := res.Counters
	if c.MapTasks != 2 { // 53 bytes at 32-byte blocks
		t.Errorf("MapTasks = %d, want 2", c.MapTasks)
	}
	if c.ReduceTasks != 3 {
		t.Errorf("ReduceTasks = %d, want 3", c.ReduceTasks)
	}
	if c.MapInputRecords != 3 {
		t.Errorf("MapInputRecords = %d, want 3 lines", c.MapInputRecords)
	}
	if c.MapOutputRecords != 11 {
		t.Errorf("MapOutputRecords = %d, want 11 words", c.MapOutputRecords)
	}
}

func TestSplitSemanticsIndependentOfBlockSize(t *testing.T) {
	// The same input must produce identical word counts no matter where
	// block boundaries cut lines — the LineRecordReader invariant.
	var sb strings.Builder
	rng := rand.New(rand.NewSource(11))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := 0; i < 400; i++ {
		for j := 0; j < 1+rng.Intn(8); j++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	input := sb.String()

	var reference map[string]string
	for _, bs := range []units.Bytes{17, 64, 100, 999, 4096, units.Bytes(len(input) + 5)} {
		e := newEngine(t, bs, input)
		cfg := DefaultConfig(fmt.Sprintf("wc-bs%d", bs))
		cfg.NumReducers = 2
		res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
		if err != nil {
			t.Fatalf("block size %d: %v", bs, err)
		}
		got := outputMap(t, res)
		if reference == nil {
			reference = got
			continue
		}
		if len(got) != len(reference) {
			t.Fatalf("block size %d: %d keys, want %d", bs, len(got), len(reference))
		}
		for k, v := range reference {
			if got[k] != v {
				t.Errorf("block size %d: count[%q] = %q, want %q", bs, k, got[k], v)
			}
		}
	}
}

// windowLines collects the lines forEachRecordWindow yields for the split
// [start, end) of a fully resident input.
func windowLines(data []byte, start, end int) []string {
	var lines []string
	_ = forEachRecordWindow(data, 0, start, end, func(_ int, line []byte) error {
		lines = append(lines, string(line))
		return nil
	})
	return lines
}

func TestSplitRecordsExactlyOncePerLine(t *testing.T) {
	data := []byte("aa\nbbbb\nc\ndddddd\nee")
	for _, bs := range []int{1, 2, 3, 4, 5, 7, 19, 100} {
		var seen []string
		for start := 0; start < len(data); start += bs {
			end := start + bs
			if end > len(data) {
				end = len(data)
			}
			seen = append(seen, windowLines(data, start, end)...)
		}
		sort.Strings(seen)
		want := []string{"aa", "bbbb", "c", "dddddd", "ee"}
		sort.Strings(want)
		if len(seen) != len(want) {
			t.Fatalf("bs=%d: records %v, want %v", bs, seen, want)
		}
		for i := range want {
			if seen[i] != want[i] {
				t.Fatalf("bs=%d: records %v, want %v", bs, seen, want)
			}
		}
	}
}

func TestSplitRecordsProperty(t *testing.T) {
	f := func(raw []byte, bsRaw uint8) bool {
		// Build line-structured data from raw bytes.
		data := []byte(strings.ReplaceAll(string(raw), "\x00", "\n"))
		bs := int(bsRaw%32) + 1
		var count int
		for start := 0; start < len(data); start += bs {
			end := start + bs
			if end > len(data) {
				end = len(data)
			}
			count += len(windowLines(data, start, end))
		}
		want := 0
		for _, l := range strings.Split(string(data), "\n") {
			if l != "" {
				want++
			}
		}
		return count == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortJobGlobalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var lines []string
	for i := 0; i < 500; i++ {
		lines = append(lines, fmt.Sprintf("%08d", rng.Intn(1000000)))
	}
	e := newEngine(t, 256, strings.Join(lines, "\n")+"\n")
	cfg := DefaultConfig("sort")
	cfg.NumReducers = 1
	job := Job{Config: cfg, Mapper: IdentityMapper(), Reducer: IdentityReducer()}
	res, err := e.RunContext(context.Background(), job, "input")
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output()[0]
	if len(out) != len(lines) {
		t.Fatalf("output has %d records, want %d", len(out), len(lines))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Key < out[i-1].Key {
			t.Fatalf("output not sorted at %d: %q < %q", i, out[i].Key, out[i-1].Key)
		}
	}
	sort.Strings(lines)
	for i := range lines {
		if out[i].Key != lines[i] {
			t.Fatalf("output[%d] = %q, want %q", i, out[i].Key, lines[i])
		}
	}
}

// TestRunContextSplitsByBlockSize: RunContext cuts one map task per
// stored block, the block size taken from the file — a file of one block
// (shorter than, or exactly, one block), of many with a short tail or none,
// and of one block under a block size near math.MaxInt64, which must run to
// the identity output instead of panicking on a block count overflowed to
// zero.
func TestRunContextSplitsByBlockSize(t *testing.T) {
	input := "b\na\nc\n"
	for _, bs := range []units.Bytes{1, 2, 3, 4, 6, 7, math.MaxInt64} {
		e := newEngine(t, bs, input)
		cfg := DefaultConfig("identity")
		cfg.NumReducers = 1
		res, err := e.RunContext(context.Background(), Job{Config: cfg, Mapper: IdentityMapper(), Reducer: IdentityReducer()}, "input")
		if err != nil {
			t.Fatalf("block size %v: %v", bs, err)
		}
		f, err := e.store.Open("input")
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.MapTasks != f.NumBlocks() {
			t.Errorf("block size %v: %d map tasks for %d blocks", bs, res.Counters.MapTasks, f.NumBlocks())
		}
		var keys []string
		for _, kv := range res.Output()[0] {
			keys = append(keys, kv.Key)
		}
		if got := strings.Join(keys, " "); got != "a b c" {
			t.Errorf("block size %v: output %q, want \"a b c\"", bs, got)
		}
	}
}

func TestRangePartitionerPreservesGlobalOrderAcrossReducers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var lines []string
	for i := 0; i < 300; i++ {
		lines = append(lines, fmt.Sprintf("%06d", rng.Intn(100000)))
	}
	sorted := append([]string(nil), lines...)
	sort.Strings(sorted)
	cuts := []string{sorted[100], sorted[200]}

	e := newEngine(t, 128, strings.Join(lines, "\n")+"\n")
	cfg := DefaultConfig("terasort-like")
	cfg.NumReducers = 3
	job := Job{Config: cfg, Mapper: IdentityMapper(), Reducer: IdentityReducer(), Partitioner: RangePartitioner(cuts)}
	res, err := e.RunContext(context.Background(), job, "input")
	if err != nil {
		t.Fatal(err)
	}
	// Concatenating partitions in order must yield the globally sorted data.
	var got []string
	for _, p := range res.Output() {
		for _, kv := range p {
			got = append(got, kv.Key)
		}
	}
	if len(got) != len(sorted) {
		t.Fatalf("got %d records, want %d", len(got), len(sorted))
	}
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("concatenated output[%d] = %q, want %q", i, got[i], sorted[i])
		}
	}
}

func TestSpillsTriggeredBySmallSortBuffer(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "word%03d filler tokens here\n", i%7)
	}
	e := newEngine(t, 8*units.KB, sb.String())
	cfg := DefaultConfig("wc-spilly")
	cfg.SortBuffer = 512 // force many spills
	cfg.NumReducers = 2
	res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.Spills <= c.MapTasks {
		t.Errorf("Spills = %d with tiny buffer, want more than one per task (%d tasks)", c.Spills, c.MapTasks)
	}
	if c.MergePasses == 0 {
		t.Error("multi-spill tasks recorded no merge passes")
	}
	if c.MergeBytes == 0 {
		t.Error("multi-spill tasks recorded no merge bytes")
	}
	// Output correctness is unaffected by spilling.
	got := outputMap(t, res)
	for i := 0; i < 7; i++ {
		k := fmt.Sprintf("word%03d", i)
		wantCount := 200 / 7
		if i < 200%7 {
			wantCount++
		}
		if got[k] != strconv.Itoa(wantCount) {
			t.Errorf("count[%q] = %q, want %d", k, got[k], wantCount)
		}
	}
	// Each word also appears once per line in "filler tokens here".
	if got["filler"] != "200" {
		t.Errorf("count[filler] = %q, want 200", got["filler"])
	}
}

func TestNoSpillWithLargeBuffer(t *testing.T) {
	e := newEngine(t, units.MB, "a b c\nd e f\n")
	cfg := DefaultConfig("wc-nospill")
	res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Spills != res.Counters.MapTasks {
		t.Errorf("Spills = %d, want exactly one final spill per task (%d)", res.Counters.Spills, res.Counters.MapTasks)
	}
	if res.Counters.MergePasses != 0 {
		t.Errorf("MergePasses = %d, want 0 for single-spill tasks", res.Counters.MergePasses)
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		sb.WriteString("same same same different\n")
	}
	input := sb.String()
	run := func(withCombiner bool) Counters {
		e := newEngine(t, 4*units.KB, input)
		cfg := DefaultConfig("wc")
		cfg.NumReducers = 2
		job := wordCountJob(cfg)
		if !withCombiner {
			job.Combiner = nil
		}
		res, err := e.RunContext(context.Background(), job, "input")
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters
	}
	with := run(true)
	without := run(false)
	if with.ShuffleBytes >= without.ShuffleBytes {
		t.Errorf("combiner did not shrink shuffle: %v vs %v", with.ShuffleBytes, without.ShuffleBytes)
	}
	if with.CombineInputRecords == 0 || with.CombinerReduction() <= 1 {
		t.Errorf("combiner stats missing: in=%d reduction=%v", with.CombineInputRecords, with.CombinerReduction())
	}
	if without.CombineInputRecords != 0 {
		t.Error("combiner ran despite being unset")
	}
}

// TestCombinerRewritingKeysStillSpillsSorted pins the one case where the
// combiner's output is not already in key order: a combiner that emits
// under other keys than the one it was given. The spill must still come
// out sorted, records that ended up under one key in the order the
// combiner emitted them.
func TestCombinerRewritingKeysStillSpillsSorted(t *testing.T) {
	rename := map[string]string{"a": "z", "b": "y", "c": "y"}
	job := Job{
		Config: DefaultConfig("rewriting-combiner"),
		Mapper: MapperFunc(func(_, line string, emit Emitter) error {
			for i, w := range strings.Fields(line) {
				emit(w, strconv.Itoa(i))
			}
			return nil
		}),
		Combiner: ReducerFunc(func(key string, values []string, emit Emitter) error {
			emit(rename[key], key+":"+strings.Join(values, ","))
			emit("m", key)
			return nil
		}),
		Reducer: IdentityReducer(),
	}
	segs, c, err := ExecuteMapSplit(job, []byte("c a b a c b\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The combiner sees a, b, c in that order and emits z, m, y, m, y, m.
	want := []KV{{"m", "a"}, {"m", "b"}, {"m", "c"}, {"y", "b:2,5"}, {"y", "c:0,4"}, {"z", "a:1,3"}}
	if got := segs[0].KVs(); !slices.Equal(got, want) {
		t.Errorf("spill output = %v, want %v", got, want)
	}
	if c.CombineInputRecords != 6 || c.CombineOutputRecords != 6 || c.SpilledRecords != 6 {
		t.Errorf("combine in/out, spilled = %d/%d, %d, want 6/6, 6", c.CombineInputRecords, c.CombineOutputRecords, c.SpilledRecords)
	}
}

func TestParallelismMatchesSerialOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "k%04d v\n", rng.Intn(200))
	}
	input := sb.String()
	counts := func(par int) map[string]string {
		e := newEngine(t, 2*units.KB, input)
		cfg := DefaultConfig("wc-par")
		cfg.NumReducers = 4
		cfg.Parallelism = par
		res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
		if err != nil {
			t.Fatal(err)
		}
		return outputMap(t, res)
	}
	serial := counts(1)
	parallel := counts(8)
	if len(serial) != len(parallel) {
		t.Fatalf("key counts differ: %d vs %d", len(serial), len(parallel))
	}
	for k, v := range serial {
		if parallel[k] != v {
			t.Errorf("parallel count[%q] = %q, want %q", k, parallel[k], v)
		}
	}
}

func TestMapperErrorAborts(t *testing.T) {
	e := newEngine(t, 16, "x\n")
	cfg := DefaultConfig("bad-map")
	job := Job{
		Config:  cfg,
		Mapper:  MapperFunc(func(_, _ string, _ Emitter) error { return errors.New("map boom") }),
		Reducer: IdentityReducer(),
	}
	if _, err := e.RunContext(context.Background(), job, "input"); err == nil || !strings.Contains(err.Error(), "map boom") {
		t.Fatalf("err = %v, want map boom", err)
	}
}

func TestReducerErrorAborts(t *testing.T) {
	e := newEngine(t, 16, "x\n")
	cfg := DefaultConfig("bad-reduce")
	job := Job{
		Config:  cfg,
		Mapper:  IdentityMapper(),
		Reducer: ReducerFunc(func(_ string, _ []string, _ Emitter) error { return errors.New("reduce boom") }),
	}
	if _, err := e.RunContext(context.Background(), job, "input"); err == nil || !strings.Contains(err.Error(), "reduce boom") {
		t.Fatalf("err = %v, want reduce boom", err)
	}
}

func TestJobValidation(t *testing.T) {
	e := newEngine(t, 16, "x\n")
	if _, err := e.RunContext(context.Background(), Job{Config: DefaultConfig("no-mapper"), Reducer: IdentityReducer()}, "input"); err == nil {
		t.Error("job without mapper accepted")
	}
	cfg := DefaultConfig("no-reducer")
	cfg.NumReducers = 2
	if _, err := e.RunContext(context.Background(), Job{Config: cfg, Mapper: IdentityMapper()}, "input"); err == nil {
		t.Error("reducers configured without a reducer accepted")
	}
	if _, err := e.RunContext(context.Background(), wordCountJob(DefaultConfig("missing")), "nope"); err == nil {
		t.Error("missing input accepted")
	}
	// A store-less engine is legal for RunFileContext only.
	_, err := NewEngine(nil).RunContext(context.Background(), wordCountJob(DefaultConfig("storeless")), "input")
	if err == nil || err.Error() != "mapreduce: storeless: engine has no store" {
		t.Errorf("store-backed run on a nil-store engine: err = %v", err)
	}
	bad := DefaultConfig("")
	if err := bad.Validate(); err == nil {
		t.Error("nameless config accepted")
	}
	bad = DefaultConfig("x")
	bad.NumReducers = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero reducers accepted")
	}
	bad = DefaultConfig("x")
	bad.MergeFactor = 1
	if err := bad.Validate(); err == nil {
		t.Error("merge factor 1 accepted")
	}
	bad = DefaultConfig("x")
	bad.SortBuffer = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero sort buffer accepted")
	}
	// Record offsets in the arena are uint32: the largest buffer that cannot
	// wrap them is accepted, one byte more is refused by name.
	bad.SortBuffer = math.MaxUint32
	if err := bad.Validate(); err != nil {
		t.Errorf("sort buffer of 4 GiB - 1 refused: %v", err)
	}
	bad.SortBuffer = 1 << 32
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "32-bit record offsets") {
		t.Errorf("4 GiB sort buffer: err = %v, want a refusal naming the arena offset width", err)
	}
}

func TestBadPartitionerRejected(t *testing.T) {
	e := newEngine(t, 16, "a\nb\n")
	cfg := DefaultConfig("bad-part")
	cfg.NumReducers = 2
	job := Job{
		Config:      cfg,
		Mapper:      IdentityMapper(),
		Reducer:     IdentityReducer(),
		Partitioner: PartitionerFunc(func(string, int) int { return 99 }),
	}
	if _, err := e.RunContext(context.Background(), job, "input"); err == nil {
		t.Error("out-of-range partition accepted")
	}
}

func TestMergePasses(t *testing.T) {
	tests := []struct{ n, factor, want int }{
		{0, 10, 0}, {1, 10, 0}, {2, 10, 1}, {10, 10, 1}, {11, 10, 2}, {100, 10, 2}, {101, 10, 3}, {8, 2, 3},
	}
	for _, tc := range tests {
		if got := mergePasses(tc.n, tc.factor); got != tc.want {
			t.Errorf("mergePasses(%d, %d) = %d, want %d", tc.n, tc.factor, got, tc.want)
		}
	}
}

// kvSegs converts sorted string-record runs to flat segments.
func kvSegs(runs [][]KV) []Segment {
	segs := make([]Segment, len(runs))
	for i, r := range runs {
		segs[i] = SegmentFromKVs(r)
	}
	return segs
}

func TestHashPartitionerInRangeAndDeterministic(t *testing.T) {
	p := HashPartitioner()
	f := func(key string, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		a := p.PartitionBytes([]byte(key), n)
		b := p.PartitionBytes([]byte(key), n)
		return a == b && a >= 0 && a < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := p.PartitionBytes([]byte("anything"), 1); got != 0 {
		t.Errorf("single partition = %d, want 0", got)
	}
}

func TestRangePartitionerBoundaries(t *testing.T) {
	p := RangePartitioner([]string{"g", "p"})
	tests := []struct {
		key  string
		want int
	}{
		{"a", 0}, {"f", 0}, {"g", 1}, {"o", 1}, {"p", 2}, {"z", 2},
	}
	for _, tc := range tests {
		if got := p.PartitionBytes([]byte(tc.key), 3); got != tc.want {
			t.Errorf("PartitionBytes(%q) = %d, want %d", tc.key, got, tc.want)
		}
	}
	if got := p.PartitionBytes([]byte("zzz"), 2); got != 1 {
		t.Errorf("clamped partition = %d, want 1", got)
	}
	if got := RangePartitioner(nil).PartitionBytes([]byte("x"), 5); got != 0 {
		t.Errorf("no-cuts partition = %d, want 0", got)
	}
}

func TestKVBytes(t *testing.T) {
	kv := KV{Key: "abc", Value: "de"}
	if got := kv.Bytes(); got != 3+2+8 {
		t.Errorf("Bytes = %v, want 13", got)
	}
}

func TestCountersSnapshotAndRatios(t *testing.T) {
	c := &Counters{}
	c.Add(Counters{MapInputBytes: 100, MapOutputBytes: 150, CombineInputRecords: 30, CombineOutputRecords: 10})
	s := *c
	if s.MapOutputRatio() != 1.5 {
		t.Errorf("MapOutputRatio = %v, want 1.5", s.MapOutputRatio())
	}
	if s.CombinerReduction() != 3 {
		t.Errorf("CombinerReduction = %v, want 3", s.CombinerReduction())
	}
	if (Counters{}).MapOutputRatio() != 0 {
		t.Error("zero-input ratio should be 0")
	}
	if (Counters{}).CombinerReduction() != 1 {
		t.Error("no-combiner reduction should be 1")
	}
	if !strings.Contains(s.String(), "counters{") {
		t.Error("String() malformed")
	}
}

func TestMaterializeOutput(t *testing.T) {
	res := ResultFromKVs([][]KV{
		{{Key: "a", Value: "1"}},
		{{Key: "b", Value: ""}, {Key: "c", Value: "3"}},
	}, Counters{})
	got := string(materialized(t, res))
	want := "a\t1\nb\nc\t3\n"
	if got != want {
		t.Errorf("materialized = %q, want %q", got, want)
	}
}

func TestRunContextCancellation(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "line %d with words\n", i)
	}
	e := newEngine(t, 64, sb.String())
	cfg := DefaultConfig("wc-cancel")
	cfg.Parallelism = 1
	// Cancel from inside the third map task via the before-task hook.
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	cfg.beforeTask = func(string) {
		calls++
		if calls == 3 {
			cancel()
		}
	}
	_, err := e.RunContext(ctx, wordCountJob(cfg), "input")
	if err == nil {
		t.Fatal("cancelled job succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A background context still works.
	cfg2 := DefaultConfig("wc-ok")
	if _, err := e.RunContext(context.Background(), wordCountJob(cfg2), "input"); err != nil {
		t.Fatal(err)
	}
}

package workloads

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
)

// runWorkload generates input, builds the job and runs it end to end.
func runWorkload(t *testing.T, w Workload, size units.Bytes, blockSize units.Bytes, reducers int) (*mapreduce.Result, []byte) {
	t.Helper()
	input := w.Generate(size, 42)
	job, err := w.Build(testConfig(w.Name(), reducers), input)
	if err != nil {
		t.Fatal(err)
	}
	return runJob(t, job, input, blockSize), input
}

func testConfig(name string, reducers int) mapreduce.Config {
	cfg := mapreduce.DefaultConfig(name)
	cfg.NumReducers = reducers
	cfg.Parallelism = 4
	return cfg
}

// runJob runs job over input stored in blockSize blocks.
func runJob(t *testing.T, job mapreduce.Job, input []byte, blockSize units.Bytes) *mapreduce.Result {
	t.Helper()
	store, err := hdfs.NewStore(hdfs.Config{BlockSize: blockSize, Replication: 1})
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
	return res
}

// TestSpecsMatchEngineDataflow is the calibration contract between the real
// path and the analytic one: every shipped Spec's dataflow ratios must agree
// with what the engine measures running the workload at 128 KB in 32 KB
// blocks. The map-output ratio is scale-independent and must match within
// 2x. A combining workload's shuffle ratio shrinks as its input grows, so the
// Spec's paper-scale value must sit at or below 1.2x the small-scale
// measurement; any other workload's must match within 2x. A workload whose
// implementation changes must have its Spec re-calibrated.
func TestSpecsMatchEngineDataflow(t *testing.T) {
	within2x := func(spec, measured float64) bool {
		const eps = 0.02
		if spec < eps && measured < eps {
			return true
		}
		return spec > 0 && measured > 0 && spec/measured >= 0.5 && spec/measured <= 2
	}
	for _, w := range All() {
		res, input := runWorkload(t, w, 128*units.KB, 32*units.KB, 2)
		c, spec := res.Counters, w.Spec()
		shuffle := float64(c.ShuffleBytes) / float64(len(input))
		if !within2x(spec.MapOutputRatio, c.MapOutputRatio()) {
			t.Errorf("%s: spec map-output ratio %v vs measured %v: beyond 2x", w.Name(), spec.MapOutputRatio, c.MapOutputRatio())
		}
		if c.CombinerReduction() > 1.05 {
			if spec.ShuffleRatio > 1.2*shuffle {
				t.Errorf("%s: spec shuffle ratio %v above 1.2x measured %v for a combining workload", w.Name(), spec.ShuffleRatio, shuffle)
			}
		} else if !within2x(spec.ShuffleRatio, shuffle) {
			t.Errorf("%s: spec shuffle ratio %v vs measured %v: beyond 2x", w.Name(), spec.ShuffleRatio, shuffle)
		}
	}
}

// TestSmallSortBufferRaisesSpills runs WordCount with Hadoop's default
// io.sort.mb and with a 2 KB one: the small buffer must raise the spill
// count per map task, the dataflow the simulator's spill model follows.
func TestSmallSortBufferRaisesSpills(t *testing.T) {
	w := NewWordCount()
	input := w.Generate(64*units.KB, 1)
	spillsPerMap := func(sortBuffer units.Bytes) float64 {
		cfg := testConfig(w.Name(), 2)
		cfg.SortBuffer = sortBuffer
		job, err := w.Build(cfg, input)
		if err != nil {
			t.Fatal(err)
		}
		c := runJob(t, job, input, 16*units.KB).Counters
		return float64(c.Spills) / float64(c.MapTasks)
	}
	base := spillsPerMap(mapreduce.DefaultConfig(w.Name()).SortBuffer)
	spilly := spillsPerMap(2 * units.KB)
	if spilly <= base {
		t.Errorf("tiny sort buffer did not raise spills: %v vs %v", spilly, base)
	}
}

func TestAllRegistry(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("All() has %d workloads, want 6", len(all))
	}
	wantNames := []string{"wordcount", "sort", "grep", "terasort", "naivebayes", "fpgrowth"}
	for i, w := range all {
		if w.Name() != wantNames[i] {
			t.Errorf("All()[%d] = %s, want %s", i, w.Name(), wantNames[i])
		}
		if err := w.Spec().Validate(); err != nil {
			t.Errorf("%s: invalid spec: %v", w.Name(), err)
		}
	}
	if len(MicroBenchmarks()) != 4 || len(RealWorld()) != 2 {
		t.Error("micro/real split wrong")
	}
	if _, err := ByName("wordcount"); err != nil {
		t.Errorf("ByName(wordcount): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown workload")
	}
}

func TestPaperClassification(t *testing.T) {
	// Paper: WordCount, NB, FP compute-bound; Sort I/O; Grep, TeraSort hybrid.
	want := map[string]Class{
		"wordcount": Compute, "sort": IO, "grep": Hybrid,
		"terasort": Hybrid, "naivebayes": Compute, "fpgrowth": Compute,
	}
	for _, w := range All() {
		if w.Class() != want[w.Name()] {
			t.Errorf("%s classified %v, want %v", w.Name(), w.Class(), want[w.Name()])
		}
	}
	if Compute.String() != "C" || IO.String() != "I" || Hybrid.String() != "H" {
		t.Error("class codes wrong")
	}
}

func TestGeneratorsDeterministicAndSized(t *testing.T) {
	gens := map[string]func(units.Bytes, int64) []byte{
		"text":         GenerateText,
		"tera":         GenerateTeraRecords,
		"numbers":      GenerateNumbers,
		"transactions": GenerateTransactions,
		"labeled":      GenerateLabeledDocs,
	}
	for name, gen := range gens {
		a := gen(8*units.KB, 1)
		b := gen(8*units.KB, 1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: not deterministic for same seed", name)
		}
		c := gen(8*units.KB, 2)
		if bytes.Equal(a, c) {
			t.Errorf("%s: identical output for different seeds", name)
		}
		if len(a) < int(8*units.KB) || len(a) > int(9*units.KB) {
			t.Errorf("%s: size %d outside requested ~8KB", name, len(a))
		}
		if a[len(a)-1] != '\n' {
			t.Errorf("%s: output not newline-terminated", name)
		}
	}
}

func TestWordCountMatchesDirectCount(t *testing.T) {
	res, input := runWorkload(t, NewWordCount(), 16*units.KB, 4*units.KB, 3)
	want := make(map[string]int)
	for _, w := range strings.Fields(string(input)) {
		want[w]++
	}
	got := make(map[string]int)
	for _, p := range res.Output() {
		for _, kv := range p {
			n, err := strconv.Atoi(kv.Value)
			if err != nil {
				t.Fatalf("bad count %q", kv.Value)
			}
			if _, dup := got[kv.Key]; dup {
				t.Fatalf("duplicate key %q", kv.Key)
			}
			got[kv.Key] = n
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
	if res.Counters.CombinerReduction() <= 2 {
		t.Errorf("Zipf text should combine well, got reduction %.2f", res.Counters.CombinerReduction())
	}
}

func TestSortProducesGlobalOrder(t *testing.T) {
	res, input := runWorkload(t, NewSort(), 16*units.KB, 4*units.KB, 4)
	var got []string
	for _, p := range res.Output() {
		for _, kv := range p {
			got = append(got, kv.Key)
		}
	}
	want := strings.Split(strings.TrimRight(string(input), "\n"), "\n")
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%d output records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %q, want %q (global order violated)", i, got[i], want[i])
		}
	}
}

func TestTeraSortGlobalOrderAndPayloadPreserved(t *testing.T) {
	res, input := runWorkload(t, NewTeraSort(), 32*units.KB, 8*units.KB, 4)
	lines := strings.Split(strings.TrimRight(string(input), "\n"), "\n")
	wantKeys := make([]string, len(lines))
	for i, l := range lines {
		wantKeys[i] = teraKey(l)
	}
	sort.Strings(wantKeys)

	var gotKeys []string
	for _, p := range res.Output() {
		for _, kv := range p {
			gotKeys = append(gotKeys, kv.Key)
			if len(kv.Value) < TeraValueLen {
				t.Fatalf("payload truncated: %d bytes", len(kv.Value))
			}
		}
	}
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("%d records out, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("key[%d] = %q, want %q", i, gotKeys[i], wantKeys[i])
		}
	}
}

// TestTeraSortBuildersAgree: the job hadoopd and bench/ assemble from
// master-side cuts is the job Build assembles — same partitions, same
// counters.
func TestTeraSortBuildersAgree(t *testing.T) {
	want, input := runWorkload(t, NewTeraSort(), 32*units.KB, 8*units.KB, 4)
	cuts, err := SampleCuts(input, 4, TeraKey)
	if err != nil {
		t.Fatal(err)
	}
	got := runJob(t, BuildTeraSortWithCuts(testConfig("terasort", 4), cuts), input, 8*units.KB)
	if !reflect.DeepEqual(got.Output(), want.Output()) {
		t.Error("BuildTeraSortWithCuts output differs from Build's")
	}
	if got.Counters != want.Counters {
		t.Errorf("counters differ:\ncuts  %+v\nbuild %+v", got.Counters, want.Counters)
	}
}

// TestGrepFindsAllMatches runs grep through the engine for patterns that
// take each of the mapper's paths — a bare literal, a literal the regexp
// confirms (anchors, a wildcard, a repeat), no literal at all (case folding,
// a class), and a literal holding a space — and holds every word's count to
// the regexp run on each strings.Fields word.
func TestGrepFindsAllMatches(t *testing.T) {
	for _, pattern := range []string{"ou", "^ou$", "o.u", "(?i)OU", "ou+", "o u", "[a-z]+"} {
		t.Run(pattern, func(t *testing.T) {
			res, input := runWorkload(t, NewGrep(pattern), 16*units.KB, 4*units.KB, 2)
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string]int)
			for _, w := range strings.Fields(string(input)) {
				if re.MatchString(w) {
					want[w]++
				}
			}
			got := make(map[string]int)
			for _, p := range res.Output() {
				for _, kv := range p {
					n, _ := strconv.Atoi(kv.Value)
					got[kv.Key] = n
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d matched words, want %d", len(got), len(want))
			}
			for w, n := range want {
				if got[w] != n {
					t.Errorf("match[%q] = %d, want %d", w, got[w], n)
				}
			}
			// Output is far smaller than input: grep's tiny map-output ratio.
			if pattern == "ou" && res.Counters.MapOutputRatio() > 0.5 {
				t.Errorf("grep map output ratio %.2f unexpectedly high", res.Counters.MapOutputRatio())
			}
		})
	}
}

func TestNaiveBayesModelLearns(t *testing.T) {
	nb := NewNaiveBayes()
	res, _ := runWorkload(t, nb, 64*units.KB, 16*units.KB, 3)
	model, err := NewModel(res.SortedOutput())
	if err != nil {
		t.Fatal(err)
	}
	if model.Labels() != len(nbClasses) {
		t.Errorf("model has %d labels, want %d", model.Labels(), len(nbClasses))
	}
	if model.VocabularySize() == 0 {
		t.Error("empty vocabulary")
	}
	// Classify a held-out set generated with a different seed; the corpus is
	// learnable by construction, so accuracy must clearly beat chance (25%).
	test := GenerateLabeledDocs(16*units.KB, 999)
	correct, total := 0, 0
	for _, line := range strings.Split(strings.TrimRight(string(test), "\n"), "\n") {
		tab := strings.IndexByte(line, '\t')
		if tab <= 0 {
			continue
		}
		total++
		if model.Classify(strings.Fields(line[tab+1:])) == line[:tab] {
			correct++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.45 {
		t.Errorf("held-out accuracy %.2f, want >= 0.45 (chance is 0.25)", acc)
	}
}

func TestNaiveBayesModelErrors(t *testing.T) {
	if _, err := NewModel(nil); err == nil {
		t.Error("empty model accepted")
	}
	if _, err := NewModel([]mapreduce.KV{{Key: "bogus", Value: "1"}}); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := NewModel([]mapreduce.KV{{Key: nbDocKey + "a", Value: "x"}}); err == nil {
		t.Error("non-numeric count accepted")
	}
	if _, err := NewModel([]mapreduce.KV{{Key: nbWordKey + "noSep", Value: "1"}}); err == nil {
		t.Error("malformed word key accepted")
	}
}

func TestFPTreeMinesKnownPatterns(t *testing.T) {
	// Classic example: {a,b} appears 3 times, {a} 4, {b} 3, {c} 2.
	txs := [][]string{
		{"a", "b", "c"},
		{"a", "b"},
		{"a", "b", "d"},
		{"a", "c"},
		{"e"},
	}
	patterns := MineTransactions(txs, 2)
	got := make(map[string]int)
	for _, p := range patterns {
		got[p.Key()] = p.Support
	}
	want := map[string]int{
		"a": 4, "b": 3, "c": 2, "a,b": 3, "a,c": 2,
	}
	if len(got) != len(want) {
		t.Fatalf("mined %v, want %v", got, want)
	}
	for k, s := range want {
		if got[k] != s {
			t.Errorf("support[%s] = %d, want %d", k, got[k], s)
		}
	}
}

func TestFPTreeSingleItemAndEmpty(t *testing.T) {
	tree := NewFPTree(1)
	if !tree.Empty() {
		t.Error("new tree not empty")
	}
	tree.Insert([]string{"x"}, 3)
	tree.Insert(nil, 5)           // no-op
	tree.Insert([]string{"x"}, 0) // non-positive count ignored
	if tree.Support("x") != 3 {
		t.Errorf("support(x) = %d, want 3", tree.Support("x"))
	}
	pats := tree.Mine()
	if len(pats) != 1 || pats[0].Key() != "x" || pats[0].Support != 3 {
		t.Errorf("Mine = %v", pats)
	}
}

func TestDistributedFPGrowthMatchesReference(t *testing.T) {
	fp := NewFPGrowth(3)
	input := GenerateTransactions(8*units.KB, 7)
	var txs [][]string
	for _, line := range strings.Split(strings.TrimRight(string(input), "\n"), "\n") {
		txs = append(txs, strings.Fields(line))
	}
	want := make(map[string]int)
	for _, p := range MineTransactions(txs, 3) {
		want[p.Key()] = p.Support
	}

	store, err := hdfs.NewStore(hdfs.Config{BlockSize: 2 * units.KB, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write("tx", input); err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.DefaultConfig("fpgrowth")
	cfg.NumReducers = 4
	cfg.Parallelism = 4
	job, err := fp.Build(cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.NewEngine(store).RunContext(context.Background(), job, "tx")
	if err != nil {
		t.Fatal(err)
	}
	pats, err := ParsePatterns(res.SortedOutput())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, p := range pats {
		if _, dup := got[p.Key()]; dup {
			t.Fatalf("pattern %q mined twice", p.Key())
		}
		got[p.Key()] = p.Support
	}
	if len(got) != len(want) {
		t.Fatalf("distributed mined %d patterns, reference %d", len(got), len(want))
	}
	for k, s := range want {
		if got[k] != s {
			t.Errorf("support[%s] = %d, want %d", k, got[k], s)
		}
	}
	if len(want) < 10 {
		t.Fatalf("test corpus too sparse: only %d patterns", len(want))
	}
}

func TestFPGrowthEmbeddedPatternsFound(t *testing.T) {
	fp := NewFPGrowth(5)
	res, _ := runWorkload(t, fp, 8*units.KB, 2*units.KB, 2)
	pats, err := ParsePatterns(res.SortedOutput())
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for _, p := range pats {
		keys[p.Key()] = true
	}
	// The generator embeds {i001,i002,i003} and {i004,i005} with ~30%
	// probability each; at 8 KB (hundreds of transactions) they must be
	// frequent.
	for _, want := range []string{"i001,i002,i003", "i004,i005"} {
		if !keys[want] {
			t.Errorf("embedded pattern %s not mined (got %d patterns)", want, len(pats))
		}
	}
}

func TestSpecCombinerReduction(t *testing.T) {
	s := wordCountSpec()
	want := s.MapOutputRatio / s.ShuffleRatio
	if got := s.CombinerReduction(); got != want {
		t.Errorf("CombinerReduction = %v, want %v", got, want)
	}
	if got := sortSpec().CombinerReduction(); got != 1 {
		t.Errorf("no-combiner reduction = %v, want 1", got)
	}
}

func TestSpecValidateRejectsBad(t *testing.T) {
	s := wordCountSpec()
	s.ShuffleRatio = s.MapOutputRatio * 2
	if err := s.Validate(); err == nil {
		t.Error("shuffle ratio above map output accepted")
	}
	s = wordCountSpec()
	s.MapOutputRatio = -1
	if err := s.Validate(); err == nil {
		t.Error("negative output ratio accepted")
	}
	s = wordCountSpec()
	s.MapProfile.ILP = 0
	if err := s.Validate(); err == nil {
		t.Error("invalid map profile accepted")
	}
}

func TestSampleCutsErrors(t *testing.T) {
	if cuts, err := sampleCuts([]byte("a\nb\n"), 1, func(s string) string { return s }); err != nil || cuts != nil {
		t.Errorf("single reducer should need no cuts, got %v, %v", cuts, err)
	}
	if _, err := sampleCuts([]byte("a\n"), 5, func(s string) string { return s }); err == nil {
		t.Error("too few samples accepted")
	}
	cuts, err := sampleCuts([]byte("d\nb\na\nc\n"), 2, func(s string) string { return s })
	if err != nil || len(cuts) != 1 {
		t.Fatalf("cuts = %v, err %v", cuts, err)
	}
	if cuts[0] != "c" {
		t.Errorf("median cut = %q, want c", cuts[0])
	}
}

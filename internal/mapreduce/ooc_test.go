package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"heterohadoop/internal/units"
)

// oocInput builds a skewed wordcount corpus large enough to overflow tiny
// sort buffers across many map tasks.
func oocInput(lines int) string {
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "w%d common x%d shared y%d tail%d value-%d\n", i%251, i%17, i%89, i%7, i)
	}
	return sb.String()
}

// spillDirEntries lists the names currently under dir (missing dir = none).
func spillDirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// materialized renders a result through the streaming writer.
func materialized(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.MaterializeOutputTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOutOfCoreParity is the out-of-core acceptance gate in miniature: for
// wordcount (combiner, string API) and sort (identity mapper + passthrough
// reducer), a run whose spills overflow a tiny memory budget onto disk
// must produce byte-identical output to the serial unbounded in-memory run
// at any parallelism, with identical counters up to the spill-file and
// disk-merge-pass fields, and must leave nothing under SpillDir once the
// run's Result is closed. The parallel in-memory run must match the serial
// one in every counter.
func TestOutOfCoreParity(t *testing.T) {
	input := oocInput(4000) // ~150 KB
	jobs := map[string]func(cfg Config) Job{
		"wordcount": wordCountJob,
		"sort": func(cfg Config) Job {
			return Job{Config: cfg, Mapper: IdentityMapper(), Reducer: IdentityReducer()}
		},
	}
	for name, mkJob := range jobs {
		base := DefaultConfig("ooc-" + name)
		base.NumReducers = 4
		base.SortBuffer = 4 * units.KB // many spills per map task
		base.MergeFactor = 3           // multi-pass merges
		base.Parallelism = 1

		run := func(t *testing.T, cfg Config) *Result {
			t.Helper()
			e := newEngine(t, 8*units.KB, input) // ~19 map tasks
			res, err := e.RunContext(context.Background(), mkJob(cfg), "input")
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(t, base) // serial unbounded in-memory reference
		if w := want.Counters; w.ReduceMergePasses != 0 || w.SpillFilesWritten != 0 || w.SpillFileBytesWritten != 0 || w.SpillFileBytesRead != 0 {
			t.Fatalf("%s: in-memory run recorded disk work: %+v", name, w)
		}

		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par%d", name, par), func(t *testing.T) {
				mem := base
				mem.Parallelism = par
				if got := run(t, mem); got.Counters != want.Counters || !bytes.Equal(materialized(t, got), materialized(t, want)) {
					t.Fatalf("in-memory run at parallelism %d diverges from serial:\npar    %+v\nserial %+v", par, got.Counters, want.Counters)
				}

				spillDir := t.TempDir()
				cfg := mem
				cfg.SpillDir = spillDir
				cfg.SpillMemory = 8 * units.KB // force overflow to disk
				got := run(t, cfg)

				if !got.OutOfCore() {
					t.Fatal("bounded run did not go out of core")
				}
				if got.Counters.Spills == 0 || got.Counters.SpillFilesWritten == 0 {
					t.Fatalf("no disk spills: Spills=%d SpillFilesWritten=%d",
						got.Counters.Spills, got.Counters.SpillFilesWritten)
				}
				if got.Counters.SpillFileBytesWritten == 0 || got.Counters.SpillFileBytesRead == 0 {
					t.Fatalf("spill-file byte accounting silent: written=%d read=%d",
						got.Counters.SpillFileBytesWritten, got.Counters.SpillFileBytesRead)
				}

				// Byte parity, both as []KV and through the streaming writer.
				if !reflect.DeepEqual(got.Output(), want.Output()) {
					t.Fatal("out-of-core output differs from in-memory output")
				}
				if gb, wb := materialized(t, got), materialized(t, want); !bytes.Equal(gb, wb) {
					t.Fatal("materialized byte streams differ")
				}

				// Counters agree up to the fields the disk path owns (all
				// zero in memory, asserted above).
				g := got.Counters
				g.SpillFilesWritten, g.SpillFileBytesWritten, g.SpillFileBytesRead = 0, 0, 0
				g.ReduceMergePasses = 0 // pressure folds + consolidation rounds
				if g != want.Counters {
					t.Fatalf("counters diverge beyond spill fields:\nooc %+v\nmem %+v", g, want.Counters)
				}

				// Interim spills are gone as soon as the run returns; the
				// reduce outputs live until Close; Close empties SpillDir.
				roots := spillDirEntries(t, spillDir)
				if len(roots) != 1 {
					t.Fatalf("SpillDir holds %v, want exactly the run root", roots)
				}
				if interm := spillDirEntries(t, filepath.Join(spillDir, roots[0], "interm")); len(interm) != 0 {
					t.Fatalf("interim spills survived the run: %v", interm)
				}
				if err := got.Close(); err != nil {
					t.Fatal(err)
				}
				if left := spillDirEntries(t, spillDir); len(left) != 0 {
					t.Fatalf("Close left %v under SpillDir", left)
				}
				if err := got.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
			})
		}
	}
}

// TestOutOfCoreLargeBudgetStaysResident pins the budget semantics: with
// SpillDir set but a budget nothing overflows, the run must not write a
// single spill file — the out-of-core machinery costs nothing until
// pressure actually materializes (reduce outputs still land on disk, as
// documented).
func TestOutOfCoreLargeBudgetStaysResident(t *testing.T) {
	e := newEngine(t, 8*units.KB, oocInput(500))
	cfg := DefaultConfig("ooc-idle")
	cfg.NumReducers = 2
	cfg.SpillDir = t.TempDir()
	cfg.SpillMemory = units.GB
	res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Counters.SpillFilesWritten != 0 || res.Counters.SpillFileBytesWritten != 0 {
		t.Fatalf("idle budget still spilled: files=%d bytes=%d",
			res.Counters.SpillFilesWritten, res.Counters.SpillFileBytesWritten)
	}
}

// TestOutOfCoreCancellationCleanup pins the error-path contract: a run
// cancelled mid-flight after spill files exist must remove its entire
// spill tree before returning.
func TestOutOfCoreCancellationCleanup(t *testing.T) {
	spillDir := t.TempDir()
	e := newEngine(t, 4*units.KB, oocInput(2000))
	cfg := DefaultConfig("ooc-cancel")
	cfg.NumReducers = 2
	cfg.SortBuffer = 2 * units.KB
	cfg.SpillDir = spillDir
	cfg.SpillMemory = 1 // every spill goes to disk immediately
	cfg.Parallelism = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	cfg.beforeTask = func(string) {
		calls++
		if calls == 4 { // a few map tasks have spilled to disk by now
			cancel()
		}
	}
	_, err := e.RunContext(ctx, wordCountJob(cfg), "input")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if left := spillDirEntries(t, spillDir); len(left) != 0 {
		t.Fatalf("cancelled run left %v under SpillDir", left)
	}
}

// TestCollectorPressureSpill exercises the collector's fold-to-disk path
// directly: under a budget nothing fits in, randomized arrival orders must
// still merge byte-identically to the one-shot reference, with the folded
// chains actually hitting disk.
func TestCollectorPressureSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		nsplits := 2 + rng.Intn(24)
		factor := 2 + rng.Intn(5)
		segs := make([]Segment, nsplits)
		for task := range segs {
			n := rng.Intn(8)
			if rng.Intn(5) == 0 {
				n = 0
			}
			kvs := make([]KV, n)
			for i := range kvs {
				kvs[i] = KV{Key: fmt.Sprintf("k%02d", rng.Intn(9)), Value: fmt.Sprintf("t%d.%d", task, i)}
			}
			sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
			segs[task] = SegmentFromKVs(kvs)
		}
		nonEmpty := make([]Segment, 0, nsplits)
		for _, s := range segs {
			if s.Len() > 0 {
				nonEmpty = append(nonEmpty, s)
			}
		}
		want := stableMergeOracle(nonEmpty)

		cfg := DefaultConfig("col-pressure")
		cfg.SpillDir = t.TempDir()
		cfg.SpillMemory = 1
		js, err := newJobSpill(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col := &collector{factor: factor, js: js, budget: js.budget}
		for _, task := range rng.Perm(nsplits) {
			if err := col.add(task, memRun(segs[task])); err != nil {
				t.Fatal(err)
			}
		}
		runs := make([]partRun, len(col.runs))
		for i, r := range col.runs {
			runs[i] = r.run
		}
		got := drainRuns(t, runs)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trial %d (nsplits=%d factor=%d folds=%d): pressure-folded merge diverges",
				trial, nsplits, factor, col.folds.SpillFilesWritten)
		}
		if len(want) > 0 && col.folds.SpillFilesWritten == 0 {
			t.Fatalf("trial %d: budget of 1 byte produced no disk folds", trial)
		}
		os.RemoveAll(js.root)
	}
}

// TestMultiPassExternalMergeParity forces far more disk runs into the
// reduce-side merge than MergeFactor allows open at once, with the factor
// pinned to 2–3, so reduceToFile must run intermediate disk-to-disk merge
// rounds (and the map side must consolidate its spills in rounds too).
// Output must stay byte-identical to the serial in-memory reference, the
// rounds must be visible in ReduceMergePasses, and no intermediate file may
// survive the run.
func TestMultiPassExternalMergeParity(t *testing.T) {
	input := oocInput(3000)
	for _, factor := range []int{2, 3} {
		t.Run(fmt.Sprintf("factor%d", factor), func(t *testing.T) {
			base := DefaultConfig("multipass")
			base.NumReducers = 2
			base.SortBuffer = 2 * units.KB
			base.MergeFactor = factor
			base.Parallelism = 1

			run := func(cfg Config) *Result {
				t.Helper()
				e := newEngine(t, 8*units.KB, input) // ~14 map tasks
				res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(base)

			spillDir := t.TempDir()
			cfg := base
			cfg.Parallelism = 2
			cfg.SpillDir = spillDir
			cfg.SpillMemory = 1 // every spill and every collector run on disk
			got := run(cfg)
			defer got.Close()

			if !reflect.DeepEqual(got.Output(), want.Output()) {
				t.Fatal("multi-pass output differs from in-memory output")
			}
			if gb, wb := materialized(t, got), materialized(t, want); !bytes.Equal(gb, wb) {
				t.Fatal("materialized byte streams differ")
			}
			// Every map task's output is already a disk file, so the
			// collectors have nothing resident to fold: each partition's
			// passes are exactly the consolidation rounds over one run per
			// map task, whatever the arrival order.
			rounds := mergePasses(got.Counters.MapTasks, factor) - 1
			if rounds < 1 || got.Counters.ReduceMergePasses != base.NumReducers*rounds {
				t.Fatalf("ReduceMergePasses = %d, want %d partitions × %d rounds (%d runs, factor %d)",
					got.Counters.ReduceMergePasses, base.NumReducers, rounds, got.Counters.MapTasks, factor)
			}
			// Only the final reduce outputs survive: intermediates of every
			// consolidation round are removed as they are consumed.
			roots := spillDirEntries(t, spillDir)
			if len(roots) != 1 {
				t.Fatalf("SpillDir holds %v, want exactly the run root", roots)
			}
			if interm := spillDirEntries(t, filepath.Join(spillDir, roots[0], "interm")); len(interm) != 0 {
				t.Fatalf("interim files survived the run: %v", interm)
			}
			if out := spillDirEntries(t, filepath.Join(spillDir, roots[0], "out")); len(out) != base.NumReducers {
				t.Fatalf("out dir holds %v, want %d reduce outputs", out, base.NumReducers)
			}
		})
	}
}

// consolidateCase builds n sorted single-run inputs with nparts partitions
// each — run i lives on disk unless mixed && i%3 == 1 — and returns them in
// consolidate's [run][partition] layout with the per-partition one-shot
// reference merge.
func consolidateCase(t *testing.T, dir string, n, nparts int, mixed bool) ([][]partRun, [][]KV) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*31 + nparts)))
	runs := make([][]partRun, n)
	byPart := make([][]Segment, nparts)
	for i := range runs {
		parts := make([]Segment, nparts)
		for p := range parts {
			kvs := make([]KV, rng.Intn(5)) // some partitions stay empty
			for j := range kvs {
				kvs[j] = KV{Key: fmt.Sprintf("k%02d", rng.Intn(6)), Value: fmt.Sprintf("r%d.p%d.%d", i, p, j)}
			}
			sort.SliceStable(kvs, func(a, b int) bool { return kvs[a].Key < kvs[b].Key })
			parts[p] = SegmentFromKVs(kvs)
			if parts[p].Len() > 0 {
				byPart[p] = append(byPart[p], parts[p])
			}
		}
		if mixed && i%3 == 1 {
			runs[i] = make([]partRun, nparts)
			for p := range parts {
				runs[i][p] = memRun(parts[p])
			}
			continue
		}
		sf, err := WriteSegmentsFile(filepath.Join(dir, fmt.Sprintf("in%d.seg", i)), parts)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = fileRuns(sf)
	}
	want := make([][]KV, nparts)
	for p := range want {
		want[p] = stableMergeOracle(byPart[p])
	}
	return runs, want
}

// TestConsolidateRounds drives the shared consolidate/mergeToFile helper
// directly, in both shapes the engine uses it (one partition for reduce
// runs, several for map spills): the round count must follow mergePasses
// (whose last pass is the caller's final merge), the final merge over the
// returned runs must equal the oracle merge of the original runs in order, the
// input slice must come back untouched, and
// the only files left are the inputs and the returned last-round
// intermediates. The grouping rows pin the forced-hops rule: the last round
// cuts ⌈excess/(f−1)⌉ groups off the left, rewriting excess + that many of
// its input runs, and every run to their right comes back as the very same
// partRun — same file, same segment — never copied.
func TestConsolidateRounds(t *testing.T) {
	for _, tc := range []struct {
		n, factor, nparts int
		mixed, own        bool
	}{
		{n: 9, factor: 2, nparts: 1},
		{n: 9, factor: 3, nparts: 1},
		{n: 7, factor: 2, nparts: 1, mixed: true},
		{n: 10, factor: 3, nparts: 4},
		{n: 7, factor: 3, nparts: 3, mixed: true},
		{n: 8, factor: 2, nparts: 3, own: true},
		{n: 2, factor: 3, nparts: 2}, // within fan-in: no rounds, no files
		// Grouping table: one run over the fan-in, the bench's 16–17-run shape,
		// one short of two full groups, exactly two, a full square, and the
		// smallest factor over several rounds.
		{n: 11, factor: 10, nparts: 1},
		{n: 11, factor: 10, nparts: 2, mixed: true, own: true},
		{n: 17, factor: 10, nparts: 1, own: true},
		{n: 17, factor: 10, nparts: 3, mixed: true},
		{n: 19, factor: 10, nparts: 1, mixed: true},
		{n: 19, factor: 10, nparts: 2, own: true},
		{n: 20, factor: 10, nparts: 1},
		{n: 20, factor: 10, nparts: 2, mixed: true, own: true},
		{n: 100, factor: 10, nparts: 1, mixed: true},
		{n: 100, factor: 10, nparts: 1, own: true},
		{n: 9, factor: 2, nparts: 1, mixed: true, own: true},
	} {
		t.Run(fmt.Sprintf("n%d-f%d-p%d-mixed%v-own%v", tc.n, tc.factor, tc.nparts, tc.mixed, tc.own), func(t *testing.T) {
			dir := t.TempDir()
			runs, want := consolidateCase(t, dir, tc.n, tc.nparts, tc.mixed)
			inputs := spillDirEntries(t, dir)
			orig := append([][]partRun(nil), runs...)

			var c Counters
			out, made, rounds, err := consolidate(runs, tc.factor, filepath.Join(dir, "x-"), tc.own, phaseClock{}, 0, &c)
			if err != nil {
				t.Fatal(err)
			}
			if rounds != max(mergePasses(tc.n, tc.factor)-1, 0) {
				t.Fatalf("rounds = %d, want mergePasses(%d,%d)-1 = %d", rounds, tc.n, tc.factor, mergePasses(tc.n, tc.factor)-1)
			}
			if len(out) > tc.factor {
				t.Fatalf("%d runs left, fan-in cap %d", len(out), tc.factor)
			}
			if !reflect.DeepEqual(runs, orig) {
				t.Fatal("consolidate mutated its input slice")
			}
			if rounds > 0 {
				// Rounds ahead of the last are whole groups of factor (their
				// input cannot reach factor in one round); the last one has
				// lastN runs coming in and must stop at exactly factor.
				lastN := tc.n
				for lastN > tc.factor*tc.factor {
					lastN = (lastN + tc.factor - 1) / tc.factor
				}
				excess := lastN - tc.factor
				wantGroups := (excess + tc.factor - 2) / (tc.factor - 1)
				lastRound := func(r []partRun) bool {
					return r[0].isDisk() && strings.HasPrefix(filepath.Base(r[0].file.Path()), fmt.Sprintf("x-r%d-", rounds-1))
				}
				groups := 0
				for _, r := range out {
					if lastRound(r) {
						groups++
					}
				}
				if groups != wantGroups || len(out) != tc.factor {
					t.Fatalf("last round: %d runs in, %d merged groups and %d runs out, want %d groups and %d runs",
						lastN, groups, len(out), wantGroups, tc.factor)
				}
				if rewritten := lastN - (len(out) - groups); rewritten != excess+wantGroups {
					t.Fatalf("last round rewrote %d of its %d input runs, want excess %d + %d groups", rewritten, lastN, excess, wantGroups)
				}
				// The merged groups lead; what follows them was never touched.
				untouched := out[groups:]
				for i, r := range untouched {
					if lastRound(r) {
						t.Fatalf("run %d of the output is a last-round group right of an untouched run", groups+i)
					}
					if rounds > 1 {
						continue // its inputs were earlier rounds' files, not orig
					}
					in := orig[tc.n-len(untouched)+i]
					for p := range r {
						same := r[p].file == in[p].file && r[p].part == in[p].part && r[p].seg.Len() == in[p].seg.Len()
						if same && r[p].seg.Len() > 0 {
							same = &r[p].seg.data[0] == &in[p].seg.data[0]
						}
						if !same {
							t.Fatalf("untouched run %d partition %d came back as a different partRun", groups+i, p)
						}
					}
				}
				if rounds == 1 && c.SpillFilesWritten != groups {
					t.Fatalf("SpillFilesWritten = %d, want one file per merged group (%d)", c.SpillFilesWritten, groups)
				}
			}
			if (c.SpillFilesWritten == 0) != (rounds == 0) || c.ReduceMergePasses != 0 {
				t.Fatalf("counters after %d rounds: %+v", rounds, c)
			}
			for p := 0; p < tc.nparts; p++ {
				col := make([]partRun, len(out))
				for i, r := range out {
					col[i] = r[p]
				}
				if got := drainRuns(t, col); len(got) != len(want[p]) || (len(got) > 0 && !reflect.DeepEqual(got, want[p])) {
					t.Fatalf("partition %d: consolidated merge diverges from the oracle\ngot  %v\nwant %v", p, got, want[p])
				}
			}
			// What is on disk: the inputs (unless owned, then only those
			// still referenced) plus exactly the returned intermediates.
			keep := make(map[string]bool)
			for _, sf := range made {
				keep[filepath.Base(sf.Path())] = true
			}
			if !tc.own {
				for _, name := range inputs {
					keep[name] = true
				}
			} else {
				for _, r := range out {
					if r[0].isDisk() {
						keep[filepath.Base(r[0].file.Path())] = true
					}
				}
			}
			left := spillDirEntries(t, dir)
			if len(left) != len(keep) {
				t.Fatalf("dir holds %v, want %d files (%d made)", left, len(keep), len(made))
			}
			for _, name := range left {
				if !keep[name] {
					t.Fatalf("stray file %s survived consolidation (dir %v)", name, left)
				}
			}
		})
	}
}

// TestConsolidateFailureLeavesNothing breaks an input file that only a
// later group (and, for the deeper case, a later round) reads: consolidate
// must fail, remove every intermediate it had already written, and leave
// the inputs it does not own alone.
func TestConsolidateFailureLeavesNothing(t *testing.T) {
	for _, tc := range []struct{ n, factor, victim int }{
		{n: 8, factor: 2, victim: 5}, // round 0, third group
		{n: 7, factor: 2, victim: 6}, // trailing singleton: first read in round 1
	} {
		dir := t.TempDir()
		runs, _ := consolidateCase(t, dir, tc.n, 2, false)
		inputs := spillDirEntries(t, dir)
		// Corrupt the victim's frames in place; its index stays valid, so
		// the failure surfaces mid-merge as a CRC error.
		path := runs[tc.victim][0].file.Path()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16 && i < len(raw); i++ {
			raw[i] ^= 0xff
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var c Counters
		out, made, _, err := consolidate(runs, tc.factor, filepath.Join(dir, "x-"), false, phaseClock{}, 0, &c)
		if err == nil {
			t.Fatalf("victim %d: consolidate succeeded over a corrupt input", tc.victim)
		}
		if out != nil || made != nil {
			t.Fatalf("victim %d: failed consolidate returned runs/files", tc.victim)
		}
		if c.SpillFilesWritten == 0 {
			t.Fatalf("victim %d: failure hit before any intermediate was written — test shape is off", tc.victim)
		}
		if left := spillDirEntries(t, dir); !reflect.DeepEqual(left, inputs) {
			t.Fatalf("victim %d: failure left %v, want only the inputs %v", tc.victim, left, inputs)
		}
	}
}

// offsetMapper emits (line, byte-offset) — any windowing or base-offset
// slip in the file-backed read path shifts its output, so parity against
// the store-backed engine pins absolute offset semantics exactly.
var offsetMapper = MapperFunc(func(key, value string, emit Emitter) error {
	emit(value, key) // the string API renders the offset as the record key
	return nil
})

// TestRunFileWindowedParity runs the same job over the same bytes through
// the in-memory store engine and through RunFileContext's windowed disk reader,
// across block sizes that cut mid-record, at record boundaries, and past
// EOF. Outputs embed per-line byte offsets, so they match only if the
// window arithmetic is exact.
func TestRunFileWindowedParity(t *testing.T) {
	input := oocInput(300)
	// Append an unterminated final line: EOF handling differs most there.
	input += "final line without newline"

	path := filepath.Join(t.TempDir(), "input.txt")
	if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bs := range []units.Bytes{1, 7, 64, 997, 4 * units.KB, units.MB} {
		t.Run(fmt.Sprintf("block-%d", bs), func(t *testing.T) {
			cfg := DefaultConfig("runfile-parity")
			cfg.NumReducers = 3
			job := Job{Config: cfg, Mapper: offsetMapper, Reducer: IdentityReducer()}

			e := newEngine(t, bs, input)
			want, err := e.RunContext(context.Background(), job, "input")
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewEngine(nil).RunFileContext(context.Background(), job, path, bs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Output(), want.Output()) {
				t.Fatal("RunFileContext output differs from store-backed run (offset or window drift)")
			}
			gc, wc := got.Counters, want.Counters
			if gc != wc {
				t.Fatalf("counters diverge:\nfile  %+v\nstore %+v", gc, wc)
			}
		})
	}
}

// TestRunFileOutOfCore is the end-to-end bounded-memory shape in unit-test
// size: file input, disk spills, disk-backed output, byte parity with the
// fully in-memory store run.
func TestRunFileOutOfCore(t *testing.T) {
	input := oocInput(3000)
	path := filepath.Join(t.TempDir(), "input.txt")
	if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("runfile-ooc")
	cfg.NumReducers = 4
	e := newEngine(t, 8*units.KB, input)
	want, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
	if err != nil {
		t.Fatal(err)
	}

	cfg.SortBuffer = 4 * units.KB
	cfg.SpillMemory = 8 * units.KB
	cfg.SpillDir = t.TempDir()
	got, err := NewEngine(nil).RunFileContext(context.Background(), wordCountJob(cfg), path, 8*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Counters.SpillFilesWritten == 0 {
		t.Fatal("file-backed bounded run never spilled to disk")
	}
	if gb, wb := materialized(t, got), materialized(t, want); !bytes.Equal(gb, wb) {
		t.Fatal("bounded file-backed output differs from in-memory store run")
	}
}

// TestReduceSideSpillReadsCounted pins the reduce half of the spill-read
// accounting. The job is shaped so the reducers' final merges are the only
// readers of spill files: every map task spills once, straight to a file
// (no map-side merge re-reads it), and the file runs per reducer stay within
// MergeFactor (no consolidation round). Every stored byte the map wave wrote
// is then read exactly once, by the reduce loop's merge.
func TestReduceSideSpillReadsCounted(t *testing.T) {
	e := newEngine(t, 8*units.KB, oocInput(1000)) // ~5 map tasks
	cfg := DefaultConfig("ooc-reduce-reads")
	cfg.NumReducers = 3
	cfg.SpillDir = t.TempDir()
	cfg.SpillMemory = 1 // every spill goes to a file
	res, err := e.RunContext(context.Background(), wordCountJob(cfg), "input")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	c := res.Counters
	if c.Spills != c.MapTasks || c.SpillFilesWritten != c.MapTasks || c.MergePasses != 0 || c.ReduceMergePasses != 0 {
		t.Fatalf("test shape is off — want one file spill per map task and no merge rounds: %+v", c)
	}
	if c.SpillFileBytesWritten == 0 || c.SpillFileBytesRead != c.SpillFileBytesWritten {
		t.Fatalf("SpillFileBytesRead = %d, want the %d stored bytes of the runs the reducers opened",
			c.SpillFileBytesRead, c.SpillFileBytesWritten)
	}
}

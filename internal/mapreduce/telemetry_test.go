package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
)

// telemetryInput is a small but phase-complete workload: enough records to
// exercise the map loop, sort, and at least one spill when SpillRecords is
// forced low.
func telemetryInput() []byte {
	var b bytes.Buffer
	for i := 0; i < 64; i++ {
		b.WriteString("alpha beta gamma delta epsilon zeta\n")
	}
	return b.Bytes()
}

// TestNoopPhasePathZeroAlloc pins the tentpole's zero-cost contract: with no
// observer installed, the inert phaseClock must not allocate on the hot
// path — not in start(), not in emit().
func TestNoopPhasePathZeroAlloc(t *testing.T) {
	pc := newPhaseClock(nil, obs.TaskRef{})
	allocs := testing.AllocsPerRun(1000, func() {
		ts := pc.Start()
		pc.Emit(obs.PhaseMap, ts)
		pc.Emit(obs.PhaseSort, ts)
	})
	if allocs != 0 {
		t.Fatalf("inert phaseClock allocated %.1f times per run, want 0", allocs)
	}
	// A disabled observer must collapse to the same inert clock.
	pc = newPhaseClock(obs.Nop, obs.TaskRef{Job: "j", Kind: obs.KindMap})
	if pc != (phaseClock{}) {
		t.Fatal("newPhaseClock(Nop) did not collapse to the zero clock")
	}
	if !pc.Start().IsZero() {
		t.Fatal("inert clock read the wall clock")
	}
}

// TestPhaseEventsCoverEngineTaxonomy runs a job with a collecting observer
// and checks every engine-emitted phase shows up with sane attribution, and
// that nothing else does. A reduce task is one reduce interval with the merge
// folded in, wherever its runs live; spill-read (opening file cursors) and
// spill-write (consolidation rounds, pressure folds) appear only when the run
// really went to disk. A map task's multi-spill merge is merge-fetch.
func TestPhaseEventsCoverEngineTaxonomy(t *testing.T) {
	always := []string{
		obs.PhaseKey(obs.KindMap, obs.PhaseRead),
		obs.PhaseKey(obs.KindMap, obs.PhaseMap),
		obs.PhaseKey(obs.KindMap, obs.PhaseSort),
		obs.PhaseKey(obs.KindMap, obs.PhaseSpill),
		obs.PhaseKey(obs.KindMap, obs.PhaseMergeFetch),
		obs.PhaseKey(obs.KindReduce, obs.PhaseReduce),
	}
	disk := []string{
		obs.PhaseKey(obs.KindMap, obs.PhaseSpillWrite),
		obs.PhaseKey(obs.KindReduce, obs.PhaseSpillRead),
		obs.PhaseKey(obs.KindReduce, obs.PhaseSpillWrite),
	}
	for _, spilled := range []bool{false, true} {
		t.Run(fmt.Sprintf("spilldir-%v", spilled), func(t *testing.T) {
			col := obs.NewCollector()
			ctx := obs.NewContext(context.Background(), col)
			e := newEngine(t, 256, string(telemetryInput()))
			cfg := DefaultConfig("telemetry")
			cfg.NumReducers = 2
			cfg.SortBuffer = units.Bytes(256) // several spills per map task: sort, spill and the map-side merge all fire
			want := always
			if spilled {
				cfg.SpillDir = t.TempDir()
				cfg.SpillMemory = 1 // every spill goes to a file
				cfg.MergeFactor = 2 // more file runs per reducer than may be open: consolidation rounds
				want = append(want[:len(want):len(want)], disk...)
			}
			res, err := e.RunContext(ctx, wordCountJob(cfg), "input")
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			snap := col.Snapshot()
			for _, key := range want {
				sum, ok := snap.Spans[key]
				if !ok {
					t.Errorf("no phase aggregate for %s; have %v", key, spanKeys(snap))
					continue
				}
				if sum.Count <= 0 || sum.Total < 0 {
					t.Errorf("%s: degenerate summary %+v", key, sum)
				}
				hist, ok := snap.Hists[key]
				if !ok {
					t.Errorf("no histogram for %s", key)
				} else if hist.Total() != sum.Count {
					t.Errorf("%s: histogram total %d != span count %d", key, hist.Total(), sum.Count)
				}
			}
			if got := spanKeys(snap); len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("engine emitted phases %v, want exactly %v", got, want)
			}
		})
	}
}

func spanKeys(snap obs.Snapshot) []string {
	keys := make([]string, 0, len(snap.Spans))
	for k := range snap.Spans {
		if strings.HasPrefix(k, "phase.") {
			keys = append(keys, k)
		}
	}
	return keys
}

// BenchmarkNoopObserver measures exactly what the phase telemetry adds to
// the hot path when no observer is installed: building the clock from a
// bare context and cycling it through the full task-phase taxonomy. It must
// report 0 allocs/op — the engine-wide allocation fence is
// TestEngineAllocsPerRecord, which bounds a whole job's allocations per map
// output record.
func BenchmarkNoopObserver(b *testing.B) {
	ctx := context.Background()
	job := wordCountJob(DefaultConfig("noop-obs"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := obs.FromContext(ctx) // what RunContext does per job
		pc := mapTaskClock(o, job, i)
		for p := obs.PhaseRead; p <= obs.PhaseWrite; p++ {
			ts := pc.Start()
			pc.Emit(p, ts)
		}
	}
}

// BenchmarkMapTaskNoObserver drives the full map-task record path — parse,
// map, partition, sort, spill accounting — through the instrumented
// signatures with the inert zero clock, for benchstat comparison against
// pre-telemetry engine numbers.
func BenchmarkMapTaskNoObserver(b *testing.B) {
	job := wordCountJob(DefaultConfig("noop-obs"))
	if err := job.Validate(); err != nil {
		b.Fatal(err)
	}
	job.Partitioner = HashPartitioner()
	chunk := telemetryInput()
	bufs := new(taskBufs)
	b.ReportAllocs()
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segs, _, err := runMapTask(job, chunk, 0, splitRange{start: 0, end: len(chunk)}, 4, phaseClock{}, bufs, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(segs) != 4 {
			b.Fatalf("got %d partitions, want 4", len(segs))
		}
	}
}

// BenchmarkPhaseClockEnabled measures the marginal cost of live phase
// emission into a Collector (two clock reads plus one locked histogram
// update per phase) so the overhead claim in DESIGN.md stays honest.
func BenchmarkPhaseClockEnabled(b *testing.B) {
	col := obs.NewCollector()
	pc := newPhaseClock(col, obs.TaskRef{Job: "bench", Kind: obs.KindMap, Index: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := pc.Start()
		pc.Emit(obs.PhaseMap, ts)
	}
	_ = time.Now()
}

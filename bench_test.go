package heterohadoop_test

// bench_test.go wraps every reproduced table and figure in a testing.B
// benchmark, so `go test -bench=. -benchmem` regenerates the full
// evaluation and reports the cost of producing each artefact. The rows
// themselves are printed once per benchmark under -v via b.Log; use
// cmd/experiments for the plain-text tables.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"heterohadoop/internal/expt"
	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// benchArtefact runs one expt generator per iteration, e.g.
//
//	go test -bench 'Fig03|Fig17|Table3' -count 5
func benchArtefact(b *testing.B, id string) {
	b.Helper()
	g, err := expt.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		tbl, err := g.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tbl.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable1Architecture(b *testing.B)    { benchArtefact(b, "table1") }
func BenchmarkTable2Applications(b *testing.B)    { benchArtefact(b, "table2") }
func BenchmarkFig01IPC(b *testing.B)              { benchArtefact(b, "fig1") }
func BenchmarkFig02EDPRatios(b *testing.B)        { benchArtefact(b, "fig2") }
func BenchmarkFig03ExecTimeMicro(b *testing.B)    { benchArtefact(b, "fig3") }
func BenchmarkFig04ExecTimeReal(b *testing.B)     { benchArtefact(b, "fig4") }
func BenchmarkFig05EDPReal(b *testing.B)          { benchArtefact(b, "fig5") }
func BenchmarkFig06EDPMicro(b *testing.B)         { benchArtefact(b, "fig6") }
func BenchmarkFig07PhaseEDPMicro(b *testing.B)    { benchArtefact(b, "fig7") }
func BenchmarkFig08PhaseEDPReal(b *testing.B)     { benchArtefact(b, "fig8") }
func BenchmarkFig09EDPBlockSize(b *testing.B)     { benchArtefact(b, "fig9") }
func BenchmarkFig10DataSizeMicro(b *testing.B)    { benchArtefact(b, "fig10") }
func BenchmarkFig11DataSizeReal(b *testing.B)     { benchArtefact(b, "fig11") }
func BenchmarkFig12EDPDataSize(b *testing.B)      { benchArtefact(b, "fig12") }
func BenchmarkFig13PhaseEDPDataSize(b *testing.B) { benchArtefact(b, "fig13") }
func BenchmarkFig14Acceleration(b *testing.B)     { benchArtefact(b, "fig14") }
func BenchmarkFig15AccelFrequency(b *testing.B)   { benchArtefact(b, "fig15") }
func BenchmarkFig16AccelBlockSize(b *testing.B)   { benchArtefact(b, "fig16") }
func BenchmarkTable3Cost(b *testing.B)            { benchArtefact(b, "table3") }
func BenchmarkFig17Spider(b *testing.B)           { benchArtefact(b, "fig17") }
func BenchmarkSchedulingCase(b *testing.B)        { benchArtefact(b, "sched") }

// BenchmarkFullEvaluation regenerates every artefact per iteration.
func BenchmarkFullEvaluation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, g := range expt.All() {
			if _, err := g.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- engine micro-benchmarks: the real execution path under load ----

// benchEngine runs a real workload end to end per iteration, as a pair of
// sub-benchmarks: "serial" pins one task slot (the measurement baseline),
// "parallel" uses the default configuration — one slot per CPU. Output is
// byte-identical between the two (engine_parity_test.go pins this); the
// pair measures only the parallelism. Recorded numbers come from bench/
// (mapreduce.engine_overlap_ratio is its scaling figure), not from here.
// The job is built once, outside the timer, so a workload's input sampling
// (TeraSort's quantile cuts) is not part of what an op measures.
func benchEngine(b *testing.B, name string, size units.Bytes) {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	input := w.Generate(size, 42)
	for _, mode := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := mapreduce.DefaultConfig(name)
			cfg.NumReducers = 2
			cfg.Parallelism = mode.parallelism
			job, err := w.Build(cfg, input)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store, err := hdfs.NewStore(hdfs.Config{BlockSize: size / 4, Replication: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := store.Write("in", input); err != nil {
					b.Fatal(err)
				}
				if _, err := mapreduce.NewEngine(store).RunContext(context.Background(), job, "in"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineWordCount(b *testing.B)  { benchEngine(b, "wordcount", 256*units.KB) }
func BenchmarkEngineSort(b *testing.B)       { benchEngine(b, "sort", 256*units.KB) }
func BenchmarkEngineGrep(b *testing.B)       { benchEngine(b, "grep", 256*units.KB) }
func BenchmarkEngineTeraSort(b *testing.B)   { benchEngine(b, "terasort", 256*units.KB) }
func BenchmarkEngineNaiveBayes(b *testing.B) { benchEngine(b, "naivebayes", 128*units.KB) }
func BenchmarkEngineFPGrowth(b *testing.B)   { benchEngine(b, "fpgrowth", 32*units.KB) }

// BenchmarkEngineTeraSortOOC is the out-of-core path as bench/'s
// terasort-ooc workload drives it, in a form the standard profilers attach
// to: 64 MB of TeraGen streamed to a file, RunFileContext over 4 MB splits
// with a spill dir and sort buffer = spill memory = half a split (so every map
// task spills to files and each reducer sees 16 disk runs against MergeFactor
// 10), the output streamed out of its segment files. To see where
// out-of-core time or memory goes:
//
//	go test -run '^$' -bench BenchmarkEngineTeraSortOOC -cpuprofile cpu.out .
//	go test -run '^$' -bench BenchmarkEngineTeraSortOOC -memprofile mem.out .
func BenchmarkEngineTeraSortOOC(b *testing.B) {
	const size, block = 64 * units.MB, 4 * units.MB
	dir := b.TempDir()
	path := filepath.Join(dir, "input")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	_, err = workloads.StreamTo(f, workloads.NewTeraSort().Generate, size, 42, units.MB)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.Fatal(err)
	}
	// The input is never resident, so the range cuts come from its first split.
	head := make([]byte, block)
	if f, err = os.Open(path); err != nil {
		b.Fatal(err)
	}
	_, err = io.ReadFull(f, head)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	cfg := mapreduce.DefaultConfig("terasort-ooc")
	cfg.NumReducers = 4
	cfg.SortBuffer = block / 2
	cfg.SpillMemory = block / 2
	cfg.SpillDir = filepath.Join(dir, "spill")
	cuts, err := workloads.SampleCuts(head[:bytes.LastIndexByte(head, '\n')+1], cfg.NumReducers, workloads.TeraKey)
	if err != nil {
		b.Fatal(err)
	}
	job := workloads.BuildTeraSortWithCuts(cfg, cuts)

	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mapreduce.NewEngine(nil).RunFileContext(context.Background(), job, path, block)
		if err != nil {
			b.Fatal(err)
		}
		var out countingWriter
		if err := res.MaterializeOutputTo(&out); err != nil {
			b.Fatal(err)
		}
		if err := res.Close(); err != nil {
			b.Fatal(err)
		}
		if out < countingWriter(size) || res.Counters.SpillFilesWritten == 0 || res.Counters.ReduceMergePasses == 0 {
			b.Fatalf("not the out-of-core shape: %d output bytes, counters %+v", out, res.Counters)
		}
	}
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkSimulatorSingleRun measures one cluster simulation, the unit of
// work behind every figure.
func BenchmarkSimulatorSingleRun(b *testing.B) {
	w, err := workloads.ByName("terasort")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), sim.NewCluster(sim.AtomNode(8)), sim.JobSpec{
			Name: "terasort", Spec: w.Spec(), DataPerNode: 10 * units.GB,
			BlockSize: 256 * units.MB, Frequency: 1.6 * units.GHz,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benches: the design choices DESIGN.md calls out ----

// BenchmarkAblationCombinerOff quantifies the combiner's effect on real
// WordCount shuffle volume.
func BenchmarkAblationCombinerOff(b *testing.B) {
	w := workloads.NewWordCount()
	input := w.Generate(256*units.KB, 42)
	for _, combiner := range []bool{true, false} {
		name := "with-combiner"
		if !combiner {
			name = "without-combiner"
		}
		b.Run(name, func(b *testing.B) {
			var shuffle units.Bytes
			for i := 0; i < b.N; i++ {
				store, err := hdfs.NewStore(hdfs.Config{BlockSize: 64 * units.KB, Replication: 1})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := store.Write("in", input); err != nil {
					b.Fatal(err)
				}
				cfg := mapreduce.DefaultConfig("wc")
				cfg.NumReducers = 2
				job, err := w.Build(cfg, input)
				if err != nil {
					b.Fatal(err)
				}
				if !combiner {
					job.Combiner = nil
				}
				res, err := mapreduce.NewEngine(store).RunContext(context.Background(), job, "in")
				if err != nil {
					b.Fatal(err)
				}
				shuffle = res.Counters.ShuffleBytes
			}
			b.ReportMetric(float64(shuffle), "shuffle-bytes")
		})
	}
}

// BenchmarkAblationSortBuffer sweeps io.sort.mb in the simulator, the knob
// behind the 512 MB block penalty.
func BenchmarkAblationSortBuffer(b *testing.B) {
	w, err := workloads.ByName("wordcount")
	if err != nil {
		b.Fatal(err)
	}
	for _, buf := range []units.Bytes{50 * units.MB, 100 * units.MB, 400 * units.MB} {
		b.Run(fmt.Sprintf("buffer-%v", buf), func(b *testing.B) {
			var tm float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(context.Background(), sim.NewCluster(sim.AtomNode(8)), sim.JobSpec{
					Name: "wordcount", Spec: w.Spec(), DataPerNode: units.GB,
					BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz, SortBuffer: buf,
				})
				if err != nil {
					b.Fatal(err)
				}
				tm = float64(r.Total.Time)
			}
			b.ReportMetric(tm, "sim-seconds")
		})
	}
}

// BenchmarkAblationLatencyHiding contrasts the big core with its
// out-of-order latency hiding disabled — the mechanism behind the Sort gap.
func BenchmarkAblationLatencyHiding(b *testing.B) {
	w, err := workloads.ByName("sort")
	if err != nil {
		b.Fatal(err)
	}
	for _, crippled := range []bool{false, true} {
		name := "ooo-hiding-on"
		if crippled {
			name = "ooo-hiding-off"
		}
		b.Run(name, func(b *testing.B) {
			node := sim.XeonNode(8)
			if crippled {
				node.Core.StallExposure = sim.AtomNode(8).Core.StallExposure
				node.Core.MLP = sim.AtomNode(8).Core.MLP
			}
			var tm float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(context.Background(), sim.NewCluster(node), sim.JobSpec{
					Name: "sort", Spec: w.Spec(), DataPerNode: units.GB,
					BlockSize: 256 * units.MB, Frequency: 1.8 * units.GHz,
				})
				if err != nil {
					b.Fatal(err)
				}
				tm = float64(r.Total.Time)
			}
			b.ReportMetric(tm, "sim-seconds")
		})
	}
}

// BenchmarkAblationLocality quantifies the HDFS data-locality knob: the
// same job with node-local reads vs fully remote reads.
func BenchmarkAblationLocality(b *testing.B) {
	w, err := workloads.ByName("sort")
	if err != nil {
		b.Fatal(err)
	}
	for _, nl := range []float64{0, 1} {
		name := "node-local"
		if nl > 0 {
			name = "off-node"
		}
		b.Run(name, func(b *testing.B) {
			var tm float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(context.Background(), sim.NewCluster(sim.AtomNode(8)), sim.JobSpec{
					Name: "sort", Spec: w.Spec(), DataPerNode: 10 * units.GB,
					BlockSize: 256 * units.MB, Frequency: 1.8 * units.GHz,
					NonLocalFraction: nl,
				})
				if err != nil {
					b.Fatal(err)
				}
				tm = float64(r.Total.Time)
			}
			b.ReportMetric(tm, "sim-seconds")
		})
	}
}

func BenchmarkExtDSE(b *testing.B)          { benchArtefact(b, "ext-dse") }
func BenchmarkExtPhaseSplit(b *testing.B)   { benchArtefact(b, "ext-phasesplit") }
func BenchmarkExtPerPhaseDVFS(b *testing.B) { benchArtefact(b, "ext-dvfs") }

func BenchmarkExtPowerBreakdown(b *testing.B) { benchArtefact(b, "ext-power") }

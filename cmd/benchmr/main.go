// Command benchmr benchmarks the MapReduce engine's executor directly —
// no `go test` harness — and records the results as JSON, so CI can track
// the serial-vs-parallel trajectory across commits. Each workload is run
// twice over the same input: "serial" (one task slot) and "parallel" (one
// slot per CPU); output is byte-identical between the two, so the pair
// isolates the parallelism.
// Alongside wall time, every row records the run's heap-allocation profile
// (allocs/op and bytes/op, `go test -benchmem` style), so the flat-arena
// record path's GC pressure is tracked with the same trajectory machinery.
//
// With -cores the measurement repeats at each listed GOMAXPROCS value,
// producing one (workload, mode, gomaxprocs) row per point — the scaling
// matrix behind the committed baseline. Because a GOMAXPROCS=1-only
// trajectory once got committed as the baseline (its "parallel" rows
// measured pure overhead, no parallelism), benchmr refuses to write the
// JSON unless at least one row was measured at GOMAXPROCS > 1 or the
// explicit -allow-serial flag is passed.
//
// Usage:
//
//	benchmr                               # 64 MB wordcount+terasort -> BENCH_mapreduce.json
//	benchmr -workloads wordcount -size 8388608 -out /tmp/bench.json
//	benchmr -cores 1,2,4,8                # full scaling matrix
//	benchmr -baseline BENCH_mapreduce.json -out /tmp/bench.json   # benchstat-style delta
//
// With -minspeedup N the command exits non-zero when a parallel row
// measured at GOMAXPROCS >= 4 has a speedup below N — the trajectory gate.
// The gate only arms on machines with at least 4 CPUs; on smaller machines
// there is no parallelism to measure and the run is recorded but not
// judged.
//
// With -maxallocfactor F the command exits non-zero when a row's allocs/op
// exceeds its baseline row's allocs/op by more than the factor F — the
// allocation-regression gate. Unlike wall time, allocation counts are
// machine-independent, so this gate arms whenever the baseline carries
// allocation data (rows match on gomaxprocs, falling back to the baseline's
// GOMAXPROCS=1 row so old single-point baselines still gate).
//
// With -memlimit N benchmr switches to the bounded-memory parity mode: per
// workload it streams the input to a disk file (never resident whole), runs
// an unbounded in-memory reference, then re-runs with the out-of-core
// shuffle (Config.SpillDir + SpillMemory) under a debug.SetMemoryLimit of N
// bytes — serial and parallel — and fails unless the bounded runs actually
// spilled, produced byte-identical output (sha256 over the materialized
// stream), and removed every spill file afterwards, including on a probe run
// cancelled mid-spill. Rows are named "<workload>/inmem-ref|ooc-serial|
// ooc-parallel" and carry the spill counters and the memory limit. Every
// row in every mode records peak_heap_bytes, sampled at 5 ms, so the
// bounded runs' residency claim is in the trajectory, not just asserted.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/obs/energy"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// Row is one benchmark measurement, one mode of one workload at one
// GOMAXPROCS point.
type Row struct {
	Name        string  `json:"name"` // "<workload>/serial" or "<workload>/parallel"
	InputBytes  int64   `json:"input_bytes"`
	NsPerOp     int64   `json:"ns_per_op"`
	Speedup     float64 `json:"speedup"` // serial time / this mode's time, at the same GOMAXPROCS
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	// PeakHeapBytes is the largest live-heap size (MemStats.HeapAlloc)
	// sampled during the winning run — the residency a memory ceiling
	// actually constrains, where bytes_per_op is cumulative churn.
	PeakHeapBytes int64 `json:"peak_heap_bytes,omitempty"`
	GoMaxProcs    int   `json:"gomaxprocs"`
	// NumCPU is the machine's CPU count at measurement time. The -minspeedup
	// and -maxallocfactor gates refuse to arm against a baseline recorded on
	// a machine with a different count: such a comparison would gate this
	// machine on another machine's scaling behaviour.
	NumCPU int `json:"num_cpu,omitempty"`
	// GoVersion and OSArch pin the toolchain and platform the row was
	// measured on. Like NumCPU they feed the gate-arming check: a baseline
	// recorded by a different Go release or on a different platform is a
	// compiler comparison, not a regression signal. Old baselines without
	// the fields keep gating (same grandfathering as num_cpu).
	GoVersion string `json:"go_version,omitempty"`
	OSArch    string `json:"os_arch,omitempty"`
	// EstJoules and EDP are the run's estimated energy cost under the
	// -power-profile core-class model (best run's phase events mapped
	// through internal/obs/energy): the trajectory the paper's big-vs-
	// little comparison is judged on. Absent when -power-profile is "".
	EstJoules float64 `json:"est_joules,omitempty"`
	EDP       float64 `json:"edp,omitempty"`

	// Bounded-memory mode (-memlimit) extras, absent on ordinary rows.
	MemLimitBytes         int64 `json:"mem_limit_bytes,omitempty"`
	Spills                int64 `json:"spills,omitempty"`
	SpillFilesWritten     int64 `json:"spill_files_written,omitempty"`
	SpillFileBytesWritten int64 `json:"spill_file_bytes_written,omitempty"`
}

func main() {
	var (
		size           = flag.Int64("size", int64(64*units.MB), "input size per workload in bytes")
		names          = flag.String("workloads", "wordcount,terasort", "comma-separated workload names")
		reducers       = flag.Int("reducers", 4, "reduce-partition count")
		runs           = flag.Int("runs", 1, "runs per mode; best time wins")
		cores          = flag.String("cores", "", "comma-separated GOMAXPROCS values to measure at (default: current GOMAXPROCS only)")
		out            = flag.String("out", "BENCH_mapreduce.json", "output JSON path")
		baseline       = flag.String("baseline", "", "baseline JSON to print a benchstat-style delta against")
		minSpeedup     = flag.Float64("minspeedup", 0, "fail if a parallel row at GOMAXPROCS >= 4 has a speedup below this (armed only with >= 4 CPUs)")
		maxAllocFactor = flag.Float64("maxallocfactor", 0, "fail if any row's allocs/op exceeds its baseline row's by this factor")
		allowSerial    = flag.Bool("allow-serial", false, "permit recording a trajectory with no GOMAXPROCS > 1 rows")
		traceOut       = flag.String("trace", "", "stream a JSONL phase trace of every measured run to this file (analyse with cmd/tracer)")
		memLimit       = flag.Int64("memlimit", 0, "bounded-memory parity mode: run each workload out-of-core under this GOMEMLIMIT (bytes) and verify parity with an unbounded reference")
		spillDir       = flag.String("spill-dir", "", "directory for the bounded-memory mode's input and spill files (default: a fresh temp dir)")
		powerArg       = flag.String("power-profile", "big", "core-class power profile for est_joules/edp (big, little, or a JSON profile file; empty disables energy estimation)")
	)
	flag.Parse()

	// The energy meter rides along on every measured run: phase events map
	// through the selected power model into est_joules and edp per row.
	// Metering is a float accumulate per phase event — far below the noise
	// floor of the wall and allocation measurements it annotates.
	var prof *energy.Profile
	if *powerArg != "" {
		p, err := energy.Select(*powerArg)
		if err != nil {
			fatal(err)
		}
		prof = p
	}

	if *memLimit > 0 {
		rows, err := memLimitBench(*names, *size, *reducers, *memLimit, *spillDir, prof)
		if err != nil {
			fatal(err)
		}
		stampToolchain(rows)
		for _, r := range rows {
			fmt.Printf("%-24s %12s/op  %6.2fx  peak heap %8s  %6d spill files  %10s spilled\n",
				r.Name, time.Duration(r.NsPerOp).Round(time.Millisecond), r.Speedup,
				units.Bytes(r.PeakHeapBytes), r.SpillFilesWritten, units.Bytes(r.SpillFileBytesWritten))
		}
		buf, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		return
	}

	coreList, err := parseCores(*cores)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchmr: %d CPUs available, measuring at GOMAXPROCS %v\n", runtime.NumCPU(), coreList)

	// With -trace, every measured run streams phase events; jobs are named
	// "<workload>/<mode>" so cmd/tracer groups each mode as its own run.
	// Tracing perturbs timings a little, so gated CI measurements and trace
	// captures are separate invocations. The selected core class is stamped
	// on every traced event, so the trace is self-describing for
	// `tracer -energy` without a -default-class hint.
	ob := obs.Observer(nil)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tw := obs.NewTraceWriter(f)
		defer tw.Close()
		ob = tw
		if prof != nil {
			ob = energy.Classify(ob, prof.Class)
		}
	}

	restoreProcs := runtime.GOMAXPROCS(0)
	var rows []Row
	for _, name := range strings.Split(*names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w, err := workloads.ByName(name)
		if err != nil {
			fatal(err)
		}
		// One generated input per workload, shared across every core point,
		// so the matrix varies exactly one thing: the scheduler width.
		input := w.Generate(units.Bytes(*size), 42)
		for _, n := range coreList {
			runtime.GOMAXPROCS(n)
			wr, err := benchWorkload(w, input, *reducers, *runs, ob, prof)
			if err != nil {
				runtime.GOMAXPROCS(restoreProcs)
				fatal(err)
			}
			rows = append(rows, wr...)
		}
	}
	runtime.GOMAXPROCS(restoreProcs)
	stampToolchain(rows)

	for _, r := range rows {
		fmt.Printf("%-24s %12s/op  %6.2fx  %12d allocs/op  %12d B/op  (GOMAXPROCS=%d)\n",
			r.Name, time.Duration(r.NsPerOp).Round(time.Millisecond), r.Speedup,
			r.AllocsPerOp, r.BytesPerOp, r.GoMaxProcs)
	}
	base := loadBaseline(*baseline)
	if base != nil {
		printDelta(base, rows)
	}
	gatesArmed := true
	if cpus, ok := baselineNumCPU(base); ok && cpus != runtime.NumCPU() {
		gatesArmed = false
		fmt.Printf("gates disarmed: baseline recorded on %d CPUs, this machine has %d — speedup and allocation comparisons would not be like-for-like\n",
			cpus, runtime.NumCPU())
	}
	if gover, osarch, ok := baselineToolchain(base); ok {
		if gover != runtime.Version() {
			gatesArmed = false
			fmt.Printf("gates disarmed: baseline recorded with %s, this build is %s — deltas would measure the compiler, not the code\n",
				gover, runtime.Version())
		} else if cur := runtime.GOOS + "/" + runtime.GOARCH; osarch != cur {
			gatesArmed = false
			fmt.Printf("gates disarmed: baseline recorded on %s, this machine is %s — cross-platform timings are not comparable\n",
				osarch, cur)
		}
	}

	if len(rows) > 0 && !*allowSerial {
		multi := false
		for _, r := range rows {
			if r.GoMaxProcs > 1 {
				multi = true
				break
			}
		}
		if !multi {
			fatal(fmt.Errorf("benchmr: refusing to record a GOMAXPROCS=1-only trajectory to %s: its parallel rows measure overhead, not speedup; pass -cores with a value > 1 or -allow-serial to record anyway", *out))
		}
	}

	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}

	if *minSpeedup > 0 && gatesArmed {
		if cpus := runtime.NumCPU(); cpus < 4 {
			fmt.Printf("speedup gate skipped: %d CPUs < 4\n", cpus)
		} else {
			armed := false
			for _, r := range rows {
				if !strings.HasSuffix(r.Name, "/parallel") || r.GoMaxProcs < 4 {
					continue
				}
				armed = true
				if r.Speedup < *minSpeedup {
					fatal(fmt.Errorf("benchmr: %s speedup %.2fx at GOMAXPROCS=%d below gate %.2fx",
						r.Name, r.Speedup, r.GoMaxProcs, *minSpeedup))
				}
			}
			if !armed {
				fmt.Println("speedup gate skipped: no parallel rows measured at GOMAXPROCS >= 4")
			}
		}
	}
	if *maxAllocFactor > 0 && gatesArmed {
		if base == nil {
			fmt.Println("allocation gate skipped: no readable baseline")
			return
		}
		for _, r := range rows {
			o, ok := base[rowKey{r.Name, r.InputBytes, r.GoMaxProcs}]
			if !ok {
				// Allocation counts are core-count-independent; an old
				// single-point baseline still gates every matrix row.
				o, ok = base[rowKey{r.Name, r.InputBytes, 1}]
			}
			if !ok || o.AllocsPerOp <= 0 {
				continue // baseline predates allocation recording for this row
			}
			if limit := int64(float64(o.AllocsPerOp) * *maxAllocFactor); r.AllocsPerOp > limit {
				fatal(fmt.Errorf("benchmr: %s allocates %d/op, above gate %d/op (baseline %d x factor %.2f)",
					r.Name, r.AllocsPerOp, limit, o.AllocsPerOp, *maxAllocFactor))
			}
		}
	}
}

// parseCores parses the -cores flag into an ordered GOMAXPROCS list. An
// empty flag means a single point at the current GOMAXPROCS.
func parseCores(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{runtime.GOMAXPROCS(0)}, nil
	}
	var list []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("benchmr: bad -cores value %q: want positive integers", f)
		}
		list = append(list, n)
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("benchmr: -cores lists no values")
	}
	return list, nil
}

// measurement is one timed run's cost: wall time plus the heap allocation
// profile observed across the run, and — when a power profile is selected
// — the estimated joules its phase events map to.
type measurement struct {
	elapsed  time.Duration
	allocs   int64
	bytes    int64
	peakHeap int64
	joules   float64
}

// edp is the energy-delay product the paper ranks configurations by:
// joules times wall seconds. Zero when energy estimation is off.
func (m measurement) edp() float64 {
	return m.joules * m.elapsed.Seconds()
}

// meterObserver tees an energy meter in front of an optional trace
// observer; with neither it returns nil and runs stay unobserved.
func meterObserver(meter *energy.Meter, ob obs.Observer) obs.Observer {
	switch {
	case meter == nil:
		return ob
	case ob == nil:
		return meter
	default:
		return obs.Tee(meter, ob)
	}
}

// heapSampler tracks the largest live heap (MemStats.HeapAlloc) seen while
// it runs, sampling every 5 ms. ReadMemStats briefly stops the world, so
// the cadence is coarse enough not to distort the timed run it watches.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if h := int64(ms.HeapAlloc); h > s.peak {
				s.peak = h
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak live-heap size observed.
func (s *heapSampler) Stop() int64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// benchWorkload measures one workload serial and parallel over the given
// input at the current GOMAXPROCS. A non-nil observer receives the phase
// trace of every run, with the job named "<workload>/<mode>"; a non-nil
// profile meters each run's estimated energy.
func benchWorkload(w workloads.Workload, input []byte, reducers, runs int, ob obs.Observer, prof *energy.Profile) ([]Row, error) {
	size := units.Bytes(len(input))
	// Enough splits that every slot has work for several waves.
	block := size / 16
	if block < 4*units.KB {
		block = 4 * units.KB
	}
	var meter *energy.Meter
	if prof != nil {
		meter = energy.NewMeter(prof)
	}
	runOb := meterObserver(meter, ob)
	run := func(mode string, parallelism int) (measurement, error) {
		var best measurement
		for i := 0; i < runs; i++ {
			store, err := hdfs.NewStore(hdfs.Config{BlockSize: block, Replication: 1})
			if err != nil {
				return measurement{}, err
			}
			if _, err := store.Write("in", input); err != nil {
				return measurement{}, err
			}
			cfg := mapreduce.DefaultConfig(w.Name() + "/" + mode)
			cfg.NumReducers = reducers
			cfg.Parallelism = parallelism
			job, err := w.Build(cfg, input)
			if err != nil {
				return measurement{}, err
			}
			ctx := context.Background()
			if runOb != nil {
				ctx = obs.NewContext(ctx, runOb)
			}
			if meter != nil {
				meter.Reset()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sampler := startHeapSampler()
			start := time.Now()
			if _, err := mapreduce.NewEngine(store).RunContext(ctx, job, "in"); err != nil {
				sampler.Stop()
				return measurement{}, err
			}
			elapsed := time.Since(start)
			peak := sampler.Stop()
			runtime.ReadMemStats(&after)
			if best.elapsed == 0 || elapsed < best.elapsed {
				best = measurement{
					elapsed:  elapsed,
					allocs:   int64(after.Mallocs - before.Mallocs),
					bytes:    int64(after.TotalAlloc - before.TotalAlloc),
					peakHeap: peak,
				}
				if meter != nil {
					best.joules = meter.Joules()
				}
			}
		}
		return best, nil
	}
	serial, err := run("serial", 1)
	if err != nil {
		return nil, fmt.Errorf("%s serial: %w", w.Name(), err)
	}
	parallel, err := run("parallel", 0)
	if err != nil {
		return nil, fmt.Errorf("%s parallel: %w", w.Name(), err)
	}
	procs := runtime.GOMAXPROCS(0)
	return []Row{
		{Name: w.Name() + "/serial", InputBytes: int64(len(input)), NsPerOp: serial.elapsed.Nanoseconds(),
			Speedup: 1, AllocsPerOp: serial.allocs, BytesPerOp: serial.bytes,
			PeakHeapBytes: serial.peakHeap, GoMaxProcs: procs, NumCPU: runtime.NumCPU(),
			EstJoules: serial.joules, EDP: serial.edp()},
		{Name: w.Name() + "/parallel", InputBytes: int64(len(input)), NsPerOp: parallel.elapsed.Nanoseconds(),
			Speedup:     float64(serial.elapsed) / float64(parallel.elapsed),
			AllocsPerOp: parallel.allocs, BytesPerOp: parallel.bytes,
			PeakHeapBytes: parallel.peakHeap, GoMaxProcs: procs, NumCPU: runtime.NumCPU(),
			EstJoules: parallel.joules, EDP: parallel.edp()},
	}, nil
}

// spillCancelProbe is the observer behind the cancellation-cleanup probe:
// it cancels its context the first time any task reports a spill-write
// phase, catching the engine with spill files freshly on disk.
type spillCancelProbe struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (*spillCancelProbe) Enabled() bool                           { return true }
func (*spillCancelProbe) SpanStart(string, []obs.Attr) obs.SpanID { return 0 }
func (*spillCancelProbe) SpanEnd(obs.SpanID)                      {}
func (*spillCancelProbe) Count(string, int64)                     {}
func (*spillCancelProbe) Gauge(string, float64)                   {}
func (*spillCancelProbe) Progress(string, int, int)               {}

func (p *spillCancelProbe) TaskPhase(ev obs.PhaseEvent) {
	if ev.Phase == obs.PhaseSpillWrite {
		p.once.Do(p.cancel)
	}
}

// memLimitBench is the bounded-memory parity mode. Per workload it streams
// the input to disk, measures an unbounded in-memory reference, then the
// out-of-core path — serial and parallel — under debug.SetMemoryLimit, and
// verifies the out-of-core contract: the bounded runs spilled, their
// materialized output hashes match the reference byte for byte, and every
// spill file is gone afterwards, including when a run is cancelled in the
// middle of its first spill.
func memLimitBench(names string, size int64, reducers int, limit int64, spillRoot string, prof *energy.Profile) ([]Row, error) {
	if spillRoot != "" {
		if err := os.MkdirAll(spillRoot, 0o755); err != nil {
			return nil, err
		}
	}
	work, err := os.MkdirTemp(spillRoot, "benchmr-ooc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var rows []Row
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		wr, err := memLimitWorkload(w, work, size, reducers, limit, prof)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, wr...)
	}
	return rows, nil
}

func memLimitWorkload(w workloads.Workload, work string, size int64, reducers int, limit int64, prof *energy.Profile) ([]Row, error) {
	inPath := filepath.Join(work, w.Name()+".input")
	f, err := os.Create(inPath)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	written, err := workloads.StreamTo(bw, w.Generate, units.Bytes(size), 42, 16*units.MB)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	defer os.Remove(inPath)

	// Workloads whose Build samples the input (terasort's range cuts,
	// fpgrowth's f-list) see a record-aligned prefix; reference and bounded
	// runs share the job built from it, so the sample never breaks parity.
	sample, err := samplePrefix(inPath, 4*int64(units.MB))
	if err != nil {
		return nil, err
	}

	const block = 64 * units.MB
	sortBuf := units.Bytes(limit / 8)
	if sortBuf < 4*units.MB {
		sortBuf = 4 * units.MB
	}
	spillDir := filepath.Join(work, w.Name()+".spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}

	var meter *energy.Meter
	if prof != nil {
		meter = energy.NewMeter(prof)
	}
	// joules reads and clears the meter after a run; the run helper below
	// is called strictly sequentially, so caller-side capture is safe.
	joules := func() float64 {
		if meter == nil {
			return 0
		}
		j := meter.Joules()
		meter.Reset()
		return j
	}
	run := func(ctx context.Context, mode string, bounded bool, parallelism int, ob obs.Observer) (*mapreduce.Result, time.Duration, int64, error) {
		ob = meterObserver(meter, ob)
		cfg := mapreduce.DefaultConfig(w.Name() + "/" + mode)
		cfg.NumReducers = reducers
		cfg.Parallelism = parallelism
		// Every mode sorts with the same buffer, so the ooc rows' delta
		// against the reference isolates the spill machinery, not a sort
		// configuration difference.
		cfg.SortBuffer = sortBuf
		if bounded {
			cfg.SpillDir = spillDir
			cfg.SpillMemory = sortBuf
			debug.SetMemoryLimit(limit)
			defer debug.SetMemoryLimit(math.MaxInt64)
		}
		job, err := w.Build(cfg, sample)
		if err != nil {
			return nil, 0, 0, err
		}
		if ob != nil {
			ctx = obs.NewContext(ctx, ob)
		}
		sampler := startHeapSampler()
		start := time.Now()
		res, err := mapreduce.NewEngine(nil).RunFileContext(ctx, job, inPath, block)
		elapsed := time.Since(start)
		peak := sampler.Stop()
		return res, elapsed, peak, err
	}
	// outputSum hashes the materialized output without holding it resident,
	// then releases the result's memory and spill tree.
	outputSum := func(res *mapreduce.Result) ([32]byte, error) {
		h := sha256.New()
		err := res.MaterializeOutputTo(h)
		if cerr := res.Close(); err == nil {
			err = cerr
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		return sum, err
	}
	assertSpillDirEmpty := func(when string) error {
		ents, err := os.ReadDir(spillDir)
		if err != nil {
			return err
		}
		if len(ents) != 0 {
			return fmt.Errorf("%s: %d entries left in spill dir %s (first: %s)", when, len(ents), spillDir, ents[0].Name())
		}
		return nil
	}

	refRes, refTime, refPeak, err := run(context.Background(), "inmem-ref", false, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	refJoules := joules()
	refSum, err := outputSum(refRes)
	if err != nil {
		return nil, fmt.Errorf("reference output: %w", err)
	}
	rows := []Row{{
		Name: w.Name() + "/inmem-ref", InputBytes: written, NsPerOp: refTime.Nanoseconds(),
		Speedup: 1, PeakHeapBytes: refPeak, GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:    runtime.NumCPU(),
		EstJoules: refJoules, EDP: refJoules * refTime.Seconds(),
	}}

	for _, m := range []struct {
		mode        string
		parallelism int
	}{
		{"ooc-serial", 1},
		{"ooc-parallel", 0},
	} {
		res, elapsed, peak, err := run(context.Background(), m.mode, true, m.parallelism, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.mode, err)
		}
		oocJoules := joules()
		c := res.Counters
		if !res.OutOfCore() || c.Spills == 0 || c.SpillFilesWritten == 0 {
			res.Close()
			return nil, fmt.Errorf("%s: never went out of core under a %s limit (spills=%d, spill files=%d) — the ceiling asserts nothing", m.mode, units.Bytes(limit), c.Spills, c.SpillFilesWritten)
		}
		sum, err := outputSum(res)
		if err != nil {
			return nil, fmt.Errorf("%s output: %w", m.mode, err)
		}
		if sum != refSum {
			return nil, fmt.Errorf("%s: output diverges from the in-memory reference (sha256 %x != %x)", m.mode, sum, refSum)
		}
		if err := assertSpillDirEmpty(m.mode + " after Close"); err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Name: w.Name() + "/" + m.mode, InputBytes: written, NsPerOp: elapsed.Nanoseconds(),
			Speedup: float64(refTime) / float64(elapsed), PeakHeapBytes: peak,
			GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), MemLimitBytes: limit,
			Spills:            int64(c.Spills),
			SpillFilesWritten: int64(c.SpillFilesWritten), SpillFileBytesWritten: int64(c.SpillFileBytesWritten),
			EstJoules: oocJoules, EDP: oocJoules * elapsed.Seconds(),
		})
	}

	// Cancellation probe: cancel the context the moment the first spill file
	// lands on disk; the engine must still leave the spill dir empty.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := &spillCancelProbe{cancel: cancel}
	if res, _, _, err := run(ctx, "ooc-cancel", true, 0, probe); err == nil {
		res.Close()
		return nil, fmt.Errorf("cancellation probe: run survived a context cancelled mid-spill")
	} else if ctx.Err() == nil {
		return nil, fmt.Errorf("cancellation probe: run failed before the probe fired: %w", err)
	}
	if err := assertSpillDirEmpty("after cancellation"); err != nil {
		return nil, err
	}
	return rows, nil
}

// samplePrefix reads up to max bytes from the head of path, trimmed to the
// last whole record, for Build implementations that sample their input.
func samplePrefix(path string, max int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, max)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	buf = buf[:n]
	if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
		buf = buf[:i+1]
	}
	return buf, nil
}

// rowKey matches measurement rows across runs by name, input size and
// GOMAXPROCS point.
type rowKey struct {
	name  string
	size  int64
	procs int
}

// stampToolchain records the Go release and platform on every row, so a
// future gate run can tell whether this trajectory is like-for-like.
func stampToolchain(rows []Row) {
	osarch := runtime.GOOS + "/" + runtime.GOARCH
	for i := range rows {
		rows[i].GoVersion = runtime.Version()
		rows[i].OSArch = osarch
	}
}

// baselineToolchain returns the Go release and platform a baseline was
// recorded with. Old baselines predate the fields and report ok=false:
// they keep arming gates, the same grandfathering as baselineNumCPU.
func baselineToolchain(base map[rowKey]Row) (gover, osarch string, ok bool) {
	for _, r := range base {
		if r.GoVersion != "" {
			gover, osarch = r.GoVersion, r.OSArch
			return gover, osarch, true
		}
	}
	return "", "", false
}

// baselineNumCPU returns the CPU count a baseline was recorded on. Old
// baselines predate the num_cpu field and report ok=false: they keep
// arming gates, since refusing them would silently retire every existing
// trajectory gate the moment this field shipped.
func baselineNumCPU(base map[rowKey]Row) (cpus int, ok bool) {
	for _, r := range base {
		if r.NumCPU > cpus {
			cpus = r.NumCPU
		}
	}
	return cpus, cpus != 0
}

// loadBaseline reads a prior JSON record into a lookup map; a missing or
// unreadable baseline is reported and returns nil (delta and gates skip).
func loadBaseline(path string) map[rowKey]Row {
	if path == "" {
		return nil
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("no baseline (%v); skipping delta\n", err)
		return nil
	}
	var base []Row
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Printf("unreadable baseline %s (%v); skipping delta\n", path, err)
		return nil
	}
	old := make(map[rowKey]Row, len(base))
	for _, r := range base {
		old[rowKey{r.Name, r.InputBytes, r.GoMaxProcs}] = r
	}
	return old
}

// printDelta prints a benchstat-style old/new comparison against a prior
// JSON record. Rows are matched by name, input size and GOMAXPROCS;
// unmatched rows on either side are reported, not silently dropped.
func printDelta(old map[rowKey]Row, rows []Row) {
	unmatched := make(map[rowKey]bool, len(old))
	for k := range old {
		unmatched[k] = true
	}
	fmt.Printf("\n%-24s %6s %14s %14s %8s %14s %14s %8s\n",
		"name", "procs", "old/op", "new/op", "delta", "old-allocs", "new-allocs", "delta")
	for _, r := range rows {
		k := rowKey{r.Name, r.InputBytes, r.GoMaxProcs}
		o, ok := old[k]
		if !ok {
			fmt.Printf("%-24s %6d %14s %14s %8s %14s %14d %8s\n", r.Name, r.GoMaxProcs, "-",
				time.Duration(r.NsPerOp).Round(time.Millisecond).String(), "new", "-", r.AllocsPerOp, "new")
			continue
		}
		allocDelta := "-"
		if o.AllocsPerOp > 0 {
			allocDelta = fmt.Sprintf("%+.1f%%", 100*(float64(r.AllocsPerOp)-float64(o.AllocsPerOp))/float64(o.AllocsPerOp))
		}
		delta := 100 * (float64(r.NsPerOp) - float64(o.NsPerOp)) / float64(o.NsPerOp)
		fmt.Printf("%-24s %6d %14s %14s %+7.1f%% %14d %14d %8s\n", r.Name, r.GoMaxProcs,
			time.Duration(o.NsPerOp).Round(time.Millisecond).String(),
			time.Duration(r.NsPerOp).Round(time.Millisecond).String(), delta,
			o.AllocsPerOp, r.AllocsPerOp, allocDelta)
		delete(unmatched, k)
	}
	for k := range unmatched {
		fmt.Printf("%-24s (baseline row at gomaxprocs=%d not measured in this run)\n", k.name, k.procs)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

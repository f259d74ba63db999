package main

// layers.go is the --trace 1 run: the per-layer numbers. They come from two
// sources, both outside the program under test.
//
// (a) A staged serial pass in which the benchmark drives each layer's entry
// points itself — build, block reads, split, one map task per split, wire or
// segment-file transport, one reduce task per partition, materialise — with
// one span around every call. Its output must match the reference like any
// other run.
//
// (b) Ordinary runs with a benchmark-owned observer attached through the
// existing obs.NewContext / dist.WithObserver hooks: the same phase events
// cmd/tracer reads, the master's and workers' counters and spans.
//
// The end-to-end numbers never come from here: they are measured with no
// observer. This run repeats a short observer-off pass only as the base of
// the ratios it reports.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"heterohadoop/internal/dist"
	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/obs/energy"
	"heterohadoop/internal/obs/timeline"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// span is one timed call into a layer, as written to layers.jsonl. Spans of
// one pass share Run; Parent is the ID of the span that caused this one (0
// for a pass's root).
type span struct {
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	Records int64  `json:"records,omitempty"`
}

// recorder keeps spans in memory until the run ends. The staged pass is
// serial, so it needs no lock.
type recorder struct {
	origin time.Time
	spans  []span
}

// begin opens a span of the given pass and returns its index in r.spans.
func (r *recorder) begin(run string, parent int, name string) int {
	r.spans = append(r.spans, span{
		Run: run, ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartNS: time.Since(r.origin).Nanoseconds(),
	})
	return len(r.spans) - 1
}

// end closes the span at index i.
func (r *recorder) end(i int) {
	r.spans[i].DurNS = time.Since(r.origin).Nanoseconds() - r.spans[i].StartNS
}

// time runs fn as a span and returns the span's index, so the caller can
// attach counts once fn has produced them.
func (r *recorder) time(run string, parent int, name string, fn func() error) (int, error) {
	i := r.begin(run, parent, name)
	err := fn()
	r.end(i)
	return i, err
}

// seconds sums the durations of a pass's spans of one name.
func (r *recorder) seconds(run, name string) float64 {
	var ns int64
	for _, s := range r.spans {
		if s.Run == run && s.Name == name {
			ns += s.DurNS
		}
	}
	return float64(ns) / 1e9
}

func (r *recorder) maxSeconds(run, name string) float64 {
	var ns int64
	for _, s := range r.spans {
		if s.Run == run && s.Name == name && s.DurNS > ns {
			ns = s.DurNS
		}
	}
	return float64(ns) / 1e9
}

func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// stagedTotals are the counts the staged pass takes at the layer boundaries.
type stagedTotals struct {
	readBytes      int64
	mapOutBytes    int64
	mapOutRecords  int64
	reduceRecords  int64
	wireBytes      int64
	segRawBytes    int64
	segStoredBytes int64
	partitionSkew  float64
}

// staged drives the workload's job layer by layer, serially, and verifies
// the output. Every call into a layer is one span under the pass's root.
func (in *instance) staged(rec *recorder, run string) (stagedTotals, error) {
	var tot stagedTotals
	s := in.spec
	root := rec.begin(run, 0, "staged")
	defer rec.end(root)
	rootID := rec.spans[root].ID

	// Build: the job exactly as the runtime under test would build it.
	var job mapreduce.Job
	_, err := rec.time(run, rootID, "workloads.build", func() error {
		var err error
		if s.kind == onCluster {
			desc := dist.JobDescriptor{Workload: s.job, NumReducers: s.reducers}
			if err = dist.PrepareAux(&desc, in.input); err == nil {
				job, err = dist.NewRegistry().Build(desc)
			}
			return err
		}
		if s.kind == onEngineOOC {
			job = in.job // cuts sampled from the head of the file at set-up
			return nil
		}
		w, err := workloads.ByName(s.job)
		if err != nil {
			return err
		}
		cfg := in.job.Config
		job, err = w.Build(cfg, in.input)
		return err
	})
	if err != nil {
		return tot, err
	}

	// Read and split.
	var chunks [][]byte
	switch s.kind {
	case onEngine:
		store, err := hdfs.NewStore(hdfs.Config{BlockSize: units.Bytes(s.blockBytes), Replication: 1})
		if err != nil {
			return tot, err
		}
		var file *hdfs.File
		i, err := rec.time(run, rootID, "hdfs.write", func() error {
			var err error
			file, err = store.Write("input", in.input)
			return err
		})
		if err != nil {
			return tot, err
		}
		rec.spans[i].Bytes = int64(len(in.input))
		data := make([]byte, 0, len(in.input))
		for b := 0; b < file.NumBlocks(); b++ {
			var block []byte
			i, err := rec.time(run, rootID, "hdfs.read_block", func() error {
				var err error
				block, err = store.ReadBlock("input", b)
				return err
			})
			if err != nil {
				return tot, err
			}
			rec.spans[i].Bytes = int64(len(block))
			tot.readBytes += int64(len(block))
			data = append(data, block...)
		}
		rec.time(run, rootID, "mapreduce.split", func() error {
			chunks = mapreduce.SplitInput(data, s.blockBytes)
			return nil
		})
	case onCluster:
		rec.time(run, rootID, "mapreduce.split", func() error {
			chunks = mapreduce.SplitInput(in.input, s.blockBytes)
			return nil
		})
	}

	// Map, then carry each task's output the way the runtime would: resident
	// for the engine, wire-encoded for the cluster, a segment file when
	// spilling. parts[p] collects partition p's runs in map-task order.
	parts := make([][]mapreduce.Segment, s.reducers)
	var counters mapreduce.Counters
	var segFiles []*mapreduce.SegmentFile
	defer func() {
		for _, sf := range segFiles {
			sf.Remove()
		}
	}()
	mapOne := func(task int, chunk []byte) error {
		var segs []mapreduce.Segment
		i, err := rec.time(run, rootID, "mapreduce.map_task", func() error {
			var c mapreduce.Counters
			var err error
			segs, c, err = mapreduce.ExecuteMapSplit(job, chunk, s.reducers)
			counters.Add(c)
			return err
		})
		if err != nil {
			return err
		}
		for _, sg := range segs {
			rec.spans[i].Bytes += int64(sg.Bytes())
			rec.spans[i].Records += int64(sg.Len())
		}
		tot.mapOutBytes += rec.spans[i].Bytes
		tot.mapOutRecords += rec.spans[i].Records
		mapID := rec.spans[i].ID

		switch s.kind {
		case onEngine:
			for p, sg := range segs {
				parts[p] = append(parts[p], sg)
			}
		case onCluster:
			for p, sg := range segs {
				var blob []byte
				i, _ := rec.time(run, mapID, "mapreduce.wire_encode", func() error {
					blob = mapreduce.EncodeSegment(sg)
					return nil
				})
				rec.spans[i].Bytes = int64(len(blob))
				tot.wireBytes += int64(len(blob))
				_, err := rec.time(run, mapID, "mapreduce.wire_decode", func() error {
					dec, err := mapreduce.DecodeSegment(blob)
					parts[p] = append(parts[p], dec)
					return err
				})
				if err != nil {
					return err
				}
			}
		case onEngineOOC:
			path := filepath.Join(in.dir, fmt.Sprintf("staged-map-%04d.seg", task))
			i, err := rec.time(run, mapID, "mapreduce.segfile_write", func() error {
				sf, err := mapreduce.WriteSegmentsFile(path, segs)
				if err == nil {
					segFiles = append(segFiles, sf)
				}
				return err
			})
			if err != nil {
				return err
			}
			stored := int64(segFiles[len(segFiles)-1].StoredBytes())
			rec.spans[i].Bytes = stored
			tot.segStoredBytes += stored
		}
		return nil
	}

	if s.kind == onEngineOOC {
		lf, err := hdfs.OpenLocal(in.path)
		if err != nil {
			return tot, err
		}
		defer lf.Close()
		var buf []byte
		for w := 0; w < lf.NumBlocks(units.Bytes(s.blockBytes)); w++ {
			start := int64(w) * int64(s.blockBytes)
			var win []byte
			i, err := rec.time(run, rootID, "hdfs.read_window", func() error {
				var err error
				win, err = lf.ReadWindow(start, start+int64(s.blockBytes), buf[:0])
				return err
			})
			if err != nil {
				return tot, err
			}
			buf = win
			rec.spans[i].Bytes = int64(len(win))
			tot.readBytes += int64(len(win))
			// LineRecordReader: a non-first split's first line belongs to
			// the split before it, whose window reads past its own end.
			chunk := win
			rec.time(run, rootID, "mapreduce.split", func() error {
				if w > 0 {
					chunk = win[indexAfterNewline(win):]
				}
				return nil
			})
			if err := mapOne(w, chunk); err != nil {
				return tot, err
			}
		}
	} else {
		for task, chunk := range chunks {
			if err := mapOne(task, chunk); err != nil {
				return tot, err
			}
		}
	}

	// Reduce one partition at a time and materialise it into the digest.
	var d digest
	var partBytes []float64
	for p := 0; p < s.reducers; p++ {
		if s.kind == onEngineOOC {
			for _, sf := range segFiles {
				sf := sf
				_, err := rec.time(run, rootID, "mapreduce.segfile_read", func() error {
					f, err := mapreduce.OpenSegmentFile(sf.Path())
					if err != nil {
						return err
					}
					for fr := 0; fr < f.Frames(p); fr++ {
						blob, err := f.ReadFrame(p, fr)
						if err != nil {
							return err
						}
						sg, err := mapreduce.DecodeSegment(blob)
						if err != nil {
							return err
						}
						tot.segRawBytes += int64(len(blob))
						parts[p] = append(parts[p], sg)
					}
					return nil
				})
				if err != nil {
					return tot, err
				}
			}
		}
		var in64 int64
		for _, sg := range parts[p] {
			in64 += int64(sg.Bytes())
		}
		partBytes = append(partBytes, float64(in64))

		var out mapreduce.Segment
		i, err := rec.time(run, rootID, "mapreduce.reduce_task", func() error {
			var c mapreduce.Counters
			var err error
			out, c, err = mapreduce.ExecuteReduceSeg(job, parts[p])
			counters.Add(c)
			return err
		})
		if err != nil {
			return tot, err
		}
		parts[p] = nil
		rec.spans[i].Bytes = in64
		rec.spans[i].Records = int64(out.Len())
		tot.reduceRecords += int64(out.Len())
		_, err = rec.time(run, rootID, "mapreduce.materialize", func() error {
			return mapreduce.NewResult([]mapreduce.Segment{out}, counters).MaterializeOutputTo(&d)
		})
		if err != nil {
			return tot, err
		}
	}
	if err := in.want.check(&d); err != nil {
		return tot, fmt.Errorf("staged pass: %w", err)
	}
	if mean := meanOf(partBytes); mean > 0 {
		tot.partitionSkew = quantile(partBytes, 1) / mean
	}
	return tot, nil
}

// indexAfterNewline is the offset just past the first newline of b, or
// len(b) when it has none.
func indexAfterNewline(b []byte) int {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return i + 1
	}
	return len(b)
}

// traceObserver is the benchmark's own in-memory observer: it keeps every
// phase event, sums counters, and times spans by name.
type traceObserver struct {
	profile *energy.Profile

	mu     sync.Mutex
	phases []obs.PhaseEvent
	// jobStarts marks where each in-process job's events begin in phases;
	// the engine stamps every job epoch 0, so only the caller can tell two
	// jobs apart. Cluster jobs carry their own epoch and need no marks.
	jobStarts []int
	counters  map[string]int64
	open      map[obs.SpanID]openSpan
	spanSecs  map[string][]float64
	nextID    obs.SpanID
	events    int64
	joules    float64
}

type openSpan struct {
	name  string
	start time.Time
}

func newTraceObserver() *traceObserver {
	return &traceObserver{
		profile:  energy.Big(),
		counters: make(map[string]int64),
		open:     make(map[obs.SpanID]openSpan),
		spanSecs: make(map[string][]float64),
	}
}

func (t *traceObserver) Enabled() bool { return true }

// reset forgets everything recorded so far; called once a cluster's warm-up
// jobs are through, so per-job averages cover measured jobs only.
func (t *traceObserver) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phases, t.jobStarts, t.events, t.joules = nil, nil, 0, 0
	t.counters = make(map[string]int64)
	t.spanSecs = make(map[string][]float64)
}

// beginJob marks the start of a serial in-process job.
func (t *traceObserver) beginJob() {
	t.mu.Lock()
	t.jobStarts = append(t.jobStarts, len(t.phases))
	t.mu.Unlock()
}

// jobs returns the recorded phase events one slice per job.
func (t *traceObserver) jobs() [][]obs.PhaseEvent {
	var out [][]obs.PhaseEvent
	if len(t.jobStarts) > 0 {
		for i, from := range t.jobStarts {
			to := len(t.phases)
			if i+1 < len(t.jobStarts) {
				to = t.jobStarts[i+1]
			}
			out = append(out, t.phases[from:to])
		}
		return out
	}
	byEpoch := map[uint64]int{}
	for _, ev := range t.phases {
		i, ok := byEpoch[ev.Task.Epoch]
		if !ok {
			i = len(out)
			byEpoch[ev.Task.Epoch] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], ev)
	}
	return out
}

func (t *traceObserver) SpanStart(name string, _ []obs.Attr) obs.SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.events++
	t.open[t.nextID] = openSpan{name: name, start: time.Now()}
	return t.nextID
}

func (t *traceObserver) SpanEnd(id obs.SpanID) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.open[id]; ok {
		delete(t.open, id)
		t.events++
		t.spanSecs[s.name] = append(t.spanSecs[s.name], now.Sub(s.start).Seconds())
	}
}

func (t *traceObserver) Count(name string, delta int64) {
	t.mu.Lock()
	t.counters[name] += delta
	t.events++
	t.mu.Unlock()
}

func (t *traceObserver) Gauge(string, float64) {
	t.mu.Lock()
	t.events++
	t.mu.Unlock()
}

func (t *traceObserver) Progress(string, int, int) {
	t.mu.Lock()
	t.events++
	t.mu.Unlock()
}

func (t *traceObserver) TaskPhase(ev obs.PhaseEvent) {
	j := t.profile.PhaseJoules(ev)
	t.mu.Lock()
	t.phases = append(t.phases, ev)
	t.joules += j
	t.events++
	t.mu.Unlock()
}

// phaseMetric maps each obs phase onto the per-layer metric that reports it.
// Spill file traffic counts as spill, output writing as reduce; the master's
// schedule events carry no worker time and are left out.
var phaseMetric = map[obs.Phase]string{
	obs.PhaseRead:       "mapreduce.phase.read_s",
	obs.PhaseMap:        "mapreduce.phase.map_s",
	obs.PhaseSort:       "mapreduce.phase.sort_s",
	obs.PhaseSpill:      "mapreduce.phase.spill_s",
	obs.PhaseSpillWrite: "mapreduce.phase.spill_s",
	obs.PhaseSpillRead:  "mapreduce.phase.spill_s",
	obs.PhaseMergeFetch: "mapreduce.phase.shuffle_s",
	obs.PhaseReduce:     "mapreduce.phase.reduce_s",
	obs.PhaseWrite:      "mapreduce.phase.reduce_s",
}

// criticalPathSeconds replays each job's phase events into a timeline run —
// the structure cmd/tracer builds from a trace file — and returns the median
// critical-path length.
func criticalPathSeconds(jobs [][]obs.PhaseEvent) float64 {
	type rowKey struct {
		kind   obs.TaskKind
		index  int
		worker string
	}
	var lengths []float64
	for _, phases := range jobs {
		run := &timeline.Run{}
		rows := map[rowKey]*timeline.Row{}
		for _, ev := range phases {
			if ev.Phase == obs.PhaseSchedule {
				continue
			}
			k := rowKey{ev.Task.Kind, ev.Task.Index, ev.Task.Worker}
			row := rows[k]
			if row == nil {
				row = &timeline.Row{Task: timeline.TaskID{
					Job: ev.Task.Job, Epoch: ev.Task.Epoch, Kind: ev.Task.Kind.String(),
					Index: ev.Task.Index, Worker: ev.Task.Worker,
				}}
				rows[k] = row
				run.Rows = append(run.Rows, row)
			}
			row.Intervals = append(row.Intervals, timeline.Interval{
				Phase: ev.Phase.String(), Start: ev.Start, End: ev.Start.Add(ev.Duration),
			})
		}
		var total time.Duration
		for _, step := range run.CriticalPath() {
			total += step.Interval.Duration()
		}
		lengths = append(lengths, total.Seconds())
	}
	return median(lengths)
}

// memDelta is what one job allocated, from runtime.MemStats.
type memDelta struct {
	allocMB  float64
	allocs   float64
	gcCycles float64
}

// probeMemory runs op twice alone and reports the second job's MemStats
// deltas; ReadMemStats stops the world, so it stays out of timed passes.
func probeMemory(deadline time.Duration, op opFunc) (memDelta, error) {
	var d memDelta
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := withDeadline(deadline, 0, op); err != nil {
			return d, err
		}
		runtime.ReadMemStats(&after)
		d = memDelta{
			allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / mb,
			allocs:   float64(after.Mallocs - before.Mallocs),
			gcCycles: float64(after.NumGC - before.NumGC),
		}
	}
	return d, nil
}

// share splits the run's seconds among its passes.
func share(opt options, fraction float64) time.Duration {
	return time.Duration(opt.seconds * fraction * float64(time.Second))
}

// runLayers is the --trace 1 run. It reports every per-layer metric; the
// ones a workload's runtime has no part in read 0.
func runLayers(s spec, opt options) (report, error) {
	m := make(map[string]float64)
	rec := &recorder{origin: time.Now()}
	attempted, failed := 0, 0
	tally := func(w window) window {
		attempted += w.attempted
		failed += w.failed
		if w.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d jobs failed, first: %v\n", s.name, w.failed, w.attempted, w.firstErr)
		}
		return w
	}
	in, err := newInstance(s, opt.seed, filepath.Join(opt.scratch, s.name), opt.procs)
	if err != nil {
		return report{}, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	m["workloads.generate_s"] = in.times.generate.Seconds()
	m["hdfs.write_s"] = in.times.hdfsWrite.Seconds()
	r, closeInput, err := in.openInput()
	if err != nil {
		return report{}, err
	}
	naive, err := naiveJob(s.job, s.pattern, r, in.want)
	closeInput()
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", s.name, err)
	}
	m["reference.job_s"] = naive.Seconds()
	if err := warmUp(in); err != nil {
		return report{}, fmt.Errorf("%s: %w", s.name, err)
	}

	// Observer-off pass: the base of every ratio below.
	plain := tally(measure(share(opt, 0.3), s.minOps, s.clients, s.deadline, in.runOnce))
	if len(plain.latencies) == 0 {
		return report{}, fmt.Errorf("%s: no job succeeded: %w", s.name, plain.firstErr)
	}
	jobS := median(plain.latencies)
	m["job_latency_p50_ms"] = jobS * 1e3
	m["job_latency_p95_ms"] = quantile(plain.latencies, 0.95) * 1e3
	mem, err := probeMemory(s.deadline, in.runOnce)
	if err != nil {
		return report{}, fmt.Errorf("%s: memory probe: %w", s.name, err)
	}
	m["mapreduce.alloc_mb"], m["mapreduce.allocs"], m["mapreduce.gc_cycles"] = mem.allocMB, mem.allocs, mem.gcCycles

	// (a) Staged passes, as many as fit their share, reported as medians.
	var stagedSecs, maxMapTask []float64
	staged := map[string][]float64{}
	var tot stagedTotals
	begin := time.Now()
	for pass := 0; pass == 0 || time.Since(begin) < share(opt, 0.15); pass++ {
		run := fmt.Sprintf("%s/staged-%d", s.name, pass)
		tot, err = in.staged(rec, run)
		attempted++
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", s.name, err)
		}
		total := 0.0
		for _, name := range []string{
			"workloads.build", "hdfs.read_block", "hdfs.read_window", "mapreduce.split", "mapreduce.map_task",
			"mapreduce.wire_encode", "mapreduce.wire_decode", "mapreduce.segfile_write", "mapreduce.segfile_read",
			"mapreduce.reduce_task", "mapreduce.materialize",
		} {
			secs := rec.seconds(run, name)
			staged[name] = append(staged[name], secs)
			if name != "workloads.build" {
				total += secs
			}
		}
		maxMapTask = append(maxMapTask, rec.maxSeconds(run, "mapreduce.map_task"))
		stagedSecs = append(stagedSecs, total)
	}
	for name, vals := range staged {
		m[name+"_s"] = median(vals)
	}
	m["mapreduce.map_task_max_ms"] = median(maxMapTask) * 1e3
	stagedTotal := median(stagedSecs)
	m["mapreduce.staged_total_s"] = stagedTotal
	if s.kind != onCluster {
		m["mapreduce.engine_overlap_ratio"] = jobS / stagedTotal
	}
	if read := m["hdfs.read_block_s"] + m["hdfs.read_window_s"]; read > 0 {
		m["hdfs.read_mb_s"] = float64(tot.readBytes) / mb / read
	}
	m["mapreduce.map_out_mb"] = float64(tot.mapOutBytes) / mb
	m["mapreduce.map_out_records"] = float64(tot.mapOutRecords)
	m["mapreduce.reduce_out_records"] = float64(tot.reduceRecords)
	m["mapreduce.partition_skew"] = tot.partitionSkew
	m["mapreduce.wire_mb"] = float64(tot.wireBytes) / mb
	m["mapreduce.segfile_stored_mb"] = float64(tot.segStoredBytes) / mb
	if tot.segRawBytes > 0 {
		m["mapreduce.segfile_ratio"] = float64(tot.segStoredBytes) / float64(tot.segRawBytes)
	}

	// (b) The same job with the benchmark's observer attached.
	ob := newTraceObserver()
	var observed window
	if s.kind == onCluster {
		if err := clusterLayers(in, opt, ob, &observed, plain, stagedTotal, m, tally); err != nil {
			return report{}, fmt.Errorf("%s: %w", s.name, err)
		}
	} else {
		var counters mapreduce.Counters
		observed = tally(measure(share(opt, 0.3), s.minOps, 1, s.deadline, func(ctx context.Context, _ int) error {
			ob.beginJob()
			c, err := in.runEngine(ctx, ob)
			counters = c
			return err
		}))
		m["mapreduce.spills"] = float64(counters.SpillFilesWritten)
		m["mapreduce.spill_file_mb_written"] = float64(counters.SpillFileBytesWritten) / mb
		m["mapreduce.spill_file_mb_read"] = float64(counters.SpillFileBytesRead) / mb
		m["mapreduce.merge_passes"] = float64(counters.MergePasses + counters.ReduceMergePasses)
	}
	if jobs := float64(len(observed.latencies)); jobs > 0 {
		ob.mu.Lock()
		for _, ev := range ob.phases {
			if name, ok := phaseMetric[ev.Phase]; ok {
				m[name] += ev.Duration.Seconds() / jobs
			}
		}
		m["mapreduce.critical_path_s"] = criticalPathSeconds(ob.jobs())
		m["obs.events"] = float64(ob.events) / jobs
		m["obs.est_joules"] = ob.joules / jobs
		m["dist.get_task_rpcs_per_job"] = float64(ob.counters["dist.rpc.get_task"]) / jobs
		m["dist.snapshot_writes"] = float64(ob.counters["dist.snapshot.writes"]) / jobs
		m["dist.task_span_mean_ms"] = meanOf(ob.spanSecs["dist.task"]) * 1e3
		ob.mu.Unlock()
		observedS := median(observed.latencies)
		m["obs.overhead_ratio"] = observedS / jobS
		m["obs.est_edp"] = m["obs.est_joules"] * observedS
	}

	err = in.close()
	in = nil
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", s.name, err)
	}
	if err := rec.writeTo(filepath.Join(opt.scratch, "layers-"+s.name+".jsonl")); err != nil {
		return report{}, err
	}

	return newReport(perLayerMetrics, m, attempted, failed)
}

// clusterLayers takes the dist layer's numbers. in.cluster is the plain
// cluster (snapshots on, no observer) the observer-off pass ran on; the
// other variants are started and stopped here, one at a time, so the load
// always comes from a single cluster.
func clusterLayers(in *instance, opt options, ob *traceObserver, observed *window, plain window,
	stagedTotal float64, m map[string]float64, tally func(window) window) error {
	s := in.spec
	jobS := median(plain.latencies)

	// Wasted work and the snapshot file, from the plain cluster.
	tasks, reportErrors := in.cluster.tasksRun()
	stats := in.cluster.master.Stats()
	jobsSoFar := float64(in.cluster.jobs.Load())
	maps := (s.inputBytes + s.blockBytes - 1) / s.blockBytes
	m["dist.tasks_run"] = float64(tasks) / jobsSoFar
	m["dist.task_redundancy_ratio"] = float64(tasks) / jobsSoFar / float64(maps+s.reducers)
	m["dist.reassigned"] = float64(stats.Reassigned)
	m["dist.speculative"] = float64(stats.Speculative)
	m["dist.recovered_maps"] = float64(stats.RecoveredMaps)
	m["dist.report_errors"] = float64(reportErrors)
	if st, err := os.Stat(in.cluster.snapPath); err == nil {
		m["dist.snapshot_mb"] = float64(st.Size()) / mb
	}
	m["dist.control_plane_ms"] = (jobS - stagedTotal) * 1e3

	// Admission and run time, from the master's in-process API.
	var admit, run []float64
	inproc := tally(measure(share(opt, 0.1), 2, 1, s.deadline, func(ctx context.Context, _ int) error {
		t0 := time.Now()
		h, err := in.cluster.master.Submit(ctx, dist.JobDescriptor{Workload: s.job, NumReducers: s.reducers}, in.input, s.blockBytes)
		if err != nil {
			return err
		}
		t1 := time.Now()
		res, err := h.Wait(ctx)
		if err != nil {
			h.Cancel()
			return err
		}
		admit = append(admit, t1.Sub(t0).Seconds())
		run = append(run, time.Since(t1).Seconds())
		return in.verify(res)
	}))
	if len(inproc.latencies) > 0 {
		m["dist.admit_s"] = median(admit)
		m["dist.run_s"] = median(run)
		m["dist.submit_rpc_overhead_s"] = jobS - median(admit) - median(run)
	}
	if err := in.cluster.close(); err != nil {
		return err
	}
	in.cluster = nil

	variant := func(name string, snapshot bool, ob *traceObserver, d time.Duration) (window, error) {
		var o obs.Observer
		if ob != nil {
			o = ob
		}
		cl, err := startCluster(filepath.Join(in.dir, name), opt.procs, s.clients, snapshot, o)
		if err != nil {
			return window{}, err
		}
		op := func(ctx context.Context, client int) error { return in.runCluster(ctx, cl, client) }
		warm := measure(0, s.warmUp, s.clients, s.deadline, op)
		if warm.failed > 0 {
			cl.close()
			return window{}, fmt.Errorf("%s warm-up: %w", name, warm.firstErr)
		}
		if ob != nil {
			ob.reset()
		}
		w := tally(measure(d, s.minOps, s.clients, s.deadline, op))
		return w, cl.close()
	}

	nosnap, err := variant("cluster-nosnap", false, nil, share(opt, 0.1))
	if err != nil {
		return err
	}
	*observed, err = variant("cluster-observed", true, ob, share(opt, 0.3))
	if err != nil {
		return err
	}

	// The same input through the in-process engine: what dist adds on top.
	es := s
	es.kind, es.clients, es.name = onEngine, 1, s.name+"-as-engine"
	eng, err := newInstance(es, opt.seed, filepath.Join(in.dir, "engine"), opt.procs)
	if err != nil {
		return err
	}
	engine := tally(measure(share(opt, 0.05), 2, 1, es.deadline, eng.runOnce))
	if err := eng.close(); err != nil {
		return err
	}
	if len(nosnap.latencies) > 0 {
		off := median(nosnap.latencies)
		m["dist.snapshot_cost_s"] = jobS - off
		if len(engine.latencies) > 0 {
			m["dist.overhead_vs_engine_ratio"] = off / median(engine.latencies)
		}
	}
	return nil
}

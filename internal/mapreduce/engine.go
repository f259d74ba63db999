package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
)

// Engine executes jobs against an HDFS store.
type Engine struct {
	store *hdfs.Store
}

// NewEngine returns an engine bound to a block store. The store may be nil
// for engines that only run file-backed jobs (RunFileContext).
func NewEngine(store *hdfs.Store) *Engine {
	return &Engine{store: store}
}

// RunContext executes the job over the named input file: one map task per
// HDFS block, then a shuffle and the configured reduce tasks. A cancelled
// context aborts the job between tasks and returns the context's error; an
// obs.Observer on the context receives the phase events. On failure the partial
// Result carries the counters of the tasks that did complete (MapTasks
// counts only finished map tasks), alongside the error.
func (e *Engine) RunContext(ctx context.Context, job Job, input string) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if e.store == nil {
		return nil, fmt.Errorf("mapreduce: %s: engine has no store", job.Config.Name)
	}
	file, err := e.store.Open(input)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s: %w", job.Config.Name, err)
	}
	return e.runInput(ctx, job, input, file, int64(file.Size()), file.BlockSize())
}

// RunFileContext executes the job over a local disk file instead of a
// store entry — the out-of-core input path for datasets that should never
// be resident whole. Splits are blockSize-sized byte ranges of the file,
// as they are over a store. A non-positive blockSize defaults to 64 MB.
func (e *Engine) RunFileContext(ctx context.Context, job Job, path string, blockSize units.Bytes) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s: %w", job.Config.Name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %s: %w", job.Config.Name, err)
	}
	if blockSize <= 0 {
		blockSize = 64 * units.MB
	}
	return e.runInput(ctx, job, path, f, st.Size(), blockSize)
}

// runInput is the one input path under RunContext and RunFileContext: it
// cuts the size bytes of in into blockSize-sized byte-range splits, one map
// task each, and runs the job. Every map task reads only its own split's
// window (hdfs.ReadWindow).
func (e *Engine) runInput(ctx context.Context, job Job, name string, in io.ReaderAt, size int64, blockSize units.Bytes) (*Result, error) {
	if size == 0 {
		return nil, fmt.Errorf("mapreduce: %s: input %s is empty", job.Config.Name, name)
	}
	var splits []splitRange
	for start := int64(0); start < size; start += int64(blockSize) {
		splits = append(splits, splitRange{start: int(start), end: int(min(start+int64(blockSize), size))})
	}
	return e.execute(ctx, job, in, size, splits)
}

// taskBufs is one task slot's persistent working memory: the emit/sort
// arena, the sort's grouping scratch, combiner scratch, partition-id
// scratch, the partition layout of a spill bound for a file, and the
// input-window buffer.
// Slots hand these from task to task for the lifetime of a run, so a
// parallel wave holds exactly `par` of each — unlike sync.Pool, whose
// entries the GC clears mid-run exactly when allocation pressure is
// highest, which made parallel runs regrow multi-hundred-MB emit arenas
// once per task.
type taskBufs struct {
	emit    arena       // map-side sort buffer
	sort    sortScratch // sortMeta's table, groups and scatter buffer
	scratch arena       // combiner output scratch
	partIds []int32     // spill partition-id scratch
	parts   arena       // partitioned output of a spill that goes straight to a file
	win     []byte      // input window: the map task's split plus its straddling-record tail
}

// bufsPool backs the task-granular map entry point (ExecuteMapTask), which
// has no slot system of its own. The engine's runs do not use it.
var bufsPool = sync.Pool{New: func() interface{} { return new(taskBufs) }}

// jobSpill is one run's out-of-core context: where spill files live and
// how much spilled map output may stay resident per task before the
// overflow goes to disk.
type jobSpill struct {
	root   string // per-run temp dir under Config.SpillDir
	dir    string // interim spills; removed when the run returns
	outDir string // reduce outputs; ownership passes to the Result
	budget units.Bytes
}

// newJobSpill creates the run's spill directories. budget is SpillMemory,
// defaulting to SortBuffer.
func newJobSpill(cfg Config) (*jobSpill, error) {
	if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.SpillDir, sanitizeJobName(cfg.Name)+"-")
	if err != nil {
		return nil, err
	}
	js := &jobSpill{root: root, dir: filepath.Join(root, "interm"), outDir: filepath.Join(root, "out")}
	for _, d := range []string{js.dir, js.outDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			os.RemoveAll(root)
			return nil, err
		}
	}
	js.budget = cfg.SpillMemory
	if js.budget <= 0 {
		js.budget = cfg.SortBuffer
	}
	return js, nil
}

func (js *jobSpill) mapSpillPath(task, seq int) string {
	return filepath.Join(js.dir, fmt.Sprintf("map%d-s%d.seg", task, seq))
}
func (js *jobSpill) mapOutPath(task int) string {
	return filepath.Join(js.dir, fmt.Sprintf("map%d-out.seg", task))
}

// mapInterPrefix is the consolidate prefix of a map task's multi-pass merge
// intermediates (map<task>-r<round>-g<group>.seg).
func (js *jobSpill) mapInterPrefix(task int) string {
	return filepath.Join(js.dir, fmt.Sprintf("map%d-", task))
}
func (js *jobSpill) colPath(part, shard, seq int) string {
	return filepath.Join(js.dir, fmt.Sprintf("col%d-h%d-s%d.seg", part, shard, seq))
}
func (js *jobSpill) outPath(part int) string {
	return filepath.Join(js.outDir, fmt.Sprintf("reduce%d.seg", part))
}

// sanitizeJobName maps a job name (which may contain path separators, e.g.
// "wordcount/serial") onto a safe temp-dir prefix.
func sanitizeJobName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			b[i] = '-'
		}
	}
	if len(b) == 0 {
		return "job"
	}
	return string(b)
}

// execute resolves the run shape (partitions, parallelism, spill context),
// runs the job and cleans up spill state afterwards: interim spills are
// always removed; reduce-output files transfer to the Result on success
// (released by Result.Close) and are removed on failure.
func (e *Engine) execute(ctx context.Context, job Job, in io.ReaderAt, size int64, splits []splitRange) (*Result, error) {
	if job.Partitioner == nil {
		job.Partitioner = HashPartitioner()
	}
	par := job.Config.Parallelism // validated non-negative
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var js *jobSpill
	if job.Config.SpillDir != "" {
		var err error
		js, err = newJobSpill(job.Config)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: %s: spill dir: %w", job.Config.Name, err)
		}
	}
	// The observer rides the context (obs.NewContext); with none installed
	// every phase emission collapses to the zero-cost inert path.
	res, err := e.run(ctx, obs.FromContext(ctx), job, in, size, splits, par, js)
	if js != nil {
		os.RemoveAll(js.dir)
		if err != nil || res == nil {
			os.RemoveAll(js.root)
		} else {
			res.spillRoot = js.root
		}
	}
	return res, err
}

// wave runs task(i, bufs) for i in [0, n) on the slot pool, in index order,
// and returns once every dispatched task has finished. Task slots double as
// working-memory handles: a slot's buffers pass from task to task, so a wave
// holds exactly cap(slots) of each. A cancelled context stops dispatch
// between tasks (tasks already running finish) and its error is returned.
func wave(ctx context.Context, slots chan *taskBufs, n int, task func(i int, bufs *taskBufs)) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < n; i++ {
		bufs := <-slots
		// Checked after (possibly) blocking on a slot: a cancellation that
		// lands while waiting must not dispatch another task.
		if err := ctx.Err(); err != nil {
			slots <- bufs
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { slots <- bufs }()
			task(i, bufs)
		}()
	}
	return nil
}

// run is the engine's one executor: a map wave publishing into the shuffle
// sink, then a reduce wave over each partition's collected runs. Each task
// writes only its own result slots; aggregation happens once after a wave
// drains, so the hot path takes no locks. On failure the partial Result
// carries the counters of the tasks that did complete.
func (e *Engine) run(ctx context.Context, o obs.Observer, job Job, in io.ReaderAt, size int64, splits []splitRange, par int, js *jobSpill) (*Result, error) {
	name := job.Config.Name
	nparts := job.Config.NumReducers
	slots := make(chan *taskBufs, par)
	for i := 0; i < par; i++ {
		slots <- new(taskBufs)
	}
	var total Counters
	// finish folds one wave's per-task outcomes into total and returns the
	// first task error in index order, else the dispatch (context) error.
	finish := func(counters []Counters, errs []error, ctxErr error) error {
		for i := range counters {
			total.Add(counters[i])
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if ctxErr != nil {
			return fmt.Errorf("mapreduce: %s: %w", name, ctxErr)
		}
		return nil
	}

	// ---- Shuffle sink.
	pcs := make([]phaseClock, nparts) // reduce tasks' phase clocks
	for p := range pcs {
		pcs[p] = reduceTaskClock(o, job, p)
	}
	sh := newShuffle(job, pcs, len(splits), par, js)

	// ---- Map wave: one task per split.
	mapErr := make([]error, len(splits))
	mapCounters := make([]Counters, len(splits))
	ctxErr := wave(ctx, slots, len(splits), func(i int, bufs *taskBufs) {
		taskID := fmt.Sprintf("%s/map-%d", name, i)
		pc := mapTaskClock(o, job, i)
		split := splits[i]
		tRead := pc.Start()
		win, err := hdfs.ReadWindow(in, size, int64(split.start), int64(split.end), bufs.win[:0])
		if err != nil {
			mapErr[i] = fmt.Errorf("mapreduce: %s: %s: %w", name, taskID, err)
			return
		}
		bufs.win = win // keep the grown buffer for the slot's next task
		pc.EmitIO(obs.PhaseRead, tRead, int64(len(win)), 0)
		if job.Config.beforeTask != nil {
			job.Config.beforeTask(taskID)
		}
		out, tc, err := runMapTask(job, win, split.start, split, nparts, pc, bufs, js, i)
		if err != nil {
			mapErr[i] = fmt.Errorf("mapreduce: %s: %w", taskID, err)
			return
		}
		tc.MapTasks = 1 // counts finished map tasks only
		// Shuffle traffic is counted at publish time.
		for _, r := range out {
			if r.recs() > 0 {
				tc.ShuffleSegments++
				tc.ShuffleBytes += r.accountBytes()
			}
		}
		sh.publish(i, out)
		mapCounters[i] = tc
	})
	sh.wait()
	if err := finish(mapCounters, mapErr, ctxErr); err != nil {
		return &Result{Counters: total}, err
	}

	// ---- Reduce wave: one task per partition, over its runs in task order.
	total.ReduceTasks = nparts
	output := make([]partRun, nparts)
	redErr := make([]error, nparts)
	redCounters := make([]Counters, nparts)
	ctxErr = wave(ctx, slots, nparts, func(p int, _ *taskBufs) {
		taskID := fmt.Sprintf("%s/reduce-%d", name, p)
		runs, folds, err := sh.partition(p)
		if err != nil {
			redErr[p] = fmt.Errorf("mapreduce: %s: %w", taskID, err)
			return
		}
		if job.Config.beforeTask != nil {
			job.Config.beforeTask(taskID)
		}
		var tc Counters
		if js != nil {
			output[p], tc, err = reduceToFile(job, js.outPath(p), runs, pcs[p])
		} else {
			var seg Segment
			seg, tc, err = reduceToSegment(job, runs, pcs[p])
			output[p] = memRun(seg)
		}
		if err != nil {
			redErr[p] = fmt.Errorf("mapreduce: %s: %w", taskID, err)
			return
		}
		tc.Add(folds)
		redCounters[p] = tc
	})
	if err := finish(redCounters, redErr, ctxErr); err != nil {
		return &Result{Counters: total}, err
	}
	return &Result{Counters: total, parts: output}, nil
}

// reduceToFile streams one partition's reduce output into a
// single-partition segment file at path — the out-of-core reduce task
// body. When more disk runs are pending than MergeFactor allows open at
// once, intermediate disk-to-disk merge rounds consolidate them first, so
// the final merge's open-file count and loser-tree width stay bounded; each
// round counts as one ReduceMergePass.
func reduceToFile(job Job, path string, runs []partRun, pc phaseClock) (partRun, Counters, error) {
	var c Counters
	disk := 0
	for _, r := range runs {
		if r.isDisk() {
			disk++
		}
	}
	var interm []*SegmentFile // last consolidation round's files
	defer func() {
		for _, sf := range interm {
			sf.Remove()
		}
	}()
	if disk > job.Config.MergeFactor {
		single := make([][]partRun, len(runs))
		for i := range runs {
			single[i] = runs[i : i+1]
		}
		merged, made, rounds, err := consolidate(single, job.Config.MergeFactor, path+".", false, pc, obs.PhaseSpillWrite, &c)
		if err != nil {
			return partRun{}, c, fmt.Errorf("mapreduce: %s: merge pass: %w", job.Config.Name, err)
		}
		c.ReduceMergePasses += rounds
		interm = made
		runs = make([]partRun, len(merged))
		for i, r := range merged {
			runs[i] = r[0]
		}
	}
	w, err := newSpillWriter(path)
	if err != nil {
		return partRun{}, c, fmt.Errorf("mapreduce: %s: reduce output: %w", job.Config.Name, err)
	}
	w.beginPartition()
	cr, err := reduceStreamed(job, runs, w.append, pc)
	c.Add(cr)
	if err != nil {
		w.abort()
		return partRun{}, c, err
	}
	sf, err := w.finish()
	if err != nil {
		w.abort()
		return partRun{}, c, fmt.Errorf("mapreduce: %s: reduce output: %w", job.Config.Name, err)
	}
	return diskRun(sf, 0), c, nil
}

// splitRange is one map task's byte range [start, end) within the input.
type splitRange struct {
	start, end int
}

// runMapTask executes the mapper over one split with Hadoop's sort-buffer
// spill discipline and returns per-partition sorted output runs. Records
// are emitted into the slot's flat arena (no per-record allocation).
// win holds the input bytes starting at absolute offset base; resident
// inputs pass the whole input at base 0.
//
// With a spill context, spills stay resident only while their cumulative
// accounting size fits js.budget; past that, each spill is written to its
// own segment file (spill-write phase), and the final merge
// externally streams all spills into one on-disk output file per task
// (merge-fetch phase) — identical records, same MergePasses/MergeBytes
// accounting, bounded memory. The phase clock receives disjoint
// map/sort/spill/spill-write/merge-fetch intervals: the map phase is
// closed around each spill so phase totals sum to task wall time without
// double counting.
func runMapTask(job Job, win []byte, base int, split splitRange, nparts int, pc phaseClock, bufs *taskBufs, js *jobSpill, task int) (_ []partRun, c Counters, err error) {
	c.MapInputBytes = units.Bytes(split.end - split.start)

	buf := &bufs.emit
	buf.reset()
	defer buf.reset()
	var (
		bufBytes units.Bytes
		memBytes units.Bytes // accounting size of the resident spills
		spills   [][]partRun // [spill][partition], resident or one file's partitions
	)
	// A failed task leaves no file: whatever spills it holds on disk when it
	// returns — its own, or the merge intermediates that replaced them — go.
	defer func() {
		if err != nil {
			for _, sp := range spills {
				if f := sp[0].file; f != nil {
					f.Remove()
				}
			}
		}
	}()
	doSpill := func() error {
		if len(buf.meta) == 0 {
			return nil
		}
		// room is how much more spilled output may stay resident; a spill
		// larger than that is written out below before anything else runs.
		room := units.Bytes(math.MaxInt64)
		if js != nil {
			room = js.budget - memBytes
		}
		parts, n, b, err := spill(job, buf, nparts, &c, pc, bufs, room)
		if err != nil {
			return err
		}
		c.Spills++
		c.SpilledRecords += int64(n)
		c.SpilledBytes += b
		if b > room {
			tW := pc.Start()
			sf, werr := WriteSegmentsFile(js.mapSpillPath(task, len(spills)), parts)
			if werr != nil {
				return fmt.Errorf("mapreduce: %s: spill write: %w", job.Config.Name, werr)
			}
			pc.EmitIO(obs.PhaseSpillWrite, tW, 0, int64(sf.StoredBytes()))
			c.SpillFilesWritten++
			c.SpillFileBytesWritten += sf.StoredBytes()
			spills = append(spills, fileRuns(sf))
		} else {
			memBytes += b
			run := make([]partRun, nparts)
			for p := range run {
				run[p] = memRun(parts[p])
			}
			spills = append(spills, run)
		}
		buf.reset()
		bufBytes = 0
		return nil
	}

	// emit copies one record into the sort buffer and charges it to the
	// counters, spilling when the buffer crosses io.sort.mb. The open map
	// interval is closed around the spill so sort/spill time is not charged
	// to the map phase.
	var mapErr error
	tMap := pc.Start()
	emit := func(k, v []byte) {
		buf.appendBytes(k, v)
		rb := units.Bytes(len(k) + len(v) + recordOverhead)
		bufBytes += rb
		c.MapOutputRecords++
		c.MapOutputBytes += rb
		if bufBytes >= job.Config.SortBuffer {
			pc.Emit(obs.PhaseMap, tMap)
			if err := doSpill(); err != nil && mapErr == nil {
				mapErr = err
			}
			tMap = pc.Start()
		}
	}
	err = forEachRecordWindow(win, base, split.start, split.end, func(offset int, line []byte) error {
		c.MapInputRecords++
		if err := job.Mapper.MapBytes(offset, line, emit); err != nil {
			return fmt.Errorf("mapreduce: %s: map: %w", job.Config.Name, err)
		}
		return mapErr
	})
	pc.Emit(obs.PhaseMap, tMap)
	if err != nil {
		return nil, c, err
	}
	if err := doSpill(); err != nil {
		return nil, c, err
	}

	// Merge spills into the task's final per-partition output. Hadoop
	// re-reads and re-writes spill data in passes of MergeFactor fan-in;
	// MergePasses/MergeBytes follow that formula whether or not the rounds
	// really run, so in-memory and out-of-core runs agree on those counters.
	switch len(spills) {
	case 0:
		return make([]partRun, nparts), c, nil
	case 1:
		return spills[0], c, nil
	}
	tMerge := pc.Start()
	passes := mergePasses(len(spills), job.Config.MergeFactor)
	c.MergePasses += passes
	c.MergeBytes += c.SpilledBytes * units.Bytes(passes)
	// One merge, two sinks. A task whose spills all stayed resident merges
	// them into exactly sized arenas, one per partition.
	if c.SpillFilesWritten == 0 {
		out, err := mergeToSegments(spills)
		if err != nil {
			return nil, c, fmt.Errorf("mapreduce: %s: merge output: %w", job.Config.Name, err)
		}
		pc.Emit(obs.PhaseMergeFetch, tMerge)
		return out, c, nil
	}
	// Once a spill went to a file the sink is one more file: consolidate to
	// at most MergeFactor spills in real rounds, then stream every remaining
	// spill's partition runs — resident and on-disk alike, in spill order, so
	// the output is byte-identical to the arena sink's — into it.
	merged, _, _, err := consolidate(spills, job.Config.MergeFactor, js.mapInterPrefix(task), true, pc, obs.PhaseMergeFetch, &c)
	if err != nil {
		return nil, c, fmt.Errorf("mapreduce: %s: merge pass: %w", job.Config.Name, err)
	}
	spills = merged
	tMerge = pc.Start()
	sf, read, err := mergeToFile(js.mapOutPath(task), spills, &c)
	if err != nil {
		return nil, c, fmt.Errorf("mapreduce: %s: merge output: %w", job.Config.Name, err)
	}
	pc.EmitIO(obs.PhaseMergeFetch, tMerge, read, int64(sf.StoredBytes()))
	for _, sp := range spills {
		if f := sp[0].file; f != nil {
			f.Remove()
		}
	}
	return fileRuns(sf), c, nil
}

// spill sorts the buffered records, applies the combiner if configured,
// and partitions the result. It returns the per-partition sorted runs, the
// record count and byte size actually spilled. The sort (sortMeta) groups
// the records by key through a hash table, orders the distinct keys, and
// writes each key's records out in emit order, which is the stable sort by
// key; it reorders only the metadata entries — the record payload never
// moves (Hadoop's MapOutputBuffer sorts its kvmeta the same way).
// All partitions share one exactly-sized output buffer, laid out partition
// by partition, so a spill costs two allocations regardless of fan-out — or
// none: a spill of more than room bytes cannot stay resident, the caller
// writes it to a file before the slot does anything else, so its layout
// lives in the slot's scratch and the returned segments are valid only until
// the slot's next spill.
func spill(job Job, buf *arena, nparts int, c *Counters, pc phaseClock, bufs *taskBufs, room units.Bytes) ([]Segment, int, units.Bytes, error) {
	tSort := pc.Start()
	sortMeta(buf.data, buf.meta, &bufs.sort)
	pc.Emit(obs.PhaseSort, tSort)

	tSpill := pc.Start()
	defer func() { pc.Emit(obs.PhaseSpill, tSpill) }()
	working := buf.seg()
	if job.Combiner != nil {
		scratch := &bufs.scratch
		scratch.reset()
		defer scratch.reset()
		if err := combineInto(job, working, scratch, c, &bufs.sort); err != nil {
			return nil, 0, 0, err
		}
		working = scratch.seg()
	}

	ids := bufs.partIds[:0]
	defer func() { bufs.partIds = ids[:0] }()
	n := working.Len()
	counts := make([]int, nparts)
	dataSizes := make([]int, nparts)
	for i := 0; i < n; i++ {
		p := job.Partitioner.PartitionBytes(working.key(i), nparts)
		if p < 0 || p >= nparts {
			return nil, 0, 0, fmt.Errorf("mapreduce: %s: partitioner returned %d for %d partitions", job.Config.Name, p, nparts)
		}
		ids = append(ids, int32(p))
		counts[p]++
		m := working.meta[i]
		dataSizes[p] += int(m.keyLen + m.valLen)
	}
	spilledBytes := working.Bytes()

	// Lay the partitions out back to back in one buffer: fresh when the spill
	// stays resident (it outlives the task: the shuffle hands it to a reducer).
	var outData []byte
	var outMeta []recMeta
	if spilledBytes > room {
		bufs.parts.reset()
		bufs.parts.grow(len(working.data), n)
		outData, outMeta = bufs.parts.data[:len(working.data)], bufs.parts.meta[:n]
	} else {
		outData, outMeta = make([]byte, len(working.data)), make([]recMeta, n)
	}
	dataBase := make([]int, nparts)
	metaBase := make([]int, nparts)
	for p, acc, accM := 0, 0, 0; p < nparts; p++ {
		dataBase[p] = acc
		metaBase[p] = accM
		acc += dataSizes[p]
		accM += counts[p]
	}
	dataCur := make([]int, nparts)
	metaCur := make([]int, nparts)
	for i := 0; i < n; i++ {
		p := ids[i]
		m := working.meta[i]
		rl := int(m.keyLen + m.valLen)
		copy(outData[dataBase[p]+dataCur[p]:], working.data[m.off:int(m.off)+rl])
		outMeta[metaBase[p]+metaCur[p]] = recMeta{off: uint32(dataCur[p]), keyLen: m.keyLen, valLen: m.valLen}
		dataCur[p] += rl
		metaCur[p]++
	}
	parts := make([]Segment, nparts)
	for p := 0; p < nparts; p++ {
		if counts[p] == 0 {
			continue
		}
		parts[p] = Segment{
			data: outData[dataBase[p] : dataBase[p]+dataSizes[p] : dataBase[p]+dataSizes[p]],
			meta: outMeta[metaBase[p] : metaBase[p]+counts[p] : metaBase[p]+counts[p]],
		}
	}
	return parts, n, spilledBytes, nil
}

// combineInto runs the combiner over key groups of a sorted run, writing
// its output into the scratch arena.
func combineInto(job Job, sorted Segment, out *arena, c *Counters, sc *sortScratch) error {
	emit := ByteEmitter(out.appendBytes)
	var it ValueIter // one per run, not per group: &it escapes into the call
	for i, n := 0, sorted.Len(); i < n; {
		j := sorted.groupEnd(i)
		c.CombineInputRecords += int64(j - i)
		before := len(out.meta)
		it = ValueIter{seg: sorted, i: i, j: j}
		if err := job.Combiner.ReduceStream(sorted.key(i), &it, emit); err != nil {
			return fmt.Errorf("mapreduce: %s: combine: %w", job.Config.Name, err)
		}
		c.CombineOutputRecords += int64(len(out.meta) - before)
		i = j
	}
	// Groups are visited in key order, so a combiner that emits under the
	// key it was given leaves the output sorted. One that rewrote keys may
	// not have: sort it then, stably in emission order.
	if !segmentSorted(out.seg()) {
		sortMeta(out.data, out.meta, sc)
	}
	return nil
}

// mergePasses returns the number of multi-pass merge rounds Hadoop performs
// to reduce n segments with the given fan-in to one.
func mergePasses(n, factor int) int {
	if n <= 1 {
		return 0
	}
	passes := 0
	for n > 1 {
		n = (n + factor - 1) / factor
		passes++
	}
	return passes
}

// forEachRecordWindow streams the records of the absolute byte range
// [start, end) to fn under Hadoop's LineRecordReader split semantics: a
// non-first split discards everything up to and including its first
// newline (that partial/whole line belongs to the previous split, which
// reads past its own end to finish it), and a line starting at or before
// end — even exactly at end — belongs to this split and is read to
// completion beyond the boundary. Every line of the file is therefore
// processed by exactly one map task, regardless of where block boundaries
// cut it.
//
// win holds the input bytes starting at absolute offset base and must
// extend through the first newline at or after end, or to end-of-input
// (hdfs.ReadWindow's contract); offsets passed to fn are
// absolute. The line slice aliases win and is only valid during the call.
// A non-nil error from fn stops the iteration and is returned.
func forEachRecordWindow(win []byte, base, start, end int, fn func(offset int, line []byte) error) error {
	pos := start - base
	rend := end - base
	if start > 0 {
		i := bytes.IndexByte(win[pos:], '\n')
		if i < 0 {
			return nil // the whole split is the middle of one line
		}
		pos += i + 1
	}
	for pos <= rend && pos < len(win) {
		i := bytes.IndexByte(win[pos:], '\n')
		var lineEnd int
		if i < 0 {
			lineEnd = len(win)
		} else {
			lineEnd = pos + i
		}
		if lineEnd > pos {
			if err := fn(base+pos, win[pos:lineEnd]); err != nil {
				return err
			}
		}
		pos = lineEnd + 1
	}
	return nil
}

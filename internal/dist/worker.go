package dist

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
)

// Worker executes tasks for a master. One Worker runs one polling loop;
// start several for a multi-slot node.
//
// The worker serves its own map output (the way Hadoop map output stays on
// the mapper's node): completed map segments stay in a local store and
// reducers pull them from the worker's byte endpoint directly, with only
// address references passing through the master. A finished reduce's output
// waits in the same store until the master has pulled it.
type Worker struct {
	// ID identifies the worker in the master's tables.
	ID string
	// pollInterval is the longest the master may hold an idle call.
	pollInterval time.Duration

	registry *Registry
	client   *rpc.Client
	ob       obs.Observer
	// class is the declared core class (WithCoreClass): stamped on every
	// phase event and reported in each poll, "" when undeclared.
	class string

	// Data plane: the store holds this worker's outputs, the endpoint (at
	// shuffleAddr) serves them, and peers pulls other workers' map output.
	endpoint    *endpoint
	shuffleAddr string
	store       *shuffleStore
	peers       *frameClient
	// spillDir is this worker's out-of-core map-output directory
	// (WithSpillDir), "" for the in-memory store; removed on Close.
	spillDir string
	// spillSeq uniquifies spill-file names across re-executions of the same
	// map seq (guarded by mu).
	spillSeq int

	mu      sync.Mutex
	stopped bool
	// tasksRun counts completed task attempts (observability/tests).
	tasksRun int
	// reportErrors counts failure/loss reports that themselves failed to
	// reach the master over RPC.
	reportErrors int

	// bg tracks in-flight streaming reduce attempts. Reduce tasks run in
	// the background so the polling loop keeps serving map tasks while the
	// reducer waits for the shuffle to complete — with synchronous reduces a
	// single worker would deadlock, holding a reduce that can never finish
	// because the remaining maps are never polled for.
	bg sync.WaitGroup
	// bgErr is the first hard error hit by a background reduce; it stops
	// the worker and is returned when the polling loop exits.
	bgErr error
}

// storedOutput is one task's stored output: resident segments, one per
// partition — a map task's output as the engine returned it, or a finished
// reduce's output waiting for the master's pull — or a disk-backed segment
// file (WithSpillDir workers) served frame by frame.
type storedOutput struct {
	segs []mapreduce.Segment
	file *mapreduce.SegmentFile
}

// storedFrame is one servable unit of a stored output: a resident segment,
// or one wire-form frame read from a segment file (blob), with more
// reporting whether the partition has frames after it.
type storedFrame struct {
	seg  mapreduce.Segment
	blob []byte
	more bool
}

// segment returns the frame as a segment; a disk frame is decoded, aliasing
// its blob.
func (f storedFrame) segment() (mapreduce.Segment, error) {
	if f.blob == nil {
		return f.seg, nil
	}
	return mapreduce.DecodeSegment(f.blob)
}

// shuffleStore holds a worker's stored outputs: epoch → key (a map Seq, or a
// reduceKey) → output. It has its own lock because the endpoint's serving
// goroutines race the polling loop; disk reads happen outside the lock
// (SegmentFile handles are goroutine-safe).
type shuffleStore struct {
	mu      sync.Mutex
	byEpoch map[uint64]map[int]*storedOutput
}

func newShuffleStore() *shuffleStore {
	return &shuffleStore{byEpoch: make(map[uint64]map[int]*storedOutput)}
}

func (s *shuffleStore) put(epoch uint64, key int, segs []mapreduce.Segment) *storedOutput {
	return s.set(epoch, key, &storedOutput{segs: segs})
}

func (s *shuffleStore) putFile(epoch uint64, mapSeq int, sf *mapreduce.SegmentFile) {
	s.set(epoch, mapSeq, &storedOutput{file: sf})
}

func (s *shuffleStore) set(epoch uint64, key int, out *storedOutput) *storedOutput {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.byEpoch[epoch]
	if e == nil {
		e = make(map[int]*storedOutput)
		s.byEpoch[epoch] = e
	}
	// A re-executed attempt replaces the entry; release the superseded spill
	// file (names are uniquified, so the new file is never the old path).
	if old := e[key]; old != nil && old.file != nil {
		old.file.Remove()
	}
	e[key] = out
	return out
}

// drop removes the entry under key if it is still out: a later attempt may
// have replaced it.
func (s *shuffleStore) drop(epoch uint64, key int, out *storedOutput) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.byEpoch[epoch]; e[key] == out {
		delete(e, key)
	}
}

// getFrame hands out one servable unit of a stored output: the whole
// partition for resident output (frame 0 only), or frame `frame` of the
// partition for disk-backed output. ok is false for anything this worker
// cannot serve — unknown task, out-of-range partition or frame, or a spill
// file that fails validation on read — which the puller treats as loss.
func (s *shuffleStore) getFrame(epoch uint64, key, part, frame int) (storedFrame, bool) {
	s.mu.Lock()
	out := s.byEpoch[epoch][key]
	s.mu.Unlock()
	if out == nil {
		return storedFrame{}, false
	}
	if out.file == nil {
		if part < 0 || part >= len(out.segs) || frame != 0 {
			return storedFrame{}, false
		}
		return storedFrame{seg: out.segs[part]}, true
	}
	sf := out.file
	if part < 0 || part >= sf.NumPartitions() {
		return storedFrame{}, false
	}
	nframes := sf.Frames(part)
	if nframes == 0 {
		// An empty partition has no frames on disk; serve the empty segment
		// (defensive — the master only publishes non-empty segments).
		if frame != 0 {
			return storedFrame{}, false
		}
		return storedFrame{}, true
	}
	if frame < 0 || frame >= nframes {
		return storedFrame{}, false
	}
	blob, err := sf.ReadFrame(part, frame)
	if err != nil {
		// Corrupt or truncated on disk: answer as loss so the master
		// re-executes the owning map instead of the reducer stalling.
		return storedFrame{}, false
	}
	return storedFrame{blob: blob, more: frame+1 < nframes}, true
}

// prune drops stored output for every epoch not in the active set — the
// master piggybacks the set on every GetTask reply, so finished jobs'
// segments (and their spill files) are released by the next poll.
func (s *shuffleStore) prune(active []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := make(map[uint64]bool, len(active))
	for _, e := range active {
		keep[e] = true
	}
	for e, outs := range s.byEpoch {
		if keep[e] {
			continue
		}
		for _, out := range outs {
			if out.file != nil {
				out.file.Remove()
			}
		}
		delete(s.byEpoch, e)
	}
}

// ConnectWorker dials the master and returns a ready worker, configured by
// functional options: WithPollInterval bounds how long the master holds an
// idle call, WithSpillDir moves served map output to disk, WithCoreClass
// declares the node class and WithObserver attaches telemetry (dist.task
// spans, failure-report counters).
func ConnectWorker(id, masterAddr string, opts ...Option) (*Worker, error) {
	if id == "" {
		return nil, fmt.Errorf("dist: worker needs an id")
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	conn, err := net.Dial("tcp", masterAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %s dial: %w", id, err)
	}
	w := &Worker{
		ID:           id,
		pollInterval: cfg.pollInterval,
		registry:     NewRegistry(),
		client:       rpc.NewClient(conn),
		ob:           cfg.observer,
		class:        cfg.coreClass,
		store:        newShuffleStore(),
		peers:        newFrameClient(),
	}
	// Serve on the interface that reaches the master — the same one
	// reducers on other nodes dial back over.
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		w.client.Close()
		return nil, fmt.Errorf("dist: worker %s local addr: %w", id, err)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		w.client.Close()
		return nil, fmt.Errorf("dist: worker %s endpoint listen: %w", id, err)
	}
	w.shuffleAddr = ln.Addr().String()
	w.endpoint = serveEndpoint(ln, w.store)
	if cfg.spillDir != "" {
		if err := os.MkdirAll(cfg.spillDir, 0o755); err != nil {
			w.Close()
			return nil, fmt.Errorf("dist: worker %s spill dir: %w", id, err)
		}
		dir, err := os.MkdirTemp(cfg.spillDir, "worker-")
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("dist: worker %s spill dir: %w", id, err)
		}
		w.spillDir = dir
	}
	return w, nil
}

// Registry exposes the worker-side job registry for custom registrations.
func (w *Worker) Registry() *Registry { return w.registry }

// TasksRun reports how many task attempts this worker completed.
func (w *Worker) TasksRun() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tasksRun
}

// ReportErrors reports how many task-failure (or segment-loss) reports
// could not be delivered to the master (the RPC itself failed). The
// master's timeout path still recovers the task; the counter surfaces the
// degraded signalling that used to be dropped silently.
func (w *Worker) ReportErrors() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reportErrors
}

// Stop makes the polling loop exit after the current task or held poll.
func (w *Worker) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
}

// reportFailure tells the master to requeue a task this worker could not
// run. Delivery is best-effort — the master's timeout path covers a lost
// report — but a failed report is no longer dropped silently: it is
// counted (ReportErrors) and surfaced through the observer.
func (w *Worker) reportFailure(task Task, cause error) {
	err := w.client.Call("Master.ReportFailure", TaskFailed{
		WorkerID: w.ID, Epoch: task.Epoch, Kind: task.Kind, Seq: task.Seq, Reason: cause.Error(),
	}, &Ack{})
	if err != nil {
		w.countReportError()
	}
}

func (w *Worker) countReportError() {
	w.mu.Lock()
	w.reportErrors++
	w.mu.Unlock()
	w.ob.Count("dist.worker.report_errors", 1)
}

// Close tears down the connections — the master link, the byte endpoint
// with every connection it accepted, and the pooled peer links. Closing the
// endpoint is what makes this worker's served segments unreachable, to
// reducers already connected too: they hit it, report the loss, and the
// master re-executes the maps elsewhere.
func (w *Worker) Close() error {
	w.Stop()
	w.peers.close()
	w.endpoint.close()
	if w.spillDir != "" {
		// The spill files ARE this worker's served segments; removing them is
		// part of what makes a closed worker's output unreachable.
		os.RemoveAll(w.spillDir)
	}
	return w.client.Close()
}

func (w *Worker) isStopped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stopped
}

// RunForeverCtx is the worker loop: it polls the master for tasks (an idle
// master holds each poll until there is work) and executes them, across
// jobs, until Stop is called (nil) or ctx is cancelled (an error wrapping
// ctx.Err(), at once). Any other return is the first hard error — task
// execution errors are hard: the job cannot succeed with a broken factory.
func (w *Worker) RunForeverCtx(ctx context.Context) error {
	// Background reduces end within a poll interval of Stop, and at once on
	// cancellation, a closed connection or a stale epoch (the retire wakes
	// their held fetch); wait for them so no attempt outlives the loop.
	defer w.bg.Wait()
	for !w.isStopped() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dist: worker %s: cancelled: %w", w.ID, err)
		}
		var task Task
		if err := w.heldCall(ctx, "Master.GetTask", GetTaskArgs{WorkerID: w.ID, Addr: w.shuffleAddr, Class: w.class, Wait: w.pollInterval}, &task); err != nil {
			if ctx.Err() != nil || w.isStopped() {
				continue // cancelled, or Close raced with the poll: the loop checks report it
			}
			return fmt.Errorf("dist: worker %s poll: %w", w.ID, err)
		}
		w.store.prune(task.ActiveEpochs) // release finished jobs' output, busy or idle
		switch task.Kind {
		case TaskWait:
			// The master held the poll as long as it would; ask again.
		case TaskMap:
			if err := w.runMap(task); err != nil {
				if w.isStopped() {
					break
				}
				return err
			}
		case TaskReduce:
			// Streamed in the background: the fetch loop may have to wait
			// for the tail of the map wave, and this polling loop is what
			// runs those maps.
			w.bg.Add(1)
			go w.runReduceBg(ctx, task)
		default:
			return fmt.Errorf("dist: worker %s: unknown task kind %q", w.ID, task.Kind)
		}
	}
	w.bg.Wait()
	return w.takeBgErr()
}

// takeBgErr returns the first background-reduce error, if any.
func (w *Worker) takeBgErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bgErr
}

// heldCall makes an RPC the master may hold (GetTask, FetchSegments),
// returning ctx's error at once on cancellation; the abandoned call then
// completes into a reply nobody reads.
func (w *Worker) heldCall(ctx context.Context, method string, args, reply any) error {
	call := w.client.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-call.Done:
		return call.Error
	}
}

// taskSpan opens a dist.task span for one attempt when the observer is
// enabled; the returned span is inert otherwise. The attrs carry the full
// attempt identity — job, kind, seq, worker, epoch — so concurrent attempts
// of the same task (speculative re-execution, post-timeout reissue) stay
// distinguishable in a trace.
func (w *Worker) taskSpan(task Task) obs.Span {
	if !w.ob.Enabled() {
		return obs.Span{}
	}
	return obs.Start(w.ob, "dist.task",
		obs.Str("job", task.Job.Workload),
		obs.Str("kind", task.Kind),
		obs.Int("seq", int64(task.Seq)),
		obs.Str("worker", w.ID),
		obs.Int("epoch", int64(task.Epoch)))
}

// runMap executes one map task and keeps its output here — resident blobs,
// or a segment file under WithSpillDir — reporting only addressable
// references and per-partition accounting to the master.
func (w *Worker) runMap(task Task) error {
	sp := w.taskSpan(task)
	defer sp.End()
	job, err := w.registry.Build(task.Job)
	if err != nil {
		w.reportFailure(task, err)
		return err
	}
	ref := taskRef(task, w.ID, w.class)
	pc := obs.NewPhaseClock(w.ob, ref)
	segs, counters, err := mapreduce.ExecuteMapSplitObs(job, task.SplitData, task.Job.NumReducers, ref, w.ob)
	if err != nil {
		w.reportFailure(task, err)
		return fmt.Errorf("dist: worker %s map %d: %w", w.ID, task.Seq, err)
	}
	w.mu.Lock()
	w.tasksRun++
	w.spillSeq++
	seq := w.spillSeq
	w.mu.Unlock()
	stats := make([]PartStat, 0, len(segs))
	if w.spillDir != "" {
		// Out-of-core serving: the output goes straight to a segment file and
		// is served from it frame by frame — the resident blobs are never
		// built. The accounting PartStats carry comes from the file's index,
		// which matches the in-memory per-record formula exactly.
		path := filepath.Join(w.spillDir, fmt.Sprintf("e%d-m%d-a%d.seg", task.Epoch, task.Seq, seq))
		tSpill := pc.Start()
		sf, err := mapreduce.WriteSegmentsFile(path, segs)
		if err != nil {
			w.reportFailure(task, err)
			return fmt.Errorf("dist: worker %s map %d spill: %w", w.ID, task.Seq, err)
		}
		pc.EmitIO(obs.PhaseSpillWrite, tSpill, 0, int64(sf.StoredBytes()))
		counters.SpillFilesWritten++
		counters.SpillFileBytesWritten += sf.StoredBytes()
		w.store.putFile(task.Epoch, task.Seq, sf)
		for p := range segs {
			if segs[p].Len() > 0 {
				stats = append(stats, PartStat{Part: p, Recs: int(sf.Records(p)), Bytes: int64(sf.PartitionBytes(p))})
			}
		}
	} else {
		// Keep the segments as the engine returned them — freshly allocated
		// per task, never reused — and let the endpoint write each one's
		// header and then its arena bytes: nothing is encoded here.
		for p, seg := range segs {
			if seg.Len() > 0 {
				stats = append(stats, PartStat{Part: p, Recs: seg.Len(), Bytes: int64(seg.Bytes())})
			}
		}
		w.store.put(task.Epoch, task.Seq, segs)
	}
	return w.client.Call("Master.CompleteMap", MapDone{
		WorkerID: w.ID, Epoch: task.Epoch, Seq: task.Seq,
		Addr: w.shuffleAddr, PartStats: stats, Counters: counters,
	}, &Ack{})
}

// runReduceBg runs one streaming reduce attempt in the background. A hard
// error is recorded and stops the worker; the polling loop returns it.
func (w *Worker) runReduceBg(ctx context.Context, task Task) {
	defer w.bg.Done()
	sp := w.taskSpan(task)
	defer sp.End()
	if err := w.runReduceStreaming(ctx, task); err != nil {
		w.mu.Lock()
		// An error after Stop/Close is shutdown fallout (closed connection),
		// not a task failure — the same suppression the synchronous task
		// paths apply.
		if !w.stopped && w.bgErr == nil {
			w.bgErr = err
		}
		w.stopped = true
		w.mu.Unlock()
	}
}

// fetchServed pulls one served segment from its producing worker (or this
// worker's own store), looping the frame cursor until the producer reports
// no more frames: one segment for in-memory producers, the partition's
// frames in order for disk-backed ones. Any failure — dial, read, the
// producer no longer holding the segment, or a frame failing validation —
// is segment loss to the caller.
func (w *Worker) fetchServed(s TaggedSegment, epoch uint64, partition int) ([]mapreduce.Segment, error) {
	var segs []mapreduce.Segment
	for frame := 0; ; frame++ {
		seg, more, err := w.fetchServedFrame(s, epoch, partition, frame)
		if err != nil {
			return nil, fmt.Errorf("dist: worker %s: epoch %d map %d part %d frame %d from %s: %w",
				w.ID, epoch, s.MapSeq, partition, frame, s.Addr, err)
		}
		segs = append(segs, seg)
		if !more {
			return segs, nil
		}
	}
}

// fetchServedFrame pulls one frame of a served segment. The own store hands
// over its resident segment as it is.
func (w *Worker) fetchServedFrame(s TaggedSegment, epoch uint64, partition, frame int) (mapreduce.Segment, bool, error) {
	if s.Addr == w.shuffleAddr {
		f, ok := w.store.getFrame(epoch, s.MapSeq, partition, frame)
		if !ok {
			return mapreduce.Segment{}, false, errNotServed
		}
		seg, err := f.segment()
		return seg, f.more, err
	}
	seg, _, more, err := w.peers.pull(s.Addr, epoch, s.MapSeq, partition, frame)
	return seg, more, err
}

// runReduceStreaming fetches the task's partition segments from their
// producing workers as the map wave publishes them, then merges and reduces
// once the shuffle is complete. Unreachable segments are reported to the
// master (Master.ReportLostSegments) and the loop keeps streaming until the
// re-executed maps republish them. A Stale reply or cancellation abandons
// the attempt quietly (the job is gone, or the loop owner reports the
// cancellation).
func (w *Worker) runReduceStreaming(ctx context.Context, task Task) error {
	job, err := w.registry.Build(task.Job)
	if err != nil {
		w.reportFailure(task, err)
		return err
	}
	ref := taskRef(task, w.ID, w.class)
	pc := obs.NewPhaseClock(w.ob, ref)
	// The fetch loop is the distributed shuffle transport: time spent here —
	// including waits for the tail of the map wave and re-fetches after
	// segment loss — lands in the same merge-fetch bucket the in-process
	// collector charges its merges to.
	tFetch := pc.Start()
	byMap := make(map[int]TaggedSegment)             // latest publication per MapSeq
	fetchedSegs := make(map[int][]mapreduce.Segment) // resolved frames per MapSeq
	cursor := 0
	for {
		if w.isStopped() || ctx.Err() != nil {
			return nil
		}
		var reply FetchSegmentsReply
		err := w.heldCall(ctx, "Master.FetchSegments", FetchSegmentsArgs{
			WorkerID: w.ID, Epoch: task.Epoch, Partition: task.Seq, Cursor: cursor, Wait: w.pollInterval,
		}, &reply)
		if err != nil {
			if w.isStopped() || ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("dist: worker %s reduce %d fetch: %w", w.ID, task.Seq, err)
		}
		if reply.Stale {
			return nil
		}
		for _, s := range reply.Segments {
			// Latest-per-MapSeq: a replacement published by a re-executed
			// map supersedes the lost original, payload included.
			if _, ok := byMap[s.MapSeq]; ok {
				delete(fetchedSegs, s.MapSeq)
			}
			byMap[s.MapSeq] = s
		}
		cursor = reply.Cursor
		// Resolve unresolved entries. A segment whose producer is unreachable
		// is lost: report it (grouped per owner), drop the entry, and keep
		// streaming — the master re-executes the maps and the replacements
		// arrive under the same MapSeq.
		lost := make(map[string][]int)
		for seq, s := range byMap {
			if _, ok := fetchedSegs[seq]; ok {
				continue
			}
			segs, err := w.fetchServed(s, task.Epoch, task.Seq)
			if err != nil {
				lost[s.Owner] = append(lost[s.Owner], seq)
				continue
			}
			fetchedSegs[seq] = segs
		}
		for owner, seqs := range lost {
			sort.Ints(seqs)
			err := w.client.Call("Master.ReportLostSegments", SegmentsLost{
				WorkerID: w.ID, Epoch: task.Epoch, Partition: task.Seq,
				MapSeqs: seqs, Owner: owner,
			}, &Ack{})
			if err != nil {
				w.countReportError()
			}
			for _, seq := range seqs {
				delete(byMap, seq)
			}
		}
		if reply.Complete && len(lost) == 0 && len(fetchedSegs) == len(byMap) {
			break
		}
	}
	// Restore map-task order — the order the engine's stable merge is
	// defined over — regardless of fetch interleaving. A disk-backed segment
	// arrives as several frames — adjacent chunks of one sorted run — and
	// feeding them to the stable merge as consecutive slots reproduces the
	// whole-run merge byte for byte.
	seqs := make([]int, 0, len(byMap))
	for seq := range byMap {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	var parts []mapreduce.Segment
	var fetched int64
	for _, seq := range seqs {
		for _, seg := range fetchedSegs[seq] {
			parts = append(parts, seg)
			fetched += int64(seg.EncodedSize())
		}
	}
	pc.EmitIO(obs.PhaseMergeFetch, tFetch, fetched, 0)
	out, counters, err := mapreduce.ExecuteReduceSegObs(job, parts, ref, w.ob)
	if err != nil {
		w.reportFailure(task, err)
		return fmt.Errorf("dist: worker %s reduce %d: %w", w.ID, task.Seq, err)
	}
	w.mu.Lock()
	w.tasksRun++
	w.mu.Unlock()
	// The output waits in the store while the master pulls it from the
	// endpoint inside CompleteReduce; that call is the write phase.
	key := reduceKey(task.Seq)
	held := w.store.put(task.Epoch, key, []mapreduce.Segment{out})
	defer w.store.drop(task.Epoch, key, held)
	tWrite := pc.Start()
	err = w.client.Call("Master.CompleteReduce", ReduceDone{
		WorkerID: w.ID, Epoch: task.Epoch, Seq: task.Seq,
		Addr: w.shuffleAddr, Counters: counters,
	}, &Ack{})
	pc.EmitIO(obs.PhaseWrite, tWrite, 0, int64(out.EncodedSize()))
	return err
}

package dist

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"os"
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
	// attempts counts map attempts; the count names an attempt's spill
	// files, unique across re-executions of the same map (guarded by mu).
	attempts int

	mu      sync.Mutex
	stopped bool
	// tasksRun counts completed task attempts (observability/tests).
	tasksRun int
	// reportErrors counts beats carrying failure or loss reports, or a
	// completion flushed as the loop ends, that failed to reach the master.
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

// shuffleStore holds a worker's stored outputs: epoch → key (a map Seq, or a
// reduceKey) → output, resident or a segment file. It has its own lock
// because the endpoint's serving goroutines race the polling loop; disk
// reads happen outside the lock.
type shuffleStore struct {
	mu      sync.Mutex
	byEpoch map[uint64]map[int]*mapreduce.MapOutput
}

func newShuffleStore() *shuffleStore {
	return &shuffleStore{byEpoch: make(map[uint64]map[int]*mapreduce.MapOutput)}
}

func (s *shuffleStore) put(epoch uint64, key int, out *mapreduce.MapOutput) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.byEpoch[epoch]
	if e == nil {
		e = make(map[int]*mapreduce.MapOutput)
		s.byEpoch[epoch] = e
	}
	// A re-executed attempt replaces the entry and releases the superseded
	// spill file, never its own: file names are unique per attempt.
	if old := e[key]; old != nil {
		old.Remove()
	}
	e[key] = out
}

// drop removes the entry under key if it is still out: a later attempt may
// have replaced it.
func (s *shuffleStore) drop(epoch uint64, key int, out *mapreduce.MapOutput) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.byEpoch[epoch]; e[key] == out {
		delete(e, key)
	}
}

// frame serves frame i of a stored output's partition part. An error — no
// such task, partition or frame, or a spill file failing validation — is
// loss to the puller.
func (s *shuffleStore) frame(epoch uint64, key, part, i int) (mapreduce.Segment, []byte, bool, error) {
	s.mu.Lock()
	out := s.byEpoch[epoch][key]
	s.mu.Unlock()
	if out == nil {
		return mapreduce.Segment{}, nil, false, errNotServed
	}
	return out.Frame(part, i)
}

// prune drops stored output for every epoch not in the active set — the
// master piggybacks the set on every polling beat's reply, so finished
// jobs' segments (and their spill files) are released by the next poll.
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
			out.Remove()
		}
		delete(s.byEpoch, e)
	}
}

// ConnectWorker dials the master and returns a ready worker, configured by
// functional options: WithPollInterval bounds how long the master holds an
// idle call, WithSpillDir bounds map tasks by their sort buffer and serves
// their output from disk, WithCoreClass declares the node class and
// WithObserver attaches telemetry (dist.task spans, failure-report
// counters).
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

// report sends reps and lost at once, in a beat that does not poll.
func (w *Worker) report(reps []TaskReport, lost []SegmentsLost) error {
	return w.client.Call("Master.Heartbeat", Heartbeat{WorkerID: w.ID, Addr: w.shuffleAddr, Class: w.class, Reports: reps, Lost: lost}, &Task{})
}

// reportBestEffort sends reports whose loss the master's timeout and
// eviction paths cover; a beat that fails to reach the master is not
// dropped silently but counted (ReportErrors) and surfaced through the
// observer.
func (w *Worker) reportBestEffort(reps []TaskReport, lost []SegmentsLost) {
	if w.report(reps, lost) != nil {
		w.mu.Lock()
		w.reportErrors++
		w.mu.Unlock()
		w.ob.Count("dist.worker.report_errors", 1)
	}
}

// reportFailure tells the master to requeue a task this worker could not
// run.
func (w *Worker) reportFailure(task Task, cause error) {
	w.reportBestEffort([]TaskReport{{Epoch: task.Epoch, Kind: task.Kind, Seq: task.Seq, Failure: cause.Error()}}, nil)
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

// RunForeverCtx is the worker loop: its polling beats, each carrying the
// last map's completion, fetch tasks (an idle master holds a poll until
// there is work) that it executes, across jobs, until Stop is called (nil)
// or ctx is cancelled (an error wrapping ctx.Err(), at once). Any other
// return is the first hard error — task execution errors are hard: the job
// cannot succeed with a broken factory.
func (w *Worker) RunForeverCtx(ctx context.Context) error {
	// Background reduces end within a poll interval of Stop, and at once on
	// cancellation, a closed connection or a stale epoch (the retire wakes
	// their held fetch); wait for them so no attempt outlives the loop.
	defer w.bg.Wait()
	var done []TaskReport // completions for the next polling beat
	for !w.isStopped() && ctx.Err() == nil {
		var task Task
		poll := Heartbeat{WorkerID: w.ID, Addr: w.shuffleAddr, Class: w.class, Poll: true, Wait: w.pollInterval, Reports: done}
		err := w.heldCall(ctx, "Master.Heartbeat", poll, &task)
		done = nil // written to the connection: a beat whose reply is abandoned still lands
		if err != nil {
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
			rep, err := w.runMap(task)
			if err != nil {
				if w.isStopped() {
					break
				}
				return err
			}
			done = append(done, rep)
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
	if len(done) > 0 {
		w.reportBestEffort(done, nil) // the loop ended with no poll left to carry it
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dist: worker %s: cancelled: %w", w.ID, err)
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

// heldCall makes an RPC the master may hold (Heartbeat, FetchSegments),
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

// runMap executes one map task, the engine's, over its split's window and
// keeps its output here — resident, or under WithSpillDir in the one
// segment file its spills merged into — returning the completion for the
// master: per-partition accounting, the segments addressed by this
// worker's endpoint. A failure is reported at once.
func (w *Worker) runMap(task Task) (TaskReport, error) {
	sp := w.taskSpan(task)
	defer sp.End()
	job, err := w.registry.Build(task.Job)
	if err != nil {
		w.reportFailure(task, err)
		return TaskReport{}, err
	}
	w.mu.Lock()
	w.attempts++
	attempt := w.attempts
	w.mu.Unlock()
	out, counters, err := mapreduce.ExecuteMapTask(job, task.Window, task.Start, task.End, task.Job.NumReducers,
		w.spillDir, attempt, taskRef(task, w.ID, w.class), w.ob)
	if err != nil {
		w.reportFailure(task, err)
		return TaskReport{}, fmt.Errorf("dist: worker %s map %d: %w", w.ID, task.Seq, err)
	}
	w.mu.Lock()
	w.tasksRun++
	w.mu.Unlock()
	// The endpoint serves the output as it is: nothing is encoded here.
	w.store.put(task.Epoch, task.Seq, out)
	var stats []PartStat
	for p := range out.NumPartitions() {
		if recs := out.Records(p); recs > 0 {
			stats = append(stats, PartStat{Part: p, Recs: int(recs), Bytes: int64(out.Bytes(p))})
		}
	}
	return TaskReport{Epoch: task.Epoch, Kind: TaskMap, Seq: task.Seq, PartStats: stats, Counters: counters}, nil
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

// fetchServed pulls one served segment from its producing worker, or as it
// is from this worker's own store, looping the frame cursor until the
// producer reports no more frames: one segment for in-memory producers, the
// partition's frames in order for disk-backed ones. Any failure — dial,
// read, the producer no longer holding the segment, or a frame failing
// validation — is segment loss to the caller.
func (w *Worker) fetchServed(s TaggedSegment, epoch uint64, partition int) ([]mapreduce.Segment, error) {
	var segs []mapreduce.Segment
	for frame, more := 0, true; more; frame++ {
		var seg mapreduce.Segment
		var err error
		if s.Addr == w.shuffleAddr {
			seg, _, more, err = w.store.frame(epoch, s.MapSeq, partition, frame)
		} else {
			seg, _, more, err = w.peers.pull(s.Addr, epoch, s.MapSeq, partition, frame)
		}
		if err != nil {
			return nil, fmt.Errorf("dist: worker %s: epoch %d map %d part %d frame %d from %s: %w",
				w.ID, epoch, s.MapSeq, partition, frame, s.Addr, err)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// runReduceStreaming fetches the task's partition segments from their
// producing workers as the map wave publishes them, then merges and reduces
// once the shuffle is complete. Unreachable segments are reported to the
// master (one beat per fetch round) and the loop keeps streaming until the
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
		byOwner := make(map[string][]int)
		for seq, s := range byMap {
			if _, ok := fetchedSegs[seq]; ok {
				continue
			}
			segs, err := w.fetchServed(s, task.Epoch, task.Seq)
			if err != nil {
				byOwner[s.Owner] = append(byOwner[s.Owner], seq)
				continue
			}
			fetchedSegs[seq] = segs
		}
		var lost []SegmentsLost
		for owner, seqs := range byOwner {
			sort.Ints(seqs)
			lost = append(lost, SegmentsLost{Epoch: task.Epoch, Partition: task.Seq, MapSeqs: seqs, Owner: owner})
			for _, seq := range seqs {
				delete(byMap, seq)
			}
		}
		if len(lost) > 0 {
			w.reportBestEffort(nil, lost)
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
	// endpoint inside the beat that reports it; that beat is the write phase.
	key, held := reduceKey(task.Seq), mapreduce.ResidentOutput(out)
	w.store.put(task.Epoch, key, held)
	defer w.store.drop(task.Epoch, key, held)
	tWrite := pc.Start()
	err = w.report([]TaskReport{{Epoch: task.Epoch, Kind: TaskReduce, Seq: task.Seq, Counters: counters}}, nil)
	pc.EmitIO(obs.PhaseWrite, tWrite, 0, int64(out.EncodedSize()))
	return err
}

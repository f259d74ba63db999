package dist

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
)

// maxRetired bounds how many terminal jobs the master keeps for Handle and
// JobStatus lookups (and how much history a snapshot carries), and
// maxRetiredBytes the reduce output their results pin: a few large results
// age out before many small ones do.
const (
	maxRetired      = 32
	maxRetiredBytes = 64 * units.MB
)

// Master is the job coordinator. It is multi-tenant: Submit returns a
// JobHandle immediately, admitted jobs run concurrently under a
// fair/capacity scheduler, and workers connect over TCP and poll for
// tasks from any running job.
type Master struct {
	mu sync.Mutex

	registry *Registry
	listener net.Listener
	server   *rpc.Server
	// peers pulls finished reduce outputs from the workers' byte endpoints.
	peers *frameClient
	// defaults are the scheduling knobs every job on this master shares.
	defaults config
	ob       obs.Observer
	snapPath string
	closed   bool

	// epoch is the job generation counter: every submission takes the next
	// value, and every Task carries its job's epoch, so completion and
	// failure reports route to the right job (byEpoch) and reports from a
	// cancelled or finished job find no entry instead of being recorded
	// against a live one. It is persisted, so epochs stay unique across a
	// snapshot restart. Job IDs are "job-<epoch>".
	epoch uint64

	jobs    map[string]*jobState // queued + running, by ID
	byEpoch map[uint64]*jobState // queued + running, by epoch (report routing)
	order   []*jobState          // queued + running, in submission order
	retired []*jobState          // recently finished, for Handle/JobStatus
	history []JobStatus          // terminal statuses, oldest first

	workers *workerTable
	// changed is the generation channel held calls wait on (holdLocked);
	// wakeLocked closes and replaces it.
	changed chan struct{}

	// Master-lifetime totals (per-job counters die with the job).
	reassigned    int
	speculative   int
	earlyReduces  int
	evicted       int
	recoveredMaps int

	janitorStop chan struct{}
}

// StartMaster starts a master listening on addr ("127.0.0.1:0" for an
// ephemeral port), configured by functional options: WithTaskTimeout and
// WithSpeculativeFraction set the reissue and speculation ages of every
// job's tasks, WithMaxConcurrentJobs bounds the
// scheduler, WithWorkerTimeout sets the liveness window behind worker
// eviction, WithSnapshotPath enables crash recovery, and WithObserver
// attaches telemetry.
//
// When the snapshot path names an existing snapshot, the master restores it
// before accepting connections and resumes the jobs it holds.
func StartMaster(addr string, opts ...Option) (*Master, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: master listen: %w", err)
	}
	m := &Master{
		registry:    NewRegistry(),
		listener:    ln,
		server:      rpc.NewServer(),
		peers:       newFrameClient(),
		defaults:    cfg,
		ob:          cfg.observer,
		snapPath:    cfg.snapshotPath,
		jobs:        make(map[string]*jobState),
		byEpoch:     make(map[uint64]*jobState),
		workers:     newWorkerTable(),
		changed:     make(chan struct{}),
		janitorStop: make(chan struct{}),
	}
	if m.snapPath != "" {
		snap, err := loadSnapshot(m.snapPath)
		if err != nil {
			ln.Close()
			return nil, err
		}
		if snap != nil {
			m.mu.Lock()
			err = m.restoreLocked(snap)
			m.mu.Unlock()
		}
		if err != nil {
			m.Close() // releases the data files restored so far
			return nil, err
		}
		m.sweepDataFiles()
	}
	if err := m.server.RegisterName("Master", &masterRPC{m: m}); err != nil {
		ln.Close()
		return nil, err
	}
	go m.acceptLoop()
	go m.janitor()
	return m, nil
}

// Addr returns the master's listen address for workers to dial.
func (m *Master) Addr() string { return m.listener.Addr().String() }

// Close stops accepting connections and the liveness janitor; subsequent
// submissions fail with ErrMasterClosed. In-flight jobs are left as they
// stand — with WithSnapshotPath a new StartMaster at the same path resumes
// them, their data files included; a closed master persists nothing more.
func (m *Master) Close() error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.janitorStop)
		for _, js := range m.order {
			if js.data != nil {
				js.data.Close()
			}
		}
	}
	m.mu.Unlock()
	m.peers.close()
	return m.listener.Close()
}

// Registry exposes the job registry for custom registrations.
func (m *Master) Registry() *Registry { return m.registry }

func (m *Master) acceptLoop() {
	for {
		conn, err := m.listener.Accept()
		if err != nil {
			return
		}
		go m.server.ServeConn(conn)
	}
}

// janitor is the liveness sweep: workers silent past the timeout window are
// evicted — their in-flight tasks requeued and their served map output
// re-executed.
func (m *Master) janitor() {
	period := m.defaults.workerTimeout / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case now := <-ticker.C:
			m.mu.Lock()
			silent := m.workers.silent(m.defaults.workerTimeout, now)
			for _, w := range silent {
				m.evictWorkerLocked(w.ID, now)
			}
			if len(silent) > 0 {
				m.wakeLocked()
				m.saveSnapshotLocked()
			}
			m.mu.Unlock()
		}
	}
}

// Stats reports master-lifetime control counters for observability and
// tests. The per-job equivalents live in JobStatus.
type Stats struct {
	// Workers is the number of distinct workers that have polled.
	Workers int
	// Evicted is the number of workers declared dead after going silent (or
	// being reported unreachable by a reducer).
	Evicted int
	// Reassigned is the number of task attempts reissued after timeout,
	// failure report or eviction.
	Reassigned int
	// Speculative is the number of backup task attempts launched for
	// still-running stragglers.
	Speculative int
	// EarlyReduces is the number of reduce tasks dispatched before their map
	// wave had fully drained (slowstart-gated streaming shuffle).
	EarlyReduces int
	// RecoveredMaps is the number of completed map tasks re-executed because
	// their worker-served shuffle output was lost.
	RecoveredMaps int
}

// Stats returns the master's current statistics.
func (m *Master) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Workers:       len(m.workers.workers),
		Evicted:       m.evicted,
		Reassigned:    m.reassigned,
		Speculative:   m.speculative,
		EarlyReduces:  m.earlyReduces,
		RecoveredMaps: m.recoveredMaps,
	}
}

// Submit admits one job and returns immediately with its handle: the input
// is split into record-aligned chunks of roughly blockSize bytes (one map
// task each), the job queues behind the concurrent-job cap, and connected
// workers pick its tasks up alongside every other running job's. Wait on
// the handle for the result; ctx only bounds the admission itself (a
// cancelled ctx before admission fails the call — it is not attached to
// the job). With snapshots on, a job whose input cannot be written to its
// data file is refused: the master could not resume it.
func (m *Master) Submit(ctx context.Context, desc JobDescriptor, input []byte, blockSize int) (*JobHandle, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: submit cancelled: %w", err)
	}
	if desc.NumReducers < 1 {
		return nil, fmt.Errorf("%w: need at least one reducer", ErrInvalidJob)
	}
	if blockSize < 1 {
		return nil, fmt.Errorf("%w: block size must be positive, got %d", ErrInvalidJob, blockSize)
	}
	// Validate the descriptor builds locally before distributing, and
	// prepare sampler/f-list auxiliary data.
	if err := PrepareAux(&desc, input); err != nil {
		return nil, err
	}
	job, err := m.registry.Build(desc)
	if err == nil {
		err = job.Validate() // the config carries client-supplied numbers
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidJob, err)
	}
	chunks := mapreduce.SplitInput(input, blockSize)
	if len(chunks) == 0 {
		return nil, ErrEmptyInput
	}
	var data *os.File
	if m.snapPath != "" {
		if data, err = createDataFile(m.snapPath, input); err != nil {
			return nil, fmt.Errorf("dist: submit: persist input: %w", err)
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		removeDataFile(data)
		return nil, ErrMasterClosed
	}
	if len(m.jobs) >= maxQueuedJobs {
		removeDataFile(data)
		return nil, ErrQueueFull
	}
	m.epoch++
	js := newJobState(fmt.Sprintf("job-%d", m.epoch), m.epoch, desc, blockSize, chunks, time.Now())
	js.data, js.inputLen, js.dataEnd = data, int64(len(input)), int64(len(input))
	m.jobs[js.id] = js
	m.byEpoch[js.epoch] = js
	m.order = append(m.order, js)
	if m.ob.Enabled() {
		js.span = obs.Start(m.ob, "dist.submit",
			obs.Str("job", desc.Workload),
			obs.Str("id", js.id),
			obs.Int("maps", int64(len(chunks))),
			obs.Int("reducers", int64(desc.NumReducers)))
		m.ob.Progress("dist.map/"+js.id, 0, len(chunks))
	}
	m.promoteLocked()
	m.wakeLocked()
	m.saveSnapshotLocked()
	return &JobHandle{m: m, js: js}, nil
}

// abortJob moves a job to the cancelled state and retires it: its tasks
// leave the scheduler, workers polling for it are turned away, and
// in-flight completion reports find no job to land on. A finished job is
// left alone.
func (m *Master) abortJob(js *jobState, cause error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if js.finished() {
		return
	}
	js.state = JobCancelled
	js.err = fmt.Errorf("dist: job %s aborted: %w", js.desc.Workload, cause)
	m.retireLocked(js)
}

// finalizeLocked completes a job whose last reduce just landed: decode the
// partition outputs back to flat segments at the public Result boundary
// (string records are never materialized — a caller that wants them pays at
// Result.Output time) and retire the job. Called under m.mu.
func (m *Master) finalizeLocked(js *jobState) {
	output := make([]mapreduce.Segment, len(js.redOutputs))
	var ferr error
	for p, blob := range js.redOutputs {
		seg, err := mapreduce.DecodeSegment(blob)
		if err != nil {
			ferr = fmt.Errorf("dist: job %s: partition %d output: %w", js.desc.Workload, p, err)
			break
		}
		output[p] = seg
	}
	if ferr != nil {
		js.state = JobFailed
		js.err = ferr
	} else {
		res := mapreduce.NewResult(output, js.counters)
		res.Counters.MapTasks = len(js.mapTasks)
		res.Counters.ReduceTasks = js.desc.NumReducers
		js.state = JobDone
		js.result = res
	}
	m.retireLocked(js)
}

// retireLocked removes a terminal job from the active tables, records its
// final status, frees its task tables, wakes its waiters, admits queued
// work and persists — and only once a snapshot without the job is on disk
// deletes the job's data file. The jobState itself is kept on a bounded
// ring so handles stay answerable. Called under m.mu with js.state already
// terminal and result/err set.
func (m *Master) retireLocked(js *jobState) {
	js.finishedAt = time.Now()
	final := m.jobStatusLocked(js)
	js.final = &final
	m.history = append(m.history, final)
	if len(m.history) > maxRetired {
		m.history = m.history[len(m.history)-maxRetired:]
	}
	delete(m.jobs, js.id)
	delete(m.byEpoch, js.epoch)
	for i, o := range m.order {
		if o == js {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.retired = trimRetired(append(m.retired, js))
	js.clearTables()
	js.span.End()
	close(js.doneCh)
	m.promoteLocked()
	m.wakeLocked()
	if m.saveSnapshotLocked() {
		removeDataFile(js.data)
	} else if js.data != nil {
		js.data.Close()
	}
	js.data = nil
}

// trimRetired drops the oldest jobs from the retired ring while it holds
// more than maxRetired of them or their results pin more than
// maxRetiredBytes of output.
func trimRetired(ring []*jobState) []*jobState {
	var pinned units.Bytes
	for _, js := range ring {
		if js.result != nil {
			pinned += js.result.Counters.ReduceOutputBytes
		}
	}
	for len(ring) > maxRetired || pinned > maxRetiredBytes {
		if ring[0].result != nil {
			pinned -= ring[0].result.Counters.ReduceOutputBytes
		}
		ring = slices.Delete(ring, 0, 1) // zeroes the vacated slot
	}
	return ring
}

// promoteLocked admits queued jobs into the running set up to the
// concurrent-job cap, in submission order. Called under m.mu after any
// change that frees or fills a slot.
func (m *Master) promoteLocked() {
	running := 0
	for _, js := range m.order {
		if js.state == JobRunning {
			running++
		}
	}
	for _, js := range m.order {
		if running >= m.defaults.maxActiveJobs {
			break
		}
		if js.state != JobQueued {
			continue
		}
		js.state = JobRunning
		running++
		if m.ob.Enabled() {
			m.ob.Progress("dist.map/"+js.id, len(js.mapTasks)-js.mapsLeft, len(js.mapTasks))
		}
	}
}

// Handle returns the handle for a job by ID — the way a client reattaches
// to a job after a master restart (the IDs are stable across snapshot
// recovery). Terminal jobs stay reachable on a bounded ring.
func (m *Master) Handle(id string) (*JobHandle, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if js, ok := m.jobs[id]; ok {
		return &JobHandle{m: m, js: js}, true
	}
	for i := len(m.retired) - 1; i >= 0; i-- {
		if m.retired[i].id == id {
			return &JobHandle{m: m, js: m.retired[i]}, true
		}
	}
	return nil, false
}

// scheduleOrderLocked returns the running jobs in dispatch order: fewest
// in-flight tasks first (fair sharing), then submission order. Called under
// m.mu.
func (m *Master) scheduleOrderLocked() []*jobState {
	run := make([]*jobState, 0, len(m.order))
	load := make(map[*jobState]int, len(m.order))
	for _, js := range m.order {
		if js.state == JobRunning {
			run = append(run, js)
			load[js] = js.runningTasks()
		}
	}
	sort.SliceStable(run, func(i, j int) bool {
		a, b := run[i], run[j]
		if load[a] != load[b] {
			return load[a] < load[b]
		}
		return a.epoch < b.epoch
	})
	return run
}

// activeEpochsLocked lists every queued or running job's epoch — the
// piggyback on every GetTask reply that lets workers prune stored output of
// finished jobs. Called under m.mu.
func (m *Master) activeEpochsLocked() []uint64 {
	out := make([]uint64, 0, len(m.order))
	for _, js := range m.order {
		out = append(out, js.epoch)
	}
	return out
}

// nextTask hands the polling worker a task from the running jobs, or a
// speculative backup of an aging straggler run by a different worker, or
// TaskWait when there is nothing to run — an idle master included, so a
// worker that polls before the first submission keeps polling. Called under
// m.mu.
//
// Map tasks take priority across every job (they unblock shuffles); once a
// job passes its slowstart fraction of completed maps its reduce tasks
// become eligible too, so reducers stream segments while the tail of the
// map wave is still running. Jobs are visited in fair order, so one wide
// job cannot starve the rest.
func (m *Master) nextTask(workerID string) Task {
	now := time.Now()
	order := m.scheduleOrderLocked()
	for _, js := range order {
		if task, ok := m.assignFrom(js, js.mapTasks, workerID, now); ok {
			return task
		}
	}
	for _, js := range order {
		if !js.reduceEligible() {
			continue
		}
		if task, ok := m.assignFrom(js, js.redTasks, workerID, now); ok {
			if js.mapsLeft > 0 {
				js.earlyReduces++
				m.earlyReduces++
				m.ob.Count("dist.tasks.early_reduce", 1)
			}
			return task
		}
	}
	// Nothing pending anywhere: speculate on the oldest aging straggler
	// owned by someone else (first result wins; duplicates are discarded).
	specAge := time.Duration(float64(m.defaults.taskTimeout) * m.defaults.specFraction)
	var oldest *taskState
	var oldestJob *jobState
	for _, js := range order {
		pools := [][]*taskState{js.mapTasks}
		if js.reduceEligible() {
			pools = append(pools, js.redTasks)
		}
		for _, pool := range pools {
			for _, ts := range pool {
				if ts.done || !ts.assigned || ts.assignee == workerID {
					continue
				}
				if now.Sub(ts.assignedAt) < specAge {
					continue
				}
				if oldest == nil || ts.assignedAt.Before(oldest.assignedAt) {
					oldest, oldestJob = ts, js
				}
			}
		}
	}
	if oldest != nil {
		oldestJob.speculative++
		m.speculative++
		m.ob.Count("dist.tasks.speculative", 1)
		oldest.assignedAt = now // throttle repeated speculation
		oldest.assignee = workerID
		m.emitSchedule(oldestJob, oldest, workerID, now)
		return oldest.task
	}
	return Task{Kind: TaskWait}
}

// wakeLocked wakes every held call to retry; called under m.mu by each
// mutation that can create work or publish a segment.
func (m *Master) wakeLocked() {
	close(m.changed)
	m.changed = make(chan struct{})
}

// holdLocked runs try under m.mu until it reports done, waiting unlocked
// for the next wake between tries, for at most wait (capped at half the
// worker timeout, so a held worker is never evicted). The channel is read in
// the lock hold that ran try, so no wake is lost; the try at the deadline
// sees time-driven transitions (reissue, speculation).
func (m *Master) holdLocked(wait time.Duration, try func() bool) {
	until := time.Now().Add(min(wait, m.defaults.workerTimeout/2))
	for !try() && time.Now().Before(until) {
		changed, timer := m.changed, time.NewTimer(time.Until(until))
		m.mu.Unlock()
		select {
		case <-changed:
		case <-timer.C:
		}
		timer.Stop()
		m.mu.Lock()
	}
}

// emitSchedule reports one assignment's dispatch latency — ready-to-assigned
// — as a schedule phase interval attributed to the assignee and its declared
// core class (GetTask records the class before assigning); called under
// m.mu. Reissues and speculative backups emit again with the new worker, so
// every attempt's queueing delay is visible in the trace; for a queued job,
// the admission wait counts too.
func (m *Master) emitSchedule(js *jobState, ts *taskState, workerID string, now time.Time) {
	if !m.ob.Enabled() {
		return
	}
	kind := obs.KindMap
	if ts.task.Kind == TaskReduce {
		kind = obs.KindReduce
	}
	obs.EmitPhase(m.ob, obs.PhaseEvent{
		Task: obs.TaskRef{
			Job: js.desc.Workload, Kind: kind, Index: ts.task.Seq, Worker: workerID, Epoch: ts.task.Epoch,
			Class: m.workers.workers[workerID].Class,
		},
		Phase:    obs.PhaseSchedule,
		Start:    ts.readyAt,
		Duration: now.Sub(ts.readyAt),
	})
}

// assignFrom hands out the first pending or timed-out task in pool; called
// under m.mu.
func (m *Master) assignFrom(js *jobState, pool []*taskState, workerID string, now time.Time) (Task, bool) {
	for _, ts := range pool {
		if ts.done {
			continue
		}
		if ts.assigned && now.Sub(ts.assignedAt) < m.defaults.taskTimeout {
			continue
		}
		if ts.assigned {
			js.reassigned++
			m.reassigned++
			m.ob.Count("dist.tasks.reassigned", 1)
		}
		ts.assigned = true
		ts.assignee = workerID
		ts.assignedAt = now
		m.emitSchedule(js, ts, workerID, now)
		return ts.task, true
	}
	return Task{}, false
}

// completeMap records a map result and publishes references to the task's
// non-empty segments — they stay on the worker at res.Addr — to the job's
// streaming shuffle, where already-dispatched reducers pick them up on
// their next fetch. The accounting comes from the worker's own segment
// headers (PartStats). Duplicate completions (from reissued attempts) and
// stale completions (the job is gone) are ignored. Called under m.mu.
func (m *Master) completeMap(res *MapDone) {
	js := m.byEpoch[res.Epoch]
	if js == nil || js.mapTasks == nil ||
		res.Seq < 0 || res.Seq >= len(js.mapTasks) || js.mapTasks[res.Seq].done {
		return
	}
	ts := js.mapTasks[res.Seq]
	ts.done = true
	ts.assigned = false
	ts.owner = res.WorkerID
	js.counters.Add(res.Counters)
	for _, ps := range res.PartStats {
		if ps.Part < 0 || ps.Part >= len(js.partSegs) || ps.Recs == 0 {
			continue
		}
		js.partSegs[ps.Part] = append(js.partSegs[ps.Part], TaggedSegment{
			MapSeq: res.Seq, Addr: res.Addr, Owner: res.WorkerID,
		})
		js.counters.ShuffleSegments++
		js.counters.ShuffleBytes += units.Bytes(ps.Bytes)
	}
	js.mapsLeft--
	if m.ob.Enabled() {
		m.ob.Progress("dist.map/"+js.id, len(js.mapTasks)-js.mapsLeft, len(js.mapTasks))
	}
	m.wakeLocked()
	m.saveSnapshotLocked()
}

// fetchSegments answers one reducer's streaming fetch; called under m.mu.
// The reply is Stale — abandon the task — when the job is gone (aborted or
// finished). Complete can regress to false after a segment loss puts a map
// back in flight; fetch loops keep polling until Complete holds with every
// segment resolved.
func (m *Master) fetchSegments(args *FetchSegmentsArgs, reply *FetchSegmentsReply) {
	js := m.byEpoch[args.Epoch]
	if js == nil || js.partSegs == nil ||
		args.Partition < 0 || args.Partition >= len(js.partSegs) {
		reply.Stale = true
		return
	}
	segs := js.partSegs[args.Partition]
	cur := args.Cursor
	if cur < 0 {
		cur = 0
	}
	if cur > len(segs) {
		cur = len(segs)
	}
	if cur < len(segs) {
		reply.Segments = append([]TaggedSegment(nil), segs[cur:]...)
	}
	reply.Cursor = len(segs)
	reply.Complete = js.mapsLeft == 0
	// A reducer actively streaming is alive: refresh its lease so a long
	// fetch wait behind a slow map wave does not read as a timeout and
	// trigger a spurious reassignment.
	if args.Partition < len(js.redTasks) {
		if ts := js.redTasks[args.Partition]; ts != nil && ts.assigned && !ts.done && ts.assignee == args.WorkerID {
			ts.assignedAt = time.Now()
		}
	}
}

// completeReduce records a reduce result and its pulled output; duplicates
// and stale completions ignored. The last reduce finalizes the job. Called
// under m.mu.
func (m *Master) completeReduce(res *ReduceDone, output []byte) {
	js := m.byEpoch[res.Epoch]
	if js == nil || js.redTasks == nil ||
		res.Seq < 0 || res.Seq >= len(js.redTasks) || js.redTasks[res.Seq].done {
		return
	}
	js.reduceDone(res.Seq, output)
	js.counters.Add(res.Counters)
	if m.ob.Enabled() {
		m.ob.Progress("dist.reduce/"+js.id, len(js.redTasks)-js.redsLeft, len(js.redTasks))
	}
	// The last output is never persisted: the job retires right here.
	if js.redsLeft == 0 {
		m.finalizeLocked(js)
	} else {
		m.persistOutputLocked(js, res.Seq, output)
		m.wakeLocked()
		m.saveSnapshotLocked()
	}
}

// reportLostSegments handles a reducer's segment-loss report: every named
// map still owned by the unreachable worker is invalidated (re-queued for
// execution — its replacement publishes under the same MapSeq), and the
// owner itself is evicted so its other served output and in-flight tasks
// recover without waiting for more fetch failures. A map that already
// re-executed elsewhere is left alone — the Owner guard makes stale
// reports harmless. Called under m.mu.
func (m *Master) reportLostSegments(args *SegmentsLost) {
	now := time.Now()
	changed := false
	if js := m.byEpoch[args.Epoch]; js != nil && js.mapTasks != nil {
		for _, seq := range args.MapSeqs {
			if seq < 0 || seq >= len(js.mapTasks) {
				continue
			}
			ts := js.mapTasks[seq]
			if ts.owner != args.Owner {
				continue
			}
			if js.invalidateMap(ts, now) {
				m.recoveredMaps++
				m.ob.Count("dist.tasks.recovered", 1)
				changed = true
			}
		}
		if changed && m.ob.Enabled() {
			m.ob.Progress("dist.map/"+js.id, len(js.mapTasks)-js.mapsLeft, len(js.mapTasks))
		}
	}
	if args.Owner != "" {
		if w := m.workers.workers[args.Owner]; w != nil && !w.Evicted {
			m.evictWorkerLocked(args.Owner, now)
			changed = true
		}
	}
	if changed {
		m.wakeLocked()
		m.saveSnapshotLocked()
	}
}

// evictWorkerLocked declares a worker dead: its in-flight assignments are
// requeued across every active job, and its completed maps — whose shuffle
// output it was serving — are invalidated for re-execution. A fresh poll
// resurrects the worker, but its revoked tasks stay revoked. Called under
// m.mu.
func (m *Master) evictWorkerLocked(id string, now time.Time) {
	w := m.workers.workers[id]
	if w == nil || w.Evicted {
		return
	}
	w.Evicted = true
	m.evicted++
	m.ob.Count("dist.workers.evicted", 1)
	for _, js := range m.order {
		mapsChanged := false
		requeue := func(ts *taskState) {
			ts.assigned = false
			ts.readyAt = now
			js.reassigned++
			m.reassigned++
			m.ob.Count("dist.tasks.reassigned", 1)
		}
		for _, ts := range js.mapTasks {
			if ts.assigned && !ts.done && ts.assignee == id {
				requeue(ts)
			}
			if ts.done && ts.owner == id && js.invalidateMap(ts, now) {
				m.recoveredMaps++
				m.ob.Count("dist.tasks.recovered", 1)
				mapsChanged = true
			}
		}
		for _, ts := range js.redTasks {
			if ts.assigned && !ts.done && ts.assignee == id {
				requeue(ts)
			}
		}
		if mapsChanged && m.ob.Enabled() {
			m.ob.Progress("dist.map/"+js.id, len(js.mapTasks)-js.mapsLeft, len(js.mapTasks))
		}
	}
}

// masterRPC is the RPC facade; it keeps the exported method set separate
// from the Master's own API. Every call doubles as a liveness touch for the
// calling worker.
type masterRPC struct {
	m *Master
}

// GetTask hands the polling worker its next task, held while there is none;
// every reply carries the active epochs. dist.rpc.get_task ticks once per
// call — a strictly monotone series the live /metrics smoke test leans on.
func (r *masterRPC) GetTask(args GetTaskArgs, reply *Task) error {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	r.m.ob.Count("dist.rpc.get_task", 1)
	w := r.m.workers.touch(args.WorkerID, args.Addr, time.Now())
	if args.Class != "" {
		w.Class = args.Class
	}
	r.m.holdLocked(args.Wait, func() bool {
		*reply = r.m.nextTask(args.WorkerID)
		return reply.Kind != TaskWait
	})
	reply.ActiveEpochs = r.m.activeEpochsLocked()
	return nil
}

// CompleteMap records a finished map task. A completion that names no
// shuffle address has no fetchable output and is refused; the task stays
// assigned and the timeout path reissues it.
func (r *masterRPC) CompleteMap(res MapDone, _ *Ack) error {
	if res.Addr == "" {
		return fmt.Errorf("dist: map completion from %s (epoch %d seq %d) names no shuffle address", res.WorkerID, res.Epoch, res.Seq)
	}
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	r.m.workers.touch(res.WorkerID, res.Addr, time.Now())
	r.m.completeMap(&res)
	return nil
}

// FetchSegments streams one partition's shuffle segments to the fetching
// reducer from its cursor forward, held while there is nothing new. Workers
// call it in a loop until the reply is Complete (map wave drained, every
// segment delivered) or Stale (the job is gone; abandon the task).
func (r *masterRPC) FetchSegments(args FetchSegmentsArgs, reply *FetchSegmentsReply) error {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	r.m.workers.touch(args.WorkerID, "", time.Now())
	r.m.holdLocked(args.Wait, func() bool {
		*reply = FetchSegmentsReply{}
		r.m.fetchSegments(&args, reply)
		return len(reply.Segments) > 0 || reply.Complete || reply.Stale
	})
	return nil
}

// CompleteReduce records a finished reduce task. The output is pulled from
// the reducer's byte endpoint before m.mu is taken, so the transfer never
// holds up the control plane; the call stays the commit point, since the
// worker holds the output until it returns. A completion naming no
// endpoint, or whose output cannot be pulled, is refused; the task stays
// assigned and the timeout path reissues it.
func (r *masterRPC) CompleteReduce(res ReduceDone, _ *Ack) error {
	if res.Addr == "" {
		return fmt.Errorf("dist: reduce completion from %s (epoch %d seq %d) names no endpoint", res.WorkerID, res.Epoch, res.Seq)
	}
	_, output, _, err := r.m.peers.pull(res.Addr, res.Epoch, reduceKey(res.Seq), 0, 0)
	if err != nil {
		return fmt.Errorf("dist: reduce %d output from %s (epoch %d): %w", res.Seq, res.Addr, res.Epoch, err)
	}
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	r.m.workers.touch(res.WorkerID, "", time.Now())
	r.m.completeReduce(&res, output)
	return nil
}

// ReportFailure requeues a task whose worker hit an execution error: the
// assignment is cleared so the next poll can hand it out again. Stale
// reports (the job is gone) are ignored.
func (r *masterRPC) ReportFailure(f TaskFailed, _ *Ack) error {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	r.m.workers.touch(f.WorkerID, "", time.Now())
	js := r.m.byEpoch[f.Epoch]
	if js == nil {
		return nil
	}
	pool := js.mapTasks
	if f.Kind == TaskReduce {
		pool = js.redTasks
	}
	if f.Seq < 0 || f.Seq >= len(pool) || pool[f.Seq] == nil || pool[f.Seq].done {
		return nil
	}
	ts := pool[f.Seq]
	if ts.assigned && ts.assignee == f.WorkerID {
		ts.assigned = false
		js.reassigned++
		r.m.reassigned++
		r.m.ob.Count("dist.tasks.reassigned", 1)
		r.m.wakeLocked()
	}
	return nil
}

// ReportLostSegments records shuffle segments a reducer could not fetch:
// the affected maps re-execute and the unreachable owner is evicted.
func (r *masterRPC) ReportLostSegments(args SegmentsLost, _ *Ack) error {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	r.m.workers.touch(args.WorkerID, "", time.Now())
	r.m.reportLostSegments(&args)
	return nil
}

// Submit accepts a remote job submission over RPC and blocks until the job
// completes, returning the full result to the client.
func (r *masterRPC) Submit(args SubmitArgs, reply *mapreduce.Result) error {
	ctx := context.Background()
	h, err := r.m.Submit(ctx, args.Desc, args.Input, args.BlockSize)
	if err != nil {
		return err
	}
	res, err := h.Wait(ctx)
	if err != nil {
		return err
	}
	*reply = *res
	return nil
}

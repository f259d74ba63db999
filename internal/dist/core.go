package dist

// core.go is the master's state machine: the job and worker tables, every
// rule that changes them and the status views. It has no goroutine, lock,
// file, socket or clock: each transition takes the time and reports whether
// to wake held calls and whether to write the snapshot. With snapshots on,
// each transition that must survive a restart also appends its journal
// record (journal.go) to the pending batch the driver writes.

import (
	"fmt"
	"slices"
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

// workerInfo is one worker's liveness record in the master's table.
type workerInfo struct {
	// ID is the worker's self-declared identity.
	ID string
	// Addr is the worker's shuffle-serve address.
	Addr string
	// Class is the worker's declared core class ("" when undeclared); set
	// from the poll that carries it, kept across touches that do not.
	Class string
	// LastSeen is the last poll/fetch/completion touch.
	LastSeen time.Time
	// Evicted marks a worker declared dead after missing the liveness
	// window; a fresh poll resurrects it.
	Evicted bool
}

// core is the master's whole state and every rule over it (file comment).
type core struct {
	cfg config
	ob  obs.Observer

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

	workers map[string]*workerInfo
	stats   Stats // lifetime totals; Workers is filled in when read

	// journal is set with snapshots on; batch then holds the records of the
	// transitions since the driver last took it (takeBatch).
	journal bool
	batch   []byte
}

func newCore(cfg config) *core {
	return &core{
		cfg:     cfg,
		ob:      cfg.observer,
		jobs:    make(map[string]*jobState),
		byEpoch: make(map[uint64]*jobState),
		workers: make(map[string]*workerInfo),
		journal: cfg.snapshotPath != "",
	}
}

// jobID is the ID of the job admitted at epoch.
func jobID(epoch uint64) string { return fmt.Sprintf("job-%d", epoch) }

// touch refreshes (or creates) a worker's record; an evicted worker that
// calls again rejoins as live. A non-empty addr or class is recorded.
func (c *core) touch(id, addr, class string, now time.Time) {
	w := c.workers[id]
	if w == nil {
		w = &workerInfo{ID: id}
		c.workers[id] = w
	}
	w.LastSeen, w.Evicted = now, false
	if addr != "" {
		w.Addr = addr
	}
	if class != "" {
		w.Class = class
	}
}

// workerIDs lists the worker table in ID order, not Go's map order.
func (c *core) workerIDs() []string {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// admit queues a job over input, cut into blockSize-byte splits, and runs
// it at once when a slot is free; dataFile names the input's copy beside
// the snapshot. It returns nil when the master already holds maxQueuedJobs
// jobs.
func (c *core) admit(desc JobDescriptor, blockSize int, input []byte, dataFile string, now time.Time) (js *jobState, wake, save bool) {
	if len(c.jobs) >= maxQueuedJobs {
		return nil, false, false
	}
	c.epoch++
	js = newJobState(jobID(c.epoch), c.epoch, desc, blockSize, len(input), now)
	js.setInput(input)
	js.dataFile = dataFile
	if c.journal {
		c.batch = appendJob(c.batch, js)
	}
	c.jobs[js.id], c.byEpoch[js.epoch] = js, js
	c.order = append(c.order, js)
	if c.ob.Enabled() {
		js.span = obs.Start(c.ob, "dist.submit",
			obs.Str("job", desc.Workload),
			obs.Str("id", js.id),
			obs.Int("maps", int64(len(js.mapTasks))),
			obs.Int("reducers", int64(desc.NumReducers)))
		c.mapProgress(js)
	}
	c.promote()
	return js, true, true
}

// mapProgress reports a job's map progress to the observer.
func (c *core) mapProgress(js *jobState) {
	if c.ob.Enabled() {
		c.ob.Progress("dist.map/"+js.id, len(js.mapTasks)-js.mapsLeft, len(js.mapTasks))
	}
}

// promote admits queued jobs into the running set up to the concurrent-job
// cap, in submission order; run after any change that frees or fills a
// slot.
func (c *core) promote() {
	running := 0
	for _, js := range c.order {
		if js.state == JobRunning {
			running++
		}
	}
	for _, js := range c.order {
		if running >= c.cfg.maxActiveJobs {
			break
		}
		if js.state != JobQueued {
			continue
		}
		js.state = JobRunning
		running++
		c.mapProgress(js)
	}
}

// scheduleOrder returns the running jobs in dispatch order: fewest
// in-flight tasks first (fair sharing), then submission order (c.order's,
// kept by the stable sort).
func (c *core) scheduleOrder() []*jobState {
	run := make([]*jobState, 0, len(c.order))
	load := make(map[*jobState]int, len(c.order))
	for _, js := range c.order {
		if js.state == JobRunning {
			run = append(run, js)
			load[js] = js.runningTasks()
		}
	}
	slices.SortStableFunc(run, func(a, b *jobState) int { return load[a] - load[b] })
	return run
}

// activeEpochs lists every queued or running job's epoch — the piggyback on
// every polling beat's reply that lets workers prune stored output of
// finished jobs.
func (c *core) activeEpochs() []uint64 {
	out := make([]uint64, 0, len(c.order))
	for _, js := range c.order {
		out = append(out, js.epoch)
	}
	return out
}

// nextTask hands the polling worker a task from the running jobs, or a
// speculative backup of an aging straggler run by a different worker, or
// TaskWait when there is nothing to run — an idle master included, so a
// worker that polls before the first submission keeps polling — or when
// the worker was evicted while its call was held. Assignments are not
// persisted: a restart clears them.
//
// Map tasks take priority across every job (they unblock shuffles); once a
// job passes its slowstart fraction of completed maps its reduce tasks
// become eligible too, so reducers stream segments while the tail of the
// map wave is still running. Jobs are visited in fair order, so one wide
// job cannot starve the rest.
func (c *core) nextTask(workerID string, now time.Time) Task {
	if w := c.workers[workerID]; w == nil || w.Evicted {
		return Task{Kind: TaskWait}
	}
	order := c.scheduleOrder()
	for _, js := range order {
		if task, ok := c.assignFrom(js, js.mapTasks, workerID, now); ok {
			return task
		}
	}
	for _, js := range order {
		if !js.reduceEligible() {
			continue
		}
		if task, ok := c.assignFrom(js, js.redTasks, workerID, now); ok {
			if js.mapsLeft > 0 {
				js.earlyReduces++
				c.stats.EarlyReduces++
				c.ob.Count("dist.tasks.early_reduce", 1)
			}
			return task
		}
	}
	// Nothing pending anywhere: speculate on the oldest aging straggler
	// owned by someone else (first result wins; duplicates are discarded).
	specAge := time.Duration(float64(c.cfg.taskTimeout) * c.cfg.specFraction)
	var oldest *taskState
	var oldestJob *jobState
	for _, js := range order {
		pool := js.mapTasks
		if js.reduceEligible() {
			pool = slices.Concat(js.mapTasks, js.redTasks)
		}
		for _, ts := range pool {
			if ts.done || !ts.assigned || ts.assignee == workerID || now.Sub(ts.assignedAt) < specAge {
				continue
			}
			if oldest == nil || ts.assignedAt.Before(oldest.assignedAt) {
				oldest, oldestJob = ts, js
			}
		}
	}
	if oldest == nil {
		return Task{Kind: TaskWait}
	}
	oldestJob.speculative++
	c.stats.Speculative++
	c.ob.Count("dist.tasks.speculative", 1)
	// Ready since the attempt reached the speculation age; assigning
	// restarts the age, which throttles repeated speculation.
	oldest.readyAt = oldest.assignedAt.Add(specAge)
	return c.assign(oldestJob, oldest, workerID, now)
}

// assignFrom hands out the first pending or timed-out task in pool; a
// timed-out one has been ready again since its lease ran out.
func (c *core) assignFrom(js *jobState, pool []*taskState, workerID string, now time.Time) (Task, bool) {
	for _, ts := range pool {
		if ts.done || ts.assigned && now.Sub(ts.assignedAt) < c.cfg.taskTimeout {
			continue
		}
		if ts.assigned {
			c.requeue(js, ts, ts.assignedAt.Add(c.cfg.taskTimeout))
		}
		return c.assign(js, ts, workerID, now), true
	}
	return Task{}, false
}

// assign hands ts to workerID and reports its dispatch latency —
// ready-to-assigned — as a schedule phase interval attributed to the
// assignee and its declared core class. Reissues and speculative backups
// emit again with the new worker, so every attempt's queueing delay is
// visible in the trace; for a queued job, the admission wait counts too.
func (c *core) assign(js *jobState, ts *taskState, workerID string, now time.Time) Task {
	ts.assigned, ts.assignee, ts.assignedAt = true, workerID, now
	if c.ob.Enabled() {
		obs.EmitPhase(c.ob, obs.PhaseEvent{
			Task:     taskRef(ts.task, workerID, c.workers[workerID].Class),
			Phase:    obs.PhaseSchedule,
			Start:    ts.readyAt,
			Duration: now.Sub(ts.readyAt),
		})
	}
	return ts.task
}

// requeue takes an in-flight task back, dispatchable again from readyAt:
// the one rule behind every failure, eviction and lease-expiry reissue.
func (c *core) requeue(js *jobState, ts *taskState, readyAt time.Time) {
	ts.assigned = false
	ts.readyAt = readyAt
	js.reassigned++
	c.stats.Reassigned++
	c.ob.Count("dist.tasks.reassigned", 1)
}

// completeMap records worker's map result and publishes references to the
// task's non-empty segments — they stay on the worker at addr — to the
// job's streaming shuffle, where already-dispatched reducers pick them up
// on their next fetch. The accounting comes from the worker's own segment
// headers (PartStats). Duplicate completions (from reissued attempts) and
// stale completions (the job is gone) are ignored.
func (c *core) completeMap(worker, addr string, res *TaskReport, now time.Time) (wake, save bool) {
	js := c.byEpoch[res.Epoch]
	if js == nil || res.Seq < 0 || res.Seq >= len(js.mapTasks) || js.mapTasks[res.Seq].done {
		return false, false
	}
	ts := js.mapTasks[res.Seq]
	ts.done = true
	ts.assigned = false
	ts.owner = worker
	js.counters.Add(res.Counters)
	for _, ps := range res.PartStats {
		if !published(ps, len(js.partSegs)) {
			continue
		}
		js.partSegs[ps.Part] = append(js.partSegs[ps.Part], TaggedSegment{
			MapSeq: res.Seq, Addr: addr, Owner: worker,
		})
		js.counters.ShuffleSegments++
		js.counters.ShuffleBytes += units.Bytes(ps.Bytes)
	}
	js.mapsLeft--
	if c.journal {
		c.batch = appendMapDone(c.batch, js, res.Seq, worker, addr, res.PartStats)
	}
	c.mapProgress(js)
	return true, true
}

// fetchSegments answers one reducer's streaming fetch. The reply is Stale —
// abandon the task — when the job is gone (aborted or finished). Complete
// can regress to false after a segment loss puts a map back in flight;
// fetch loops keep polling until Complete holds with every segment
// resolved. A reducer actively streaming is alive: the fetch refreshes its
// lease, so a long wait behind a slow map wave does not read as a timeout
// and trigger a spurious reassignment.
func (c *core) fetchSegments(args *FetchSegmentsArgs, reply *FetchSegmentsReply, now time.Time) {
	js := c.byEpoch[args.Epoch]
	if js == nil || args.Partition < 0 || args.Partition >= len(js.partSegs) {
		reply.Stale = true
		return
	}
	segs := js.partSegs[args.Partition]
	cur := min(max(args.Cursor, 0), len(segs))
	if cur < len(segs) {
		reply.Segments = append([]TaggedSegment(nil), segs[cur:]...)
	}
	reply.Cursor = len(segs)
	reply.Complete = js.mapsLeft == 0
	if ts := js.redTasks[args.Partition]; ts.assigned && !ts.done && ts.assignee == args.WorkerID {
		ts.assignedAt = now
	}
}

// acceptsReduce reports whether a completion of reduce seq of the job at
// epoch would be recorded: the job is active and the partition not done.
// The driver pulls only such outputs.
func (c *core) acceptsReduce(epoch uint64, seq int) bool {
	js := c.byEpoch[epoch]
	return js != nil && seq >= 0 && seq < len(js.redTasks) && !js.redTasks[seq].done
}

// keepsOutput reports whether the driver should write a reduce output to
// the job's data file before reporting it: the core would accept it, and it
// does not finish the job — a retirement record stands for the last one.
func (c *core) keepsOutput(epoch uint64, seq int) bool {
	return c.acceptsReduce(epoch, seq) && c.byEpoch[epoch].redsLeft > 1
}

// completeReduce records a reduce result and its pulled output, written at
// e in the job's data file (empty when it was not written); duplicates and
// stale completions are ignored. The last reduce finalizes the job.
func (c *core) completeReduce(res *TaskReport, output []byte, e extent, now time.Time) (wake, save bool) {
	if !c.acceptsReduce(res.Epoch, res.Seq) {
		return false, false
	}
	js := c.byEpoch[res.Epoch]
	js.reduceDone(res.Seq, output)
	js.outExt[res.Seq] = e
	js.counters.Add(res.Counters)
	if c.ob.Enabled() {
		c.ob.Progress("dist.reduce/"+js.id, len(js.redTasks)-js.redsLeft, len(js.redTasks))
	}
	if js.redsLeft == 0 {
		c.finalize(js, now)
	} else if c.journal {
		c.batch = appendReduceDone(c.batch, js, res.Seq, e)
	}
	return true, true
}

// reportFailure requeues a task whose worker hit an execution error, so the
// next poll can hand it out again. Reports from anyone but the current
// assignee, for a finished task or for a job that is gone are ignored.
func (c *core) reportFailure(worker string, f *TaskReport, now time.Time) (wake, save bool) {
	js := c.byEpoch[f.Epoch]
	if js == nil {
		return false, false
	}
	pool := js.mapTasks
	if f.Kind == TaskReduce {
		pool = js.redTasks
	}
	if f.Seq < 0 || f.Seq >= len(pool) {
		return false, false
	}
	ts := pool[f.Seq]
	if ts.done || !ts.assigned || ts.assignee != worker {
		return false, false
	}
	c.requeue(js, ts, now)
	return true, false
}

// reportLostSegments handles a reducer's segment-loss report: every named
// map still owned by the unreachable worker is invalidated (re-queued for
// execution — its replacement publishes under the same MapSeq), and the
// owner itself is evicted so its other served output and in-flight tasks
// recover without waiting for more fetch failures. A map that already
// re-executed elsewhere is left alone — the Owner guard makes stale
// reports harmless.
func (c *core) reportLostSegments(args *SegmentsLost, now time.Time) (wake, save bool) {
	js, recovered := c.byEpoch[args.Epoch], false
	for _, seq := range args.MapSeqs {
		if js != nil && seq >= 0 && seq < len(js.mapTasks) && js.mapTasks[seq].owner == args.Owner {
			recovered = c.invalidateMap(js, js.mapTasks[seq], now) || recovered
		}
	}
	if recovered {
		c.mapProgress(js)
	}
	evicted := args.Owner != "" && c.evict(args.Owner, now)
	return recovered || evicted, recovered || evicted
}

// invalidateMap re-enqueues a completed map task whose shuffle output is
// gone (its serving worker died): the task re-executes and republishes.
// Returns false when the task is not done.
func (c *core) invalidateMap(js *jobState, ts *taskState, now time.Time) bool {
	if !ts.done {
		return false
	}
	ts.done = false
	ts.assigned = false
	ts.owner = ""
	ts.readyAt = now
	js.mapsLeft++
	js.recoveredMaps++
	c.stats.RecoveredMaps++
	c.ob.Count("dist.tasks.recovered", 1)
	if c.journal {
		c.batch = appendMapLost(c.batch, js, ts.task.Seq)
	}
	return true
}

// tick is the liveness sweep: workers silent past the timeout window are
// evicted, in ID order.
func (c *core) tick(now time.Time) (wake, save bool) {
	evicted := false
	for _, id := range c.workerIDs() {
		if w := c.workers[id]; !w.Evicted && now.Sub(w.LastSeen) > c.cfg.workerTimeout && c.evict(id, now) {
			evicted = true
		}
	}
	return evicted, evicted
}

// evict declares a worker dead: its in-flight assignments are requeued
// across every active job, and its completed maps — whose shuffle output
// it was serving — are invalidated for re-execution. A fresh call
// resurrects the worker, but its revoked tasks stay revoked. Reports
// whether a live worker was evicted.
func (c *core) evict(id string, now time.Time) bool {
	w := c.workers[id]
	if w == nil || w.Evicted {
		return false
	}
	w.Evicted = true
	c.stats.Evicted++
	c.ob.Count("dist.workers.evicted", 1)
	if c.journal {
		c.batch = appendWorker(c.batch, w)
	}
	for _, js := range c.order {
		for _, ts := range slices.Concat(js.mapTasks, js.redTasks) {
			if ts.assigned && !ts.done && ts.assignee == id {
				c.requeue(js, ts, now)
			}
		}
		recovered := false
		for _, ts := range js.mapTasks {
			if ts.owner == id && c.invalidateMap(js, ts, now) {
				recovered = true
			}
		}
		if recovered {
			c.mapProgress(js)
		}
	}
	return true
}

// abort moves a job to the cancelled state and retires it: its tasks leave
// the scheduler, workers polling for it are turned away, and in-flight
// completion reports find no job to land on. A finished job is left alone.
func (c *core) abort(js *jobState, cause error, now time.Time) (wake, save bool) {
	if js.finished() {
		return false, false
	}
	js.state = JobCancelled
	js.err = fmt.Errorf("dist: job %s aborted: %w", js.desc.Workload, cause)
	c.retire(js, now)
	return true, true
}

// finalize completes a job whose last reduce just landed: decode the
// partition outputs back to flat segments at the public Result boundary
// (string records are never materialized — a caller that wants them pays at
// Result.Output time) and retire the job.
func (c *core) finalize(js *jobState, now time.Time) {
	output := make([]mapreduce.Segment, len(js.redOutputs))
	for p, blob := range js.redOutputs {
		seg, err := mapreduce.DecodeSegment(blob)
		if err != nil {
			js.state = JobFailed
			js.err = fmt.Errorf("dist: job %s: partition %d output: %w", js.desc.Workload, p, err)
			c.retire(js, now)
			return
		}
		output[p] = seg
	}
	res := mapreduce.NewResult(output, js.counters)
	res.Counters.MapTasks = len(js.mapTasks)
	res.Counters.ReduceTasks = js.desc.NumReducers
	js.state = JobDone
	js.result = res
	c.retire(js, now)
}

// retire removes a terminal job from the active tables, records its final
// status, frees its task tables, wakes its waiters and admits queued work.
// The jobState itself is kept on a bounded ring so handles stay
// answerable. Called with js.state already terminal and result/err set.
func (c *core) retire(js *jobState, now time.Time) {
	final := c.jobStatus(js)
	js.final = &final
	if c.journal {
		c.batch = appendRetire(c.batch, &final)
	}
	c.closeOut(js, final)
	c.retired = trimRetired(append(c.retired, js))
	js.clearTables()
	js.span.End()
	close(js.doneCh)
	c.promote()
}

// closeOut appends a terminal job's final status to the bounded history
// and removes the job, when it is active (js non-nil), from the active
// tables.
func (c *core) closeOut(js *jobState, final JobStatus) {
	c.history = append(c.history, final)
	if len(c.history) > maxRetired {
		c.history = c.history[len(c.history)-maxRetired:]
	}
	if js != nil {
		delete(c.jobs, js.id)
		delete(c.byEpoch, js.epoch)
		c.order = slices.DeleteFunc(c.order, func(o *jobState) bool { return o == js })
	}
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

// lookup finds a job by ID: active jobs, then the retired ring.
func (c *core) lookup(id string) *jobState {
	if js, ok := c.jobs[id]; ok {
		return js
	}
	for i := len(c.retired) - 1; i >= 0; i-- {
		if c.retired[i].id == id {
			return c.retired[i]
		}
	}
	return nil
}

// jobStatus summarizes one job. Terminal jobs serve the status frozen at
// retirement (their tables are freed).
func (c *core) jobStatus(js *jobState) JobStatus {
	if js.final != nil {
		return *js.final
	}
	return JobStatus{
		ID:            js.id,
		State:         js.state,
		Epoch:         js.epoch,
		Workload:      js.desc.Workload,
		Phase:         js.phase(),
		MapsDone:      len(js.mapTasks) - js.mapsLeft,
		MapsTotal:     len(js.mapTasks),
		ReducesDone:   len(js.redTasks) - js.redsLeft,
		ReducesTotal:  len(js.redTasks),
		Reassigned:    js.reassigned,
		Speculative:   js.speculative,
		EarlyReduces:  js.earlyReduces,
		RecoveredMaps: js.recoveredMaps,
	}
}

// statusByID is Master.JobStatus's view.
func (c *core) statusByID(id string) (JobStatus, bool) {
	if js, ok := c.jobs[id]; ok {
		return c.jobStatus(js), true
	}
	for i := len(c.history) - 1; i >= 0; i-- {
		if c.history[i].ID == id {
			return c.history[i], true
		}
	}
	return JobStatus{}, false
}

// statuses is Master.Jobs's view.
func (c *core) statuses() []JobStatus {
	out := make([]JobStatus, 0, len(c.order)+len(c.history))
	for _, js := range c.order {
		out = append(out, c.jobStatus(js))
	}
	return append(out, c.history...)
}

// taskStatuses is Master.TaskStatuses's view.
func (c *core) taskStatuses(jobID string, now time.Time) []TaskStatus {
	var out []TaskStatus
	for _, js := range c.order {
		if jobID != "" && js.id != jobID {
			continue
		}
		for _, ts := range slices.Concat(js.mapTasks, js.redTasks) {
			st := TaskStatus{
				Job: js.id, Kind: ts.task.Kind, Seq: ts.task.Seq, Assigned: ts.assigned, Done: ts.done,
			}
			if ts.assigned && !ts.done {
				st.Assignee = ts.assignee
				st.RunningForMS = now.Sub(ts.assignedAt).Milliseconds()
			}
			out = append(out, st)
		}
	}
	return out
}

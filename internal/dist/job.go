package dist

// job.go holds the per-job state the master's core (core.go) keeps one of
// per submitted job: the task tables, the streaming-shuffle publication log
// and the completion latch the JobHandle waits on. All fields are guarded
// by the master's mutex except result/err, which are written exactly once
// before doneCh is closed and only read after it is closed (the channel
// close is the happens-before edge).

import (
	"fmt"
	"slices"
	"time"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
)

// Job lifecycle states, surfaced in JobStatus.State.
const (
	// JobQueued: admitted to the master but not yet scheduled (the
	// concurrent-job cap is reached); its tasks are not dispatched.
	JobQueued = "queued"
	// JobRunning: the scheduler is dispatching this job's tasks.
	JobRunning = "running"
	// JobDone: completed successfully; the result is available.
	JobDone = "done"
	// JobFailed: completed unsuccessfully (output decode failure).
	JobFailed = "failed"
	// JobCancelled: aborted by JobHandle.Cancel.
	JobCancelled = "cancelled"
)

// taskState tracks one task attempt's lifecycle in a job's tables.
type taskState struct {
	task       Task
	assigned   bool
	assignee   string
	assignedAt time.Time
	done       bool
	// owner is the worker serving a completed map task's shuffle output.
	// The segments die with it: the task must re-execute if the owner is
	// evicted or a reducer reports the segments lost.
	owner string
	// readyAt is when the task last became dispatchable (admission, a
	// requeue, lease expiry, the speculation age, or loss); the gap to the
	// next assignment is the schedule phase. For reduce tasks it includes
	// the slowstart gate by design — that wait is real dispatch latency
	// the paper's shuffle accounting has to see.
	readyAt time.Time
}

// jobState is one job's full state in the master.
type jobState struct {
	id        string
	epoch     uint64
	desc      JobDescriptor
	blockSize int
	inputLen  int
	// dataFile is the base name of the job's data file beside the snapshot
	// ("" with snapshots off), and outExt each finished reducer's output's
	// extent in it (empty until then, or when it was not written).
	dataFile string
	outExt   []extent

	state string // Job* constants

	mapTasks []*taskState
	// partSegs is the streaming shuffle publication log: per partition,
	// the segments published by completed map tasks in publication order.
	// The log is append-only — a map re-executed after segment loss
	// appends a replacement entry with the same MapSeq, and consumers keep
	// the latest entry per MapSeq — so reducer cursors (an index into this
	// log) stay valid across recoveries.
	partSegs [][]TaggedSegment
	mapsLeft int
	redTasks []*taskState
	// redOutputs holds each partition's output as a wire-encoded segment
	// blob, decoded once when the job completes.
	redOutputs [][]byte
	redsLeft   int

	counters      mapreduce.Counters
	reassigned    int
	speculative   int
	earlyReduces  int
	recoveredMaps int
	// logged is the tally the journal last recorded.
	logged [4]int

	submittedAt time.Time

	doneCh chan struct{}
	result *mapreduce.Result
	err    error
	span   obs.Span
	// final is the status frozen at retirement, after which the live tables
	// are gone; the core's jobStatus serves it for terminal jobs.
	final *JobStatus
}

// newJobState builds a queued job over inputLen bytes, one map task per
// blockSize-byte split (blockSize ≥ 1); setInput gives the tasks their
// windows. The caller assigns id and epoch and registers the state in the
// master's tables.
func newJobState(id string, epoch uint64, desc JobDescriptor, blockSize, inputLen int, now time.Time) *jobState {
	js := &jobState{
		id:          id,
		epoch:       epoch,
		desc:        desc,
		blockSize:   blockSize,
		inputLen:    inputLen,
		state:       JobQueued,
		redsLeft:    desc.NumReducers,
		submittedAt: now,
		doneCh:      make(chan struct{}),
	}
	// start steps on only from inside the input and end adds at most its
	// rest: no block size, math.MaxInt included, overflows the cut.
	for start := 0; start < inputLen; start += blockSize {
		end := start + min(blockSize, inputLen-start)
		js.mapTasks = append(js.mapTasks, &taskState{task: Task{
			Kind: TaskMap, Epoch: epoch, Seq: len(js.mapTasks), Job: desc, Start: start, End: end,
		}, readyAt: now})
	}
	js.mapsLeft = len(js.mapTasks)
	js.partSegs = make([][]TaggedSegment, desc.NumReducers)
	// Reduce tasks exist from the start: they carry no shuffle data
	// (workers stream segments with FetchSegments), so they can be
	// dispatched as soon as the slowstart threshold of completed maps is
	// met.
	js.redTasks = make([]*taskState, desc.NumReducers)
	for p := 0; p < desc.NumReducers; p++ {
		js.redTasks[p] = &taskState{task: Task{
			Kind: TaskReduce, Epoch: epoch, Seq: p, Job: desc,
		}, readyAt: now}
	}
	js.redOutputs = make([][]byte, desc.NumReducers)
	js.outExt = make([]extent, desc.NumReducers)
	return js
}

// setInput gives each map task its window, a view of input, the job's
// whole input.
func (js *jobState) setInput(input []byte) {
	for _, ts := range js.mapTasks {
		ts.task.Window = hdfs.Window(input, ts.task.Start, ts.task.End)
	}
}

// attach gives a job replayed from the journal its data file, read whole:
// the input at its head cuts the splits' windows, and each finished
// reducer's output is read back at its extent. Bytes past the last extent
// are a torn append and are ignored; a file short of any extent is an
// error.
func (js *jobState) attach(buf []byte) error {
	n := int64(len(buf))
	for _, e := range append(slices.Clone(js.outExt), extent{Len: int64(js.inputLen)}) {
		if e.Off < 0 || e.Len < 0 || e.Off > n || e.Len > n-e.Off {
			return fmt.Errorf("%d bytes, shorter than extent %+v", n, e)
		}
	}
	js.setInput(buf[:js.inputLen])
	for p, e := range js.outExt {
		if js.redTasks[p].done {
			js.redOutputs[p] = buf[e.Off : e.Off+e.Len]
		}
	}
	return nil
}

// tally is the job's share of the master's Stats counters, in the order
// the journal records it; setTally restores it.
func (js *jobState) tally() [4]int {
	return [4]int{js.reassigned, js.speculative, js.earlyReduces, js.recoveredMaps}
}

func (js *jobState) setTally(t [4]int) {
	js.reassigned, js.speculative, js.earlyReduces, js.recoveredMaps = t[0], t[1], t[2], t[3]
}

// taskRef is the phase-event identity of one attempt of task on a worker
// of the given core class: the worker's own phases and the master's
// schedule interval carry the same one.
func taskRef(task Task, worker, class string) obs.TaskRef {
	kind := obs.KindMap
	if task.Kind == TaskReduce {
		kind = obs.KindReduce
	}
	return obs.TaskRef{
		Job: task.Job.Workload, Kind: kind, Index: task.Seq, Worker: worker, Epoch: task.Epoch,
		Class: class,
	}
}

// finished reports a terminal state. Called under the master's mutex.
func (js *jobState) finished() bool {
	return js.state == JobDone || js.state == JobFailed || js.state == JobCancelled
}

// phase is the job's scheduler phase, derived from its state and map
// progress: "map" while a running job has maps left (a lost segment puts
// one back), "reduce" once none are, "" when queued or terminal. Called
// under the master's mutex.
func (js *jobState) phase() string {
	switch {
	case js.state != JobRunning:
		return ""
	case js.mapsLeft > 0:
		return "map"
	default:
		return "reduce"
	}
}

// reduceEligible reports whether a running job's reduce tasks may be
// dispatched: once the slowstart fraction of its maps has completed, which
// the reduce phase always satisfies. Called under the master's mutex.
func (js *jobState) reduceEligible() bool {
	done := len(js.mapTasks) - js.mapsLeft
	return float64(done) >= reduceSlowstart*float64(len(js.mapTasks))
}

// runningTasks counts in-flight assignments — the fair scheduler's load
// measure. Called under the master's mutex.
func (js *jobState) runningTasks() int {
	n := 0
	for _, pool := range [][]*taskState{js.mapTasks, js.redTasks} {
		for _, ts := range pool {
			if ts.assigned && !ts.done {
				n++
			}
		}
	}
	return n
}

// reduceDone records partition p's output as done: a reducer's
// completion. Called under the master's mutex.
func (js *jobState) reduceDone(p int, output []byte) {
	js.redTasks[p].done = true
	js.redOutputs[p] = output
	js.redsLeft--
}

// clearTables drops the finished (or aborted) job's task tables and
// buffered outputs so split and shuffle data are not pinned in memory
// after completion. Called under the master's mutex.
func (js *jobState) clearTables() {
	js.mapTasks = nil
	js.partSegs = nil
	js.redTasks = nil
	js.redOutputs = nil
	js.outExt = nil
}

package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/rpc"
	"strconv"
	"testing"
	"time"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func TestOptionsRejectInvalidValues(t *testing.T) {
	cfg := defaultConfig()
	for _, opt := range []Option{
		WithTaskTimeout(0), WithTaskTimeout(-time.Second),
		WithSpeculativeFraction(0), WithSpeculativeFraction(-1), WithSpeculativeFraction(1.5),
		WithPollInterval(0), WithPollInterval(-time.Millisecond),
		WithObserver(nil),
	} {
		opt(&cfg)
	}
	def := defaultConfig()
	if cfg != def {
		t.Errorf("invalid option values changed the config: %+v, want %+v", cfg, def)
	}

	WithTaskTimeout(time.Minute)(&cfg)
	WithSpeculativeFraction(0.25)(&cfg)
	WithPollInterval(time.Second)(&cfg)
	if cfg.taskTimeout != time.Minute || cfg.specFraction != 0.25 || cfg.pollInterval != time.Second {
		t.Errorf("valid option values not applied: %+v", cfg)
	}
}

func TestStartMasterAppliesOptions(t *testing.T) {
	m := startMaster(t, WithTaskTimeout(42*time.Second), WithSpeculativeFraction(0.75))
	if m.core.cfg.taskTimeout != 42*time.Second {
		t.Errorf("taskTimeout %v, want 42s", m.core.cfg.taskTimeout)
	}
	if m.core.cfg.specFraction != 0.75 {
		t.Errorf("specFraction %v, want 0.75", m.core.cfg.specFraction)
	}
}

func TestCancelReturnsMasterToIdle(t *testing.T) {
	// No workers: the job would sit in the map phase forever without the
	// cancel.
	m := startMaster(t)
	input := workloads.GenerateText(8*units.KB, 3)
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 2}
	h, err := m.Submit(context.Background(), desc, input, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	if _, err := h.Wait(context.Background()); !errors.Is(err, ErrJobCancelled) {
		t.Fatalf("cancelled job: %v, want wrapped ErrJobCancelled", err)
	}

	// The abort must return the master to idle so the next job can run.
	for i := 0; i < 2; i++ {
		startWorker(t, m, "retry-"+strconv.Itoa(i))
	}
	submitWait(t, m, desc, input, 2*1024)
}

// stealMapTask polls GetTask as workerID until the master hands out a map
// task, so tests can hold an in-flight assignment without running it.
func stealMapTask(t *testing.T, client *rpc.Client, workerID string) Task {
	t.Helper()
	return stealTask(t, client, workerID, TaskMap)
}

// stealTask polls GetTask as workerID until the master hands out a task of
// the given kind.
func stealTask(t *testing.T, client *rpc.Client, workerID string, kind string) Task {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var task Task
		if err := client.Call("Master.GetTask", GetTaskArgs{WorkerID: workerID}, &task); err != nil {
			t.Fatal(err)
		}
		if task.Kind == kind {
			return task
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("never received a %s task", kind)
	return Task{}
}

// TestStaleCompletionRejectedAfterAbort reproduces the cross-job
// contamination hazard: a worker still executing a task from an aborted
// job reports its result after a new job has been submitted, with a Seq
// that is valid in the new job's range. The epoch guard must reject it so
// the aborted job's output is never recorded as the new job's.
func TestStaleCompletionRejectedAfterAbort(t *testing.T) {
	m := startMaster(t, WithTaskTimeout(time.Minute))
	stale := connectWorker(t, m, "stale")
	ctx := context.Background()
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 1}

	// Job A: the stale worker grabs map task 0, then the job is cancelled
	// with the task still in flight.
	hA, err := m.Submit(ctx, desc, workloads.GenerateText(8*units.KB, 3), 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	staleTask := stealMapTask(t, stale.client, stale.ID)
	hA.Cancel()

	// Job B: submitted before the stale worker reports. The worker then
	// finishes the aborted job's task for real and reports it — same Seq,
	// old epoch — while no honest worker has run yet.
	inputB := workloads.GenerateText(8*units.KB, 5)
	hB, err := m.Submit(ctx, desc, inputB, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.runMap(staleTask); err != nil {
		t.Fatal(err)
	}
	if st := hB.Status(); st.MapsDone != 0 {
		t.Fatalf("stale completion from the aborted job was recorded against the new job: %+v", st)
	}

	// An honest worker finishes job B; its output must match job B's input
	// exactly, with no trace of the stale report.
	startWorker(t, m, "honest")
	checkWordCount(t, waitJob(t, hB, jobDeadline), inputB)
}

// TestAbortedJobTasksNotReissued checks the abort winds the job down for
// pollers: the aborted job's undone tasks must not be handed out again
// (even after the reassignment timeout has passed), pollers are told to
// wait, and the job's task tables are released.
func TestAbortedJobTasksNotReissued(t *testing.T) {
	m := startMaster(t, WithTaskTimeout(30*time.Millisecond))
	client, err := rpc.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 1},
		workloads.GenerateText(8*units.KB, 7), 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	stealMapTask(t, client, "holder")
	h.Cancel()

	// Past the task timeout the aborted job's tasks would be reissuable if
	// they were still in the pool; pollers must see TaskWait instead.
	time.Sleep(60 * time.Millisecond)
	var task Task
	if err := client.Call("Master.GetTask", GetTaskArgs{WorkerID: "late"}, &task); err != nil {
		t.Fatal(err)
	}
	if task.Kind != TaskWait {
		t.Errorf("poll after abort returned %q, want %q", task.Kind, TaskWait)
	}
	m.mu.Lock()
	leaked := len(m.core.jobs) != 0 || len(m.core.byEpoch) != 0 || len(m.core.order) != 0
	for _, js := range m.core.retired {
		if js.mapTasks != nil || js.redTasks != nil || js.partSegs != nil {
			leaked = true
		}
	}
	m.mu.Unlock()
	if leaked {
		t.Error("aborted job's task tables still pinned after abort")
	}
}

func TestSubmitSentinels(t *testing.T) {
	m := startMaster(t)
	ctx := context.Background()

	if _, err := m.Submit(ctx, JobDescriptor{Workload: "wordcount", NumReducers: 0}, []byte("x"), 8); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("zero reducers: %v, want wrapped ErrInvalidJob", err)
	}
	for _, bs := range []int{0, -1} {
		if _, err := m.Submit(ctx, JobDescriptor{Workload: "wordcount", NumReducers: 1}, []byte("x y\n"), bs); !errors.Is(err, ErrInvalidJob) {
			t.Errorf("block size %d: %v, want wrapped ErrInvalidJob", bs, err)
		}
	}
	if _, err := m.Submit(ctx, JobDescriptor{Workload: "no-such", NumReducers: 1}, []byte("x"), 8); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("unknown workload: %v, want wrapped ErrInvalidJob", err)
	}
	if _, err := m.Submit(ctx, JobDescriptor{Workload: "grep", NumReducers: 1}, []byte("x\n"), 8); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("grep without its pattern: %v, want wrapped ErrInvalidJob", err)
	}
	if _, err := m.Submit(ctx, JobDescriptor{Workload: "wordcount", NumReducers: 1}, nil, 8); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty input: %v, want wrapped ErrEmptyInput", err)
	}
	m.Close()
	if _, err := m.Submit(ctx, JobDescriptor{Workload: "wordcount", NumReducers: 1}, []byte("x y"), 8); !errors.Is(err, ErrMasterClosed) {
		t.Errorf("closed master: %v, want wrapped ErrMasterClosed", err)
	}
}

func TestDistJobEmitsObserverEvents(t *testing.T) {
	c := obs.NewCollector()
	m := startMaster(t, WithObserver(c))
	var stops []func()
	for i := 0; i < 2; i++ {
		w := connectWorker(t, m, "obs-"+strconv.Itoa(i), WithObserver(c))
		stops = append(stops, runWorker(t, w))
	}

	input := workloads.GenerateText(16*units.KB, 7)
	res := submitWait(t, m, JobDescriptor{Workload: "wordcount", NumReducers: 2}, input, 4*1024)
	for _, stop := range stops {
		stop() // the last task's span ends after its completion is reported
	}

	if n := c.SpanCount("dist.submit"); n != 1 {
		t.Errorf("dist.submit span count %d, want 1", n)
	}
	want := int64(res.Counters.MapTasks + res.Counters.ReduceTasks)
	if n := c.SpanCount("dist.task"); n < want {
		t.Errorf("dist.task span count %d, want >= %d", n, want)
	}
	snap := c.Snapshot()
	if p := snap.Progress["dist.map/job-1"]; p.Done != p.Total || p.Total != res.Counters.MapTasks {
		t.Errorf("dist.map/job-1 progress %+v, want %d/%d", p, res.Counters.MapTasks, res.Counters.MapTasks)
	}
	if p := snap.Progress["dist.reduce/job-1"]; p.Done != p.Total || p.Total != res.Counters.ReduceTasks {
		t.Errorf("dist.reduce/job-1 progress %+v, want %d/%d", p, res.Counters.ReduceTasks, res.Counters.ReduceTasks)
	}
	// A map task's output work is spill: it belongs in the paper's sort
	// bucket, not the reduce bucket PhaseWrite maps to.
	if _, ok := snap.Spans[obs.PhaseKey(obs.KindMap, obs.PhaseWrite)]; ok {
		t.Errorf("map-side work charged as %s", obs.PhaseKey(obs.KindMap, obs.PhaseWrite))
	}
	if _, ok := snap.Spans[obs.PhaseKey(obs.KindMap, obs.PhaseSpill)]; !ok {
		t.Errorf("no %s span recorded", obs.PhaseKey(obs.KindMap, obs.PhaseSpill))
	}
}

func TestReportFailureSurfacesRPCErrors(t *testing.T) {
	m := startMaster(t)
	c := obs.NewCollector()
	w := connectWorker(t, m, "rf", WithObserver(c))

	// Sever the connection, then fail a task: the failure report cannot
	// reach the master, and that delivery error must be counted instead of
	// dropped.
	if err := w.client.Close(); err != nil {
		t.Fatal(err)
	}
	w.reportFailure(Task{Kind: TaskMap, Seq: 1}, errors.New("synthetic task failure"))
	if n := w.ReportErrors(); n != 1 {
		t.Errorf("ReportErrors() = %d, want 1", n)
	}
	if n := c.Counter("dist.worker.report_errors"); n != 1 {
		t.Errorf("report_errors counter = %d, want 1", n)
	}
}

// TestSpeculativeAttemptsDistinguishableInTrace is the regression fence for
// attempt attribution: when a straggler's task is speculatively re-executed
// on another worker, the trace must contain phase events for BOTH attempts
// of the SAME task — same job, kind, index and epoch, different worker —
// so a timeline replay can show the duplicated work instead of silently
// folding the attempts into one row.
func TestSpeculativeAttemptsDistinguishableInTrace(t *testing.T) {
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)

	// Short timeout + small speculative fraction: a task held for ~200ms is
	// already a straggler, but the hard reassignment timeout (2s) never
	// fires inside the test.
	m := startMaster(t, WithTaskTimeout(2*time.Second), WithSpeculativeFraction(0.1), WithObserver(tw))
	slowJob := func(sleep time.Duration) JobFactory {
		return func(desc JobDescriptor) (mapreduce.Job, error) {
			cfg := mapreduce.DefaultConfig("slowmap")
			cfg.NumReducers = desc.NumReducers
			return mapreduce.Job{
				Config: cfg,
				Mapper: mapreduce.MapperFunc(func(_, line string, emit mapreduce.Emitter) error {
					time.Sleep(sleep)
					emit(line, "1")
					return nil
				}),
				Reducer: mapreduce.IdentityReducer(),
			}, nil
		}
	}
	m.Registry().Register("slowmap", slowJob(0))

	// Worker registries are per-worker: the straggler's factory sleeps well
	// past the speculation age, the honest worker's does not, so the same
	// map task genuinely runs twice on distinct workers.
	straggler := connectWorker(t, m, "w-slow", WithObserver(tw))
	straggler.Registry().Register("slowmap", slowJob(1500*time.Millisecond))
	stopStraggler := runWorker(t, straggler)

	// One line, one split, one map task: the straggler must grab it.
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "slowmap", NumReducers: 1},
		[]byte("only line\n"), 1024)
	if err != nil {
		t.Fatal(err)
	}

	// Give the straggler time to take the task, then add the honest worker,
	// which can only receive the speculative backup copy.
	time.Sleep(300 * time.Millisecond)
	honest := connectWorker(t, m, "w-fast", WithObserver(tw))
	honest.Registry().Register("slowmap", slowJob(0))
	stopHonest := runWorker(t, honest)

	waitJob(t, h, jobDeadline)
	if m.Stats().Speculative == 0 {
		t.Fatal("no speculative attempt launched")
	}
	// The straggler finishes its attempt after the job is done (its
	// completion is a duplicate the master ignores). Stop waits out the
	// current task, so the late attempt lands in the trace; then flush the
	// writer before reading.
	stopStraggler()
	stopHonest()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay the trace: map-phase events for task 0 must name both workers
	// under the same epoch.
	workers := map[string]uint64{} // worker -> epoch
	dec := json.NewDecoder(&buf)
	for {
		var ev obs.TraceEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.Type != "phase" || ev.Name != obs.PhaseMap.String() || ev.TaskKind != "map" || ev.Task != 0 {
			continue
		}
		if ev.Worker == "" {
			t.Errorf("map phase event without worker attribution: %+v", ev)
			continue
		}
		workers[ev.Worker] = ev.Epoch
	}
	if len(workers) < 2 {
		t.Fatalf("map task 0 phases name %d worker(s) %v, want both attempts", len(workers), workers)
	}
	epochs := map[uint64]bool{}
	for _, e := range workers {
		epochs[e] = true
	}
	if len(epochs) != 1 {
		t.Errorf("attempts of one job carry different epochs: %v", workers)
	}
}

// TestPhaseEventsCarryAssigneeClass pins core-class attribution across the
// cluster: with a big and a little worker and one trace shared by them and
// the master, every phase event names one of the workers and carries that
// worker's declared class — the master's schedule events for its tasks
// included, since the energy split charges dispatch latency to the class
// that ran the task.
func TestPhaseEventsCarryAssigneeClass(t *testing.T) {
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	m := startMaster(t, WithObserver(tw))
	classes := map[string]string{"w-big": "big", "w-little": "little"}
	var stops []func()
	for id, class := range classes {
		w := connectWorker(t, m, id, WithObserver(tw), WithCoreClass(class))
		stops = append(stops, runWorker(t, w))
	}
	input := workloads.GenerateText(16*units.KB, 11)
	submitWait(t, m, JobDescriptor{Workload: "wordcount", NumReducers: 2}, input, 1024)
	for _, stop := range stops {
		stop()
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{} // phase name -> events checked
	dec := json.NewDecoder(&buf)
	for {
		var ev obs.TraceEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.Type != "phase" {
			continue
		}
		if want, ok := classes[ev.Worker]; !ok || ev.Class != want {
			t.Errorf("%s %s event of worker %q has class %q, want %q", ev.TaskKind, ev.Name, ev.Worker, ev.Class, want)
		}
		seen[ev.Name]++
	}
	if seen[obs.PhaseSchedule.String()] == 0 || seen[obs.PhaseMap.String()] == 0 {
		t.Fatalf("trace lacks schedule or map events: %v", seen)
	}
}

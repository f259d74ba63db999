package dist

import (
	"context"
	"errors"
	"net/rpc"
	"strconv"
	"sync"
	"testing"
	"time"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// heldOpts make every idle poll and empty fetch a one-minute hold — longer
// than jobDeadline — so only wake-ups can move a job: a lost wake stalls the
// test past its deadline instead of being covered by the next heartbeat.
var heldOpts = []Option{WithPollInterval(time.Minute), WithWorkerTimeout(time.Hour)}

// startHeldWorker connects a worker with heldOpts and runs its loop under a
// context that the test's teardown cancels. Teardown must finish within
// jobDeadline: cancellation has to reach a call the master is holding.
func startHeldWorker(t *testing.T, m *Master, id string) *Worker {
	t.Helper()
	w := connectWorker(t, m, id, heldOpts...)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.RunForeverCtx(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: loop returned %v, want cancellation", id, err)
			}
		case <-time.After(jobDeadline):
			t.Errorf("%s: loop still running %v after cancellation", id, jobDeadline)
		}
	})
	return w
}

// startHeldCluster is startCluster with held workers. On an idle master it
// returns with every worker's poll held: a poll registers its worker under
// m.mu, and only the hold releases the lock before the minute is up.
func startHeldCluster(t *testing.T, n int) *Master {
	t.Helper()
	m := startMaster(t, heldOpts...)
	for i := 0; i < n; i++ {
		startHeldWorker(t, m, "held-"+strconv.Itoa(i))
	}
	for deadline := time.Now().Add(jobDeadline); m.Stats().Workers < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("master saw %d of %d workers after %v", m.Stats().Workers, n, jobDeadline)
		}
	}
	return m
}

// TestHeldPollIdleWorkersThenSubmit: workers whose polls the master is
// holding pick up a job submitted afterwards at once — the submission
// wakes them.
func TestHeldPollIdleWorkersThenSubmit(t *testing.T) {
	m := startHeldCluster(t, 2)
	input := workloads.GenerateText(16*units.KB, 41)
	checkWordCount(t, submitWait(t, m, JobDescriptor{Workload: "wordcount", NumReducers: 2}, input, 4*1024), input)
	if st := m.Stats(); st.Evicted != 0 || st.Reassigned != 0 {
		t.Errorf("after the job: %+v, want no evictions or reissues", st)
	}
}

// TestHeldPollOverlappingJobs runs four overlapping jobs from two
// goroutines on held workers: each completion, admission and retirement has
// to wake the polls and fetches that wait on it.
func TestHeldPollOverlappingJobs(t *testing.T) {
	m := startHeldCluster(t, 3)
	type run struct {
		input []byte
		res   *mapreduce.Result
		err   error
	}
	runs := make(chan run, 4)
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	for g := 0; g < 2; g++ {
		go func(g int) {
			for j := 0; j < 2; j++ {
				r := run{input: workloads.GenerateText(16*units.KB, int64(50+2*g+j))}
				h, err := m.Submit(ctx, JobDescriptor{Workload: "wordcount", NumReducers: 2}, r.input, 2*1024)
				if err == nil {
					r.res, r.err = h.Wait(ctx)
				} else {
					r.err = err
				}
				runs <- r
			}
		}(g)
	}
	for i := 0; i < 4; i++ {
		r := <-runs
		if r.err != nil {
			t.Fatalf("job: %v (master %+v)", r.err, m.Stats())
		}
		checkWordCount(t, r.res, r.input)
	}
}

// TestHeldFetchReceivesMapTail: a reducer dispatched at slowstart holds its
// fetch while the tail of the map wave runs; each tail completion must wake
// it, or the job stalls for the whole hold.
func TestHeldFetchReceivesMapTail(t *testing.T) {
	input := workloads.GenerateText(8*units.KB, 43)
	m := startMaster(t, append([]Option{WithTaskTimeout(time.Minute)}, heldOpts...)...)
	tester := connectWorker(t, m, "tester")
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 1}, input, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	maps := make([]Task, h.Status().MapsTotal)
	for i := range maps {
		maps[i] = stealMapTask(t, tester.client, tester.ID)
	}
	half := (len(maps) + 1) / 2
	for _, task := range maps[:half] {
		if err := runMapReported(tester, task); err != nil {
			t.Fatal(err)
		}
	}
	// The reducer's first poll takes the slowstart-eligible reduce; its
	// fetch then finds nothing new and is held.
	startHeldWorker(t, m, "reducer")
	for deadline := time.Now().Add(jobDeadline); m.Stats().EarlyReduces < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no early reduce after %v: %+v", jobDeadline, m.Stats())
		}
	}
	// Most runs reach the held fetch by now; a run that has not still needs
	// the tail's wakes for the reducer's held poll. Each tail completion
	// rides a polling beat, as in the worker loop, which the master then
	// holds (nothing is left to hand out): only a commit made before the
	// hold wakes the reducer in time.
	time.Sleep(50 * time.Millisecond)
	for _, task := range maps[half:] {
		rep, err := tester.runMap(task)
		if err != nil {
			t.Fatal(err)
		}
		tester.client.Go("Master.Heartbeat", Heartbeat{
			WorkerID: tester.ID, Addr: tester.shuffleAddr, Poll: true, Wait: time.Minute, Reports: []TaskReport{rep},
		}, &Task{}, make(chan *rpc.Call, 1))
	}
	checkWordCount(t, waitJob(t, h, jobDeadline), input)
}

// TestZeroWaitPollAnswersAtOnce: a polling beat with Wait 0 on an idle master
// returns TaskWait without being held, while one that asks for a hold is
// held for it.
func TestZeroWaitPollAnswersAtOnce(t *testing.T) {
	m := startMaster(t, heldOpts...)
	client := connectWorker(t, m, "prober").client
	poll := func(wait time.Duration) time.Duration {
		t.Helper()
		start := time.Now()
		var task Task
		if err := client.Call("Master.Heartbeat", Heartbeat{WorkerID: "prober", Poll: true, Wait: wait}, &task); err != nil {
			t.Fatal(err)
		}
		if task.Kind != TaskWait {
			t.Fatalf("idle master answered %q, want %q", task.Kind, TaskWait)
		}
		return time.Since(start)
	}
	const hold = 300 * time.Millisecond
	if got := poll(hold); got < hold {
		t.Errorf("poll with Wait %v answered after %v, want it held", hold, got)
	}
	if got := poll(0); got >= hold {
		t.Errorf("poll with Wait 0 answered after %v, want at once", got)
	}
}

// TestBusyWorkerPrunesFinishedJobs: a worker that always gets a task still
// releases a finished job's map output, because every polling beat's reply
// carries the active epochs. With a one-job cap, job B queues behind job A,
// so every B task is dispatched after A retires; B's mapper parks its first
// record until the test has looked at the worker's store.
func TestBusyWorkerPrunesFinishedJobs(t *testing.T) {
	m := startMaster(t, WithMaxConcurrentJobs(1))
	w := connectWorker(t, m, "busy")
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gated := func(desc JobDescriptor) (mapreduce.Job, error) {
		cfg := mapreduce.DefaultConfig("gated")
		cfg.NumReducers = desc.NumReducers
		return mapreduce.Job{
			Config: cfg,
			Mapper: mapreduce.MapperFunc(func(_, line string, emit mapreduce.Emitter) error {
				once.Do(func() { close(entered); <-release })
				emit(line, "1")
				return nil
			}),
			Reducer: mapreduce.IdentityReducer(),
		}, nil
	}
	m.Registry().Register("gated", gated)
	w.Registry().Register("gated", gated)
	runWorker(t, w)

	hA, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 2},
		workloads.GenerateText(16*units.KB, 47), 4*1024)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := m.Submit(context.Background(), JobDescriptor{Workload: "gated", NumReducers: 1},
		workloads.GenerateText(16*units.KB, 53), 1024)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, hA, jobDeadline)
	select {
	case <-entered:
	case <-time.After(jobDeadline):
		close(release)
		t.Fatalf("worker never ran a map of job B: %+v", hB.Status())
	}
	w.store.mu.Lock()
	_, held := w.store.byEpoch[hA.js.epoch]
	w.store.mu.Unlock()
	close(release)
	waitJob(t, hB, jobDeadline)
	if held {
		t.Errorf("worker running job B still stores map output of finished job %s", hA.ID())
	}
}

// TestCloseReleasesHeldCalls: closing the master answers a held polling beat
// and a held fetch at once, instead of leaving them parked until their Wait
// runs out — here a minute, which the hour-long worker timeout does not cap.
func TestCloseReleasesHeldCalls(t *testing.T) {
	m := startMaster(t, WithWorkerTimeout(time.Hour), WithTaskTimeout(time.Minute))
	prober := connectWorker(t, m, "prober")
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 1},
		workloads.GenerateText(8*units.KB, 59), 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	// With every map taken and none done there is no task to hand out and
	// no segment to fetch, so both calls below are held.
	for i := 0; i < h.Status().MapsTotal; i++ {
		stealMapTask(t, prober.client, prober.ID)
	}
	beat := prober.client.Go("Master.Heartbeat", Heartbeat{WorkerID: prober.ID, Poll: true, Wait: time.Minute},
		&Task{}, make(chan *rpc.Call, 1))
	fetch := prober.client.Go("Master.FetchSegments", FetchSegmentsArgs{WorkerID: prober.ID, Epoch: h.js.epoch, Wait: time.Minute},
		&FetchSegmentsReply{}, make(chan *rpc.Call, 1))
	time.Sleep(100 * time.Millisecond)
	for _, c := range []*rpc.Call{beat, fetch} {
		select {
		case <-c.Done:
			t.Fatalf("%s answered before Close (err %v), want it held", c.ServiceMethod, c.Error)
		default:
		}
	}
	m.Close()
	deadline := time.Now().Add(time.Second)
	for _, c := range []*rpc.Call{beat, fetch} {
		select {
		case <-c.Done:
			if c.Error != nil {
				t.Errorf("%s: %v", c.ServiceMethod, c.Error)
			}
		case <-time.After(time.Until(deadline)):
			t.Errorf("%s still held 1s after Close", c.ServiceMethod)
		}
	}
}

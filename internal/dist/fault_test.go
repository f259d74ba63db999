package dist

// fault_test.go covers the multi-tenant master's failure machinery: the
// async JobHandle lifecycle, lost-shuffle map re-execution, silent-worker
// eviction, snapshot restart, and the chaos scenario the acceptance
// criteria name — concurrent jobs surviving a worker kill and a master
// restart with output byte-identical to a serial run.

import (
	"bytes"
	"context"
	"errors"
	"net/rpc"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func TestJobHandleAsyncLifecycle(t *testing.T) {
	m := startMaster(t)
	ctx := context.Background()
	input := workloads.GenerateText(4*units.KB, 3)

	// No workers attached: jobs stay pending, so the handle surface can be
	// inspected deterministically.
	h, err := m.Submit(ctx, JobDescriptor{Workload: "wordcount", NumReducers: 1}, input, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != "job-1" {
		t.Errorf("first job ID = %q, want job-1", h.ID())
	}
	if st := h.Status(); st.State != JobRunning {
		t.Errorf("submitted job state = %q, want %q (admitted below the cap)", st.State, JobRunning)
	}
	if st, ok := m.JobStatus(h.ID()); !ok || st.ID != h.ID() {
		t.Errorf("JobStatus(%q) = %+v, %v", h.ID(), st, ok)
	}
	if _, ok := m.JobStatus("job-999"); ok {
		t.Error("JobStatus for an unknown ID reported ok")
	}
	if hs, ok := m.Handle(h.ID()); !ok || hs.ID() != h.ID() {
		t.Errorf("Handle(%q) = %v, %v", h.ID(), hs, ok)
	}
	if jobs := m.Jobs(); len(jobs) != 1 || jobs[0].ID != h.ID() {
		t.Errorf("Jobs() = %+v, want the one submitted job", jobs)
	}

	// Admission control: the queue cap counts every live job, so with no
	// workers draining them the master fills at maxQueuedJobs submissions.
	for i := 1; i < maxQueuedJobs; i++ {
		if _, err := m.Submit(ctx, JobDescriptor{Workload: "wordcount", NumReducers: 1}, []byte("a\n"), 1024); err != nil {
			t.Fatalf("submission %d below the queue cap: %v", i+1, err)
		}
	}
	if _, err := m.Submit(ctx, JobDescriptor{Workload: "wordcount", NumReducers: 1}, input, 1024); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit over the queue cap: %v, want wrapped ErrQueueFull", err)
	}

	// Cancel is the client-driven abort: Wait unblocks with ErrJobCancelled,
	// status survives retirement, and the queue slot frees up.
	h.Cancel()
	if _, err := h.Wait(ctx); !errors.Is(err, ErrJobCancelled) {
		t.Errorf("Wait after Cancel: %v, want wrapped ErrJobCancelled", err)
	}
	if st := h.Status(); st.State != JobCancelled {
		t.Errorf("cancelled job state = %q, want %q", st.State, JobCancelled)
	}
	h.Cancel() // idempotent on a finished job
	if st, ok := m.JobStatus(h.ID()); !ok || st.State != JobCancelled {
		t.Errorf("retired JobStatus(%q) = %+v, %v, want cancelled", h.ID(), st, ok)
	}
	if _, err := m.Submit(ctx, JobDescriptor{Workload: "wordcount", NumReducers: 1}, input, 1024); err != nil {
		t.Errorf("submit after cancel freed a slot: %v", err)
	}

	// A Wait whose context expires abandons the wait without killing the job.
	h2, ok := m.Handle("job-2")
	if !ok {
		t.Fatal("job-2 handle missing")
	}
	wctx, wcancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer wcancel()
	if _, err := h2.Wait(wctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("abandoned wait: %v, want wrapped context.DeadlineExceeded", err)
	}
	if st := h2.Status(); st.State == JobCancelled {
		t.Error("abandoning a wait cancelled the job")
	}
}

// driveMaps executes every map task of the job on w — a worker whose loop
// is not running — through the production map path, and returns how many it
// ran. It checks the status before each poll: once the last map completes
// the next poll could hand this never-again-polling worker a reduce task,
// stalling the job until the task timeout.
func driveMaps(t *testing.T, h *JobHandle, w *Worker) int {
	t.Helper()
	ran := 0
	for {
		if st := h.Status(); st.MapsDone == st.MapsTotal {
			return ran
		}
		if err := runMapReported(w, stealMapTask(t, w.client, w.ID)); err != nil {
			t.Fatal(err)
		}
		ran++
	}
}

// TestLostShuffleMapRerun is the lost-shuffle regression: a worker serves
// its map output, dies before any reducer fetches it, and the job must
// still complete correctly — the reducer reports the unreachable segments,
// the master re-executes the maps elsewhere, and the replacements are
// consumed under the same MapSeq.
func TestLostShuffleMapRerun(t *testing.T) {
	input := workloads.GenerateText(8*units.KB, 21)
	// driveMaps polls for one map at a time and nextTask offers maps first,
	// so no reduce is dispatched until the doomed worker has finished every
	// map: the loss is discovered by fetch, not masked by the map wave. The
	// long timeout keeps the timeout path out of it.
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 1}
	m := startMaster(t, WithTaskTimeout(time.Minute))
	h, err := m.Submit(context.Background(), desc, input, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	doomed := connectWorker(t, m, "doomed")
	served := driveMaps(t, h, doomed)
	doomed.Close() // takes its shuffle server, and with it every segment, down

	// A real worker now takes the reduce, fails to fetch from the dead
	// server, reports the loss, and re-executes the invalidated maps itself.
	startWorker(t, m, "survivor")
	checkWordCount(t, waitJob(t, h, jobDeadline), input)
	st := m.Stats()
	if st.RecoveredMaps < served {
		t.Errorf("RecoveredMaps = %d, want >= %d (every served map was lost)", st.RecoveredMaps, served)
	}
	if st.Evicted < 1 {
		t.Errorf("Evicted = %d, want >= 1 (the loss report evicts the owner)", st.Evicted)
	}
	if js := h.Status(); js.RecoveredMaps < served {
		t.Errorf("job RecoveredMaps = %d, want >= %d", js.RecoveredMaps, served)
	}
}

// TestClosedWorkerStopsServing pins Close's contract against a reducer that
// already holds a connection to the closed worker: worker b fetches a
// segment from worker a, a closes, and b's next fetch of the same segment
// must fail — segment loss — instead of being served over the connection a
// accepted before it closed.
func TestClosedWorkerStopsServing(t *testing.T) {
	m := startMaster(t, WithTaskTimeout(time.Minute))
	if _, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 1},
		workloads.GenerateText(8*units.KB, 45), 2*1024); err != nil {
		t.Fatal(err)
	}
	a := connectWorker(t, m, "a")
	b := connectWorker(t, m, "b")
	task := stealMapTask(t, a.client, a.ID)
	if err := runMapReported(a, task); err != nil {
		t.Fatal(err)
	}
	s := TaggedSegment{MapSeq: task.Seq, Addr: a.shuffleAddr, Owner: a.ID}
	if _, err := b.fetchServed(s, task.Epoch, 0); err != nil {
		t.Fatalf("fetch from the live worker: %v", err)
	}
	a.Close()
	if _, err := b.fetchServed(s, task.Epoch, 0); err == nil {
		t.Fatal("a closed worker still served its map output")
	}
}

// TestWorkerEvictionRequeuesInFlight checks liveness-based recovery: a
// worker that takes a task and then goes silent is evicted after the
// worker timeout, its in-flight assignment requeued — well before the
// (deliberately enormous) task timeout.
func TestWorkerEvictionRequeuesInFlight(t *testing.T) {
	input := workloads.GenerateText(16*units.KB, 23)
	m := startMaster(t, WithTaskTimeout(time.Minute), WithWorkerTimeout(150*time.Millisecond))
	ghost, err := rpc.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ghost.Close()

	h, err := m.Submit(context.Background(),
		JobDescriptor{Workload: "wordcount", NumReducers: 2}, input, 4*1024)
	if err != nil {
		t.Fatal(err)
	}
	stealMapTask(t, ghost, "ghost")
	// The ghost never polls again: only eviction can free its task.

	startWorker(t, m, "survivor")
	checkWordCount(t, waitJob(t, h, 20*time.Second), input)
	st := m.Stats()
	if st.Evicted < 1 {
		t.Errorf("Evicted = %d, want >= 1", st.Evicted)
	}
	if st.Reassigned < 1 {
		t.Errorf("Reassigned = %d, want >= 1 (the ghost's map must requeue)", st.Reassigned)
	}
}

// TestSlowPollWorkerSurvivesIdle: a worker whose heartbeat is longer than
// the master's worker timeout stays live through an idle stretch, because
// the master holds its poll for at most half the timeout — it is never
// silent long enough to be evicted, so its served map output is never
// re-executed.
func TestSlowPollWorkerSurvivesIdle(t *testing.T) {
	m := startMaster(t, WithWorkerTimeout(150*time.Millisecond))
	startWorker(t, m, "slow-poll", WithPollInterval(time.Second))
	time.Sleep(500 * time.Millisecond)
	input := workloads.GenerateText(16*units.KB, 59)
	checkWordCount(t, submitWait(t, m, JobDescriptor{Workload: "wordcount", NumReducers: 2}, input, 4*1024), input)
	if st := m.Stats(); st.Evicted != 0 || st.RecoveredMaps != 0 {
		t.Errorf("idle slow-poll worker: %+v, want no evictions or recovered maps", st)
	}
}

// TestSnapshotRestartResumesJob checks crash recovery through the
// versioned snapshot: a master with an in-flight job — one map already
// completed — is closed and a new master started on the same snapshot path
// resumes the job. The completing worker's shuffle server outlives the old
// master, so the map stays done and the new master's reducers fetch its
// output from there; a fresh worker finishes the rest.
func TestSnapshotRestartResumesJob(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "master.snap")
	input := workloads.GenerateText(8*units.KB, 29)
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 2}

	m1 := startMaster(t, WithSnapshotPath(snap))
	h1, err := m1.Submit(context.Background(), desc, input, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	clerk := connectWorker(t, m1, "clerk")
	if err := runMapReported(clerk, stealMapTask(t, clerk.client, clerk.ID)); err != nil {
		t.Fatal(err)
	}
	if st := h1.Status(); st.MapsDone != 1 {
		t.Fatalf("pre-restart status = %+v, want 1 map done", st)
	}
	m1.Close()

	m2 := startMaster(t, WithSnapshotPath(snap))
	st, ok := m2.JobStatus(h1.ID())
	if !ok {
		t.Fatalf("restored master lost job %s", h1.ID())
	}
	if st.MapsDone != 1 {
		t.Errorf("restored MapsDone = %d, want 1 (the served map must stay done)", st.MapsDone)
	}
	if st.State != JobRunning {
		t.Errorf("restored job state = %q, want %q", st.State, JobRunning)
	}
	h2, ok := m2.Handle(h1.ID())
	if !ok {
		t.Fatal("restored master has no handle for the job")
	}

	startWorker(t, m2, "resumer")
	checkWordCount(t, waitJob(t, h2, 20*time.Second), input)
	if n := m2.Stats().RecoveredMaps; n != 0 {
		t.Errorf("RecoveredMaps = %d, want 0 (the clerk's shuffle server never went away)", n)
	}
	// The restored master accepts new work alongside the resumed job.
	submitWait(t, m2, desc, workloads.GenerateText(4*units.KB, 31), 2*1024)
}

// chaosJob is one of the concurrent jobs in the chaos scenario.
type chaosJob struct {
	desc  JobDescriptor
	input []byte
}

func chaosJobs() []chaosJob {
	jobs := make([]chaosJob, 0, 8)
	for i := 0; i < 6; i++ {
		jobs = append(jobs, chaosJob{
			desc:  JobDescriptor{Workload: "wordcount", NumReducers: 2},
			input: workloads.GenerateText(64*units.KB, int64(100+i)),
		})
	}
	for i := 0; i < 2; i++ {
		jobs = append(jobs, chaosJob{
			desc:  JobDescriptor{Workload: "terasort", NumReducers: 3},
			input: workloads.GenerateTeraRecords(32*units.KB, int64(200+i)),
		})
	}
	return jobs
}

// TestChaosMultiTenantRecovery is the acceptance scenario: eight jobs
// submitted concurrently through JobHandles on a snapshotting master with
// three workers; one worker is killed mid-run, then the master itself is
// killed and restarted from its snapshot with fresh workers. Every job
// must complete with output byte-identical to a serial run.
func TestChaosMultiTenantRecovery(t *testing.T) {
	jobs := chaosJobs()

	// Serial reference: the same jobs one at a time on a plain master.
	serial := make([][]byte, len(jobs))
	{
		ms := startMaster(t, WithTaskTimeout(10*time.Second))
		ws := startWorker(t, ms, "serial")
		for i, cj := range jobs {
			serial[i] = outputBytes(t, submitWait(t, ms, cj.desc, cj.input, 4*1024))
		}
		ws.Close()
		ms.Close()
	}

	snap := filepath.Join(t.TempDir(), "chaos.snap")
	opts := []Option{
		WithSnapshotPath(snap), WithTaskTimeout(2 * time.Second),
		WithMaxConcurrentJobs(3), WithWorkerTimeout(400 * time.Millisecond),
	}
	m1 := startMaster(t, opts...)
	startWorkers := func(m *Master, prefix string) []*Worker {
		workers := make([]*Worker, 3)
		for i := range workers {
			workers[i] = startWorker(t, m, prefix+strconv.Itoa(i))
		}
		return workers
	}
	gen1 := startWorkers(m1, "cw-")

	handles := make([]*JobHandle, len(jobs))
	for i, cj := range jobs {
		h, err := m1.Submit(context.Background(), cj.desc, cj.input, 4*1024)
		if err != nil {
			t.Fatalf("chaos submit %d: %v", i, err)
		}
		handles[i] = h
	}

	// Kill one worker mid-run (its served shuffle output dies with it),
	// then kill the master itself and every remaining first-generation
	// worker: recovery must come entirely from the snapshot.
	time.Sleep(40 * time.Millisecond)
	gen1[2].Close()
	time.Sleep(150 * time.Millisecond)
	m1.Close()
	gen1[0].Close()
	gen1[1].Close()

	m2 := startMaster(t, opts...)
	startWorkers(m2, "nw-")

	for i, h := range handles {
		select {
		case <-h.Done():
			// Finished on the first master before the kill: its result is
			// already latched in the original handle.
		default:
			h2, ok := m2.Handle(h.ID())
			if !ok {
				t.Fatalf("restored master lost in-flight job %s", h.ID())
			}
			h = h2
		}
		if got := outputBytes(t, waitJob(t, h, 120*time.Second)); !bytes.Equal(got, serial[i]) {
			t.Errorf("job %s output differs from the serial run (%d vs %d bytes)",
				h.ID(), len(got), len(serial[i]))
		}
	}
}

package dist

import (
	"bytes"
	"context"
	"errors"
	"net/rpc"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// startMaster starts a loopback master, closed when the test ends.
func startMaster(t *testing.T, opts ...Option) *Master {
	t.Helper()
	m, err := StartMaster("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// connectWorker connects a worker whose loop is not running — its shuffle
// server is live, and a test can drive it by hand (stealMapTask + runMap) —
// closed when the test ends.
func connectWorker(t *testing.T, m *Master, id string, opts ...Option) *Worker {
	t.Helper()
	w, err := ConnectWorker(id, m.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// runWorker runs a connected worker's loop. The returned stop function —
// also run when the test ends — stops the loop and waits for it to return,
// so everything the worker emits has been emitted; a loop error fails the
// test.
func runWorker(t *testing.T, w *Worker) (stop func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.RunForeverCtx(context.Background()) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			w.Stop()
			if err := <-done; err != nil {
				t.Errorf("%s: %v", w.ID, err)
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

// startWorker connects a worker and runs its loop until the test ends (or
// the test closes it).
func startWorker(t *testing.T, m *Master, id string, opts ...Option) *Worker {
	t.Helper()
	w := connectWorker(t, m, id, opts...)
	runWorker(t, w)
	return w
}

// startCluster brings up a master and n looping workers on loopback, and
// returns once the master has seen all of them: a worker registers with its
// first polling beat, which a fast job could otherwise finish ahead of.
func startCluster(t *testing.T, n int, opts ...Option) (*Master, []*Worker) {
	t.Helper()
	m := startMaster(t, opts...)
	workers := make([]*Worker, n)
	for i := range workers {
		workers[i] = startWorker(t, m, "worker-"+strconv.Itoa(i))
	}
	for deadline := time.Now().Add(jobDeadline); m.Stats().Workers < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("master saw %d of %d workers after %v: %+v", m.Stats().Workers, n, jobDeadline, m.Stats())
		}
	}
	return m, workers
}

// jobDeadline bounds a test job that has nothing slow in it.
const jobDeadline = 30 * time.Second

// waitJob waits for the job under a deadline. On expiry it fails the test
// with the job's status and the master's stats, so a stall reads as a state
// in seconds instead of as the package timeout in minutes.
func waitJob(t *testing.T, h *JobHandle, deadline time.Duration) *mapreduce.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := h.Wait(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("job %s not done after %v: status %+v, master %+v", h.ID(), deadline, h.Status(), h.m.Stats())
	}
	if err != nil {
		t.Fatalf("job %s: %v", h.ID(), err)
	}
	return res
}

// submitWait is Submit + waitJob: the synchronous job run of most tests.
func submitWait(t *testing.T, m *Master, desc JobDescriptor, input []byte, blockSize int) *mapreduce.Result {
	t.Helper()
	h, err := m.Submit(context.Background(), desc, input, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return waitJob(t, h, jobDeadline)
}

// outputBytes renders a result's output lines, partitions in order.
func outputBytes(t *testing.T, res *mapreduce.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.MaterializeOutputTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func outputCounts(t *testing.T, res *mapreduce.Result) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, p := range res.Output() {
		for _, kv := range p {
			n, err := strconv.Atoi(kv.Value)
			if err != nil {
				t.Fatalf("bad count %q", kv.Value)
			}
			if _, dup := out[kv.Key]; dup {
				t.Fatalf("duplicate key %q", kv.Key)
			}
			out[kv.Key] = n
		}
	}
	return out
}

// checkWordCount compares a wordcount job's output with a direct count of
// its input's words.
func checkWordCount(t *testing.T, res *mapreduce.Result, input []byte) {
	t.Helper()
	got := outputCounts(t, res)
	want := map[string]int{}
	for _, w := range strings.Fields(string(input)) {
		want[w]++
	}
	if len(got) != len(want) {
		t.Fatalf("%d words, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestDistributedWordCountMatchesLocal(t *testing.T) {
	input := workloads.GenerateText(64*units.KB, 5)
	m, workers := startCluster(t, 3)
	res := submitWait(t, m, JobDescriptor{Workload: "wordcount", NumReducers: 3}, input, 8*1024)

	checkWordCount(t, res, input)
	if res.Counters.MapTasks < 8 {
		t.Errorf("only %d map tasks for 64KB at 8KB chunks", res.Counters.MapTasks)
	}
	// Every task attempt is accounted for (tasks are fast enough that a
	// single worker may legitimately drain the queue, so spread across
	// workers is not asserted).
	total := 0
	for _, w := range workers {
		total += w.TasksRun()
	}
	if want := res.Counters.MapTasks + res.Counters.ReduceTasks; total < want {
		t.Errorf("workers ran %d tasks, want >= %d", total, want)
	}
	if got := m.Stats().Workers; got != 3 {
		t.Errorf("master saw %d workers, want 3", got)
	}
}

func TestDistributedTeraSortGlobalOrder(t *testing.T) {
	input := workloads.GenerateTeraRecords(32*units.KB, 9)
	m, _ := startCluster(t, 3)
	res := submitWait(t, m, JobDescriptor{Workload: "terasort", NumReducers: 3}, input, 8*1024)

	var keys []string
	for _, p := range res.Output() {
		for _, kv := range p {
			keys = append(keys, kv.Key)
		}
	}
	lines := strings.Split(strings.TrimRight(string(input), "\n"), "\n")
	want := make([]string, len(lines))
	for i, l := range lines {
		want[i] = workloads.TeraKey(l)
	}
	sort.Strings(want)
	if len(keys) != len(want) {
		t.Fatalf("%d keys out, want %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("key[%d] = %q, want %q (cross-partition order broken)", i, keys[i], want[i])
		}
	}
}

func TestDistributedFPGrowthMatchesLocalMiner(t *testing.T) {
	input := workloads.GenerateTransactions(8*units.KB, 7)
	m, _ := startCluster(t, 2)
	res := submitWait(t, m, JobDescriptor{Workload: "fpgrowth", NumReducers: 2}, input, 2*1024)

	var txs [][]string
	for _, line := range strings.Split(strings.TrimRight(string(input), "\n"), "\n") {
		txs = append(txs, strings.Fields(line))
	}
	want := map[string]int{}
	for _, p := range workloads.MineTransactions(txs, 2) {
		want[p.Key()] = p.Support
	}
	got := outputCounts(t, res)
	if len(got) != len(want) {
		t.Fatalf("distributed mined %d patterns, reference %d", len(got), len(want))
	}
	for k, s := range want {
		if got[k] != s {
			t.Errorf("support[%s] = %d, want %d", k, got[k], s)
		}
	}
}

// TestBundledWorkloadsMatchEngine runs every bundled workload on a
// 2-worker cluster and on the engine, over the same input and block size:
// the cluster builds each job from the side data the workload computes
// (or, for grep, the submitted pattern), so the output is the same bytes.
// FP-Growth's input holds the item "\x00minSupport", which must count as
// an item like any other, not as the f-list's min support.
func TestBundledWorkloadsMatchEngine(t *testing.T) {
	m, _ := startCluster(t, 2)
	for _, w := range workloads.All() {
		t.Run(w.Name(), func(t *testing.T) {
			desc := JobDescriptor{Workload: w.Name(), NumReducers: 3}
			input, blockSize := w.Generate(16*units.KB, 29), 4*1024
			switch w.Name() {
			case "grep":
				desc.Aux = []byte("ou")
			case "fpgrowth":
				desc.NumReducers = 2
				input, blockSize = []byte("a b \x00minSupport\na \x00minSupport\nb \x00minSupport c\na b\n"), 16
			}
			cfg := mapreduce.DefaultConfig(w.Name())
			cfg.NumReducers = desc.NumReducers
			job, err := w.Build(cfg, input)
			if err != nil {
				t.Fatal(err)
			}
			want := engineOutput(t, job, input, blockSize)
			if len(want) == 0 {
				t.Fatal("the engine's output is empty")
			}
			if n := bytes.Count(want, []byte("\n")); w.Name() == "fpgrowth" && n != 6 {
				t.Fatalf("the engine mined %d patterns, want 6:\n%q", n, want)
			}
			if got := outputBytes(t, submitWait(t, m, desc, input, blockSize)); !bytes.Equal(got, want) {
				t.Errorf("cluster output (%d lines)\n%q\nengine output (%d lines)\n%q",
					bytes.Count(got, []byte("\n")), got, bytes.Count(want, []byte("\n")), want)
			}
		})
	}
}

// TestIdleWorkersSurviveUntilSubmission is the regression for the one-shot
// worker loop: workers that poll an idle master — here for well over five
// poll intervals before any job exists — must keep polling, so the job
// submitted afterwards runs instead of waiting on a master with no workers.
func TestIdleWorkersSurviveUntilSubmission(t *testing.T) {
	m, workers := startCluster(t, 2)
	time.Sleep(100 * time.Millisecond) // ten default poll intervals
	if st := m.Stats(); st.Workers != 2 {
		t.Fatalf("%d workers polled the idle master, want 2", st.Workers)
	}
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 2},
		workloads.GenerateText(16*units.KB, 17), 4*1024)
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, h, 10*time.Second)
	ran := 0
	for _, w := range workers {
		ran += w.TasksRun()
	}
	if want := res.Counters.MapTasks + res.Counters.ReduceTasks; ran < want {
		t.Errorf("workers ran %d tasks, want >= %d", ran, want)
	}
	if st := m.Stats(); st.Workers != 2 || st.Evicted != 0 {
		t.Errorf("after the job: %+v, want both workers still polling", st)
	}
}

// TestWorkerFailureReassignment kills a worker that has taken tasks; the
// master must reissue its work after the timeout and the job completes
// correctly on the survivor.
func TestWorkerFailureReassignment(t *testing.T) {
	input := workloads.GenerateText(32*units.KB, 11)
	m := startMaster(t, WithTaskTimeout(300*time.Millisecond))

	// A saboteur that grabs map tasks and never completes them.
	sab, err := rpc.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sab.Close()
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 2}, input, 4*1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		stealMapTask(t, sab, "saboteur")
	}

	// Now start an honest worker; it must pick up the reissued tasks.
	startWorker(t, m, "honest")
	checkWordCount(t, waitJob(t, h, jobDeadline), input)
	st := m.Stats()
	if st.Reassigned+st.Speculative == 0 {
		t.Error("no reassignments or speculative attempts recorded despite the saboteur")
	}
}

func TestRegistryBuilds(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"wordcount", "naivebayes", "sort", "terasort"} {
		if _, err := r.Build(JobDescriptor{Workload: name, NumReducers: 2}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := r.Build(JobDescriptor{Workload: "grep", NumReducers: 1, Aux: []byte("ou")}); err != nil {
		t.Errorf("grep: %v", err)
	}
	if _, err := r.Build(JobDescriptor{Workload: "fpgrowth", NumReducers: 1, Aux: []byte("not json")}); err == nil {
		t.Error("fpgrowth with bad f-list accepted")
	}
	if _, err := r.Build(JobDescriptor{Workload: "unknown"}); err == nil {
		t.Error("unknown workload accepted")
	}
	// Custom registration.
	r.Register("custom", func(desc JobDescriptor) (mapreduce.Job, error) {
		cfg := mapreduce.DefaultConfig("custom")
		cfg.NumReducers = desc.NumReducers
		return mapreduce.Job{Config: cfg, Mapper: mapreduce.IdentityMapper(), Reducer: mapreduce.IdentityReducer()}, nil
	})
	if _, err := r.Build(JobDescriptor{Workload: "custom", NumReducers: 1}); err != nil {
		t.Errorf("custom: %v", err)
	}
}

func TestSplitInputRecordAligned(t *testing.T) {
	data := []byte("aaa\nbb\ncccc\ndd\ne\n")
	chunks := mapreduce.SplitInput(data, 5)
	var total int
	for i, c := range chunks {
		total += len(c)
		if c[len(c)-1] != '\n' && i != len(chunks)-1 {
			t.Errorf("chunk %d not newline-terminated: %q", i, c)
		}
	}
	if total != len(data) {
		t.Errorf("chunks cover %d bytes, want %d", total, len(data))
	}
	if len(chunks) < 2 {
		t.Errorf("expected multiple chunks, got %d", len(chunks))
	}
	if got := mapreduce.SplitInput(nil, 8); got != nil {
		t.Errorf("empty input produced chunks: %v", got)
	}
}

// TestRemoteSubmit exercises the RPC submission path used by cmd/hadoopd:
// a client dials the master and submits a job while the worker keeps
// polling across it.
func TestRemoteSubmit(t *testing.T) {
	m := startMaster(t)
	startWorker(t, m, "daemon")

	client, err := rpc.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	input := workloads.GenerateText(16*units.KB, 2)
	var res mapreduce.Result
	if err := client.Call("Master.Submit", SubmitArgs{
		Desc: JobDescriptor{Workload: "wordcount", NumReducers: 2}, Input: input, BlockSize: 4096,
	}, &res); err != nil {
		t.Fatal(err)
	}
	checkWordCount(t, &res, input)
	// The worker survives the job: submit a second one.
	var res2 mapreduce.Result
	if err := client.Call("Master.Submit", SubmitArgs{
		Desc: JobDescriptor{Workload: "grep", NumReducers: 1, Aux: []byte("ou")}, Input: input, BlockSize: 4096,
	}, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.Counters.MapTasks == 0 {
		t.Error("second job ran no tasks")
	}
}

// TestInvalidGrepPatternRejected: a grep pattern that does not compile is
// an invalid job, both in process and over the RPC path cmd/hadoopd uses,
// and the master goes on serving — the next job over the same connection
// runs to the right answer.
func TestInvalidGrepPatternRejected(t *testing.T) {
	m := startMaster(t)
	startWorker(t, m, "daemon")
	input := workloads.GenerateText(16*units.KB, 3)
	bad := JobDescriptor{Workload: "grep", NumReducers: 1, Aux: []byte("(")}

	if _, err := m.Submit(context.Background(), bad, input, 4096); !errors.Is(err, ErrInvalidJob) {
		t.Fatalf("in-process submit of an invalid pattern: %v, want wrapped ErrInvalidJob", err)
	}
	client, err := rpc.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var res mapreduce.Result
	err = client.Call("Master.Submit", SubmitArgs{Desc: bad, Input: input, BlockSize: 4096}, &res)
	if _, ok := err.(rpc.ServerError); !ok || !strings.Contains(err.Error(), ErrInvalidJob.Error()) {
		t.Fatalf("remote submit of an invalid pattern: %v, want a server error naming %q", err, ErrInvalidJob)
	}

	good := JobDescriptor{Workload: "grep", NumReducers: 1, Aux: []byte("ou")}
	if err := client.Call("Master.Submit", SubmitArgs{Desc: good, Input: input, BlockSize: 4096}, &res); err != nil {
		t.Fatalf("remote submit after the rejection: %v", err)
	}
	want := map[string]int{}
	for _, w := range strings.Fields(string(input)) {
		if strings.Contains(w, "ou") {
			want[w]++
		}
	}
	if got := outputCounts(t, &res); !reflect.DeepEqual(got, want) {
		t.Errorf("grep after the rejection: %d distinct matches, want %d", len(got), len(want))
	}
}

// TestSubmitChecksInputBeforeSideData: Submit refuses an empty input with
// ErrEmptyInput before it computes any side data, and a side-data error —
// a sort whose input has too few keys to cut for its reducers — is an
// invalid job, both in process and over RPC; the master then still serves
// a good job over the same connection.
func TestSubmitChecksInputBeforeSideData(t *testing.T) {
	m := startMaster(t)
	startWorker(t, m, "daemon")
	ctx := context.Background()
	sorted := JobDescriptor{Workload: "sort", NumReducers: 4}
	tera := JobDescriptor{Workload: "terasort", NumReducers: 2}
	few := []byte("a\nb\n")
	if _, err := m.Submit(ctx, sorted, few, 4096); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("in-process sort of %q over 4 reducers: %v, want wrapped ErrInvalidJob", few, err)
	}
	if _, err := m.Submit(ctx, tera, nil, 4096); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("in-process terasort of no input: %v, want ErrEmptyInput", err)
	}
	client, err := rpc.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var res mapreduce.Result
	for _, c := range []struct {
		desc  JobDescriptor
		input []byte
		want  error
	}{{sorted, few, ErrInvalidJob}, {tera, nil, ErrEmptyInput}} {
		err := client.Call("Master.Submit", SubmitArgs{Desc: c.desc, Input: c.input, BlockSize: 4096}, &res)
		if _, ok := err.(rpc.ServerError); !ok || !strings.Contains(err.Error(), c.want.Error()) {
			t.Errorf("remote %s of %q: %v, want a server error naming %q", c.desc.Workload, c.input, err, c.want)
		}
	}
	input := workloads.GenerateTeraRecords(16*units.KB, 5)
	if err := client.Call("Master.Submit", SubmitArgs{Desc: tera, Input: input, BlockSize: 4096}, &res); err != nil {
		t.Fatalf("remote terasort after the rejections: %v", err)
	}
	if got, want := res.Counters.ReduceOutputRecords, int64(bytes.Count(input, []byte("\n"))); got != want {
		t.Errorf("terasort after the rejections wrote %d records, want %d", got, want)
	}
}

// TestSpeculativeExecution checks the backup-task path: an idle worker
// receives a speculative copy of a straggler's task well before the hard
// reassignment timeout, and the job completes with first-result-wins
// semantics.
func TestSpeculativeExecution(t *testing.T) {
	input := workloads.GenerateText(8*units.KB, 13)
	m := startMaster(t, WithTaskTimeout(10*time.Second)) // long hard timeout

	// The straggler grabs one map task and sits on it.
	sab, err := rpc.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sab.Close()
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 1}, input, 4*1024)
	if err != nil {
		t.Fatal(err)
	}
	stealMapTask(t, sab, "straggler")

	// An honest worker drains the rest, then idles until the straggler's
	// task passes the speculation age (half the timeout) and is backed up.
	startWorker(t, m, "honest")
	if res := waitJob(t, h, jobDeadline); res.Counters.MapTasks == 0 {
		t.Error("no map tasks ran")
	}
	if m.Stats().Speculative == 0 {
		t.Error("no speculative attempts despite the straggler")
	}
}

// TestReportFailureRequeuesImmediately checks the fast-failure path: a
// worker whose registry cannot build the job reports the failure and stops
// with the error, and the master hands the task to a healthy worker without
// waiting for the timeout.
func TestReportFailureRequeuesImmediately(t *testing.T) {
	input := workloads.GenerateText(8*units.KB, 19)
	m := startMaster(t, WithTaskTimeout(60*time.Second)) // timeout far beyond the test

	// A broken worker whose registry rejects every build.
	broken := connectWorker(t, m, "broken")
	broken.Registry().Register("wordcount", func(JobDescriptor) (mapreduce.Job, error) {
		return mapreduce.Job{}, errors.New("broken factory")
	})
	brokenErr := make(chan error, 1)
	go func() { brokenErr <- broken.RunForeverCtx(context.Background()) }()

	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 1}, input, 4*1024)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-brokenErr:
		if err == nil {
			t.Error("broken worker's loop returned nil, want the build error")
		}
	case <-time.After(jobDeadline):
		t.Fatal("broken worker never failed a task")
	}

	startWorker(t, m, "healthy")
	if res := waitJob(t, h, 20*time.Second); res.Counters.MapTasks == 0 {
		t.Error("no tasks ran")
	}
	if m.Stats().Reassigned == 0 {
		t.Error("failure report did not requeue anything")
	}
}

// TestRetiredRingByteBudget pins the retired ring's two bounds: small
// results stay for all maxRetired jobs, while large ones age out, oldest
// first, once they pin more than maxRetiredBytes of output — a failed or
// cancelled job (no result) pins nothing.
func TestRetiredRingByteBudget(t *testing.T) {
	retire := func(ring []*jobState, id string, out units.Bytes) []*jobState {
		js := &jobState{id: id}
		if out > 0 {
			js.result = &mapreduce.Result{Counters: mapreduce.Counters{ReduceOutputBytes: out}}
		}
		return trimRetired(append(ring, js))
	}
	var ring []*jobState
	for i := 0; i < 2*maxRetired; i++ {
		ring = retire(ring, "small-"+strconv.Itoa(i), 64*units.KB)
	}
	if len(ring) != maxRetired || ring[0].id != "small-"+strconv.Itoa(maxRetired) {
		t.Fatalf("ring of small results holds %d jobs from %s, want the newest %d", len(ring), ring[0].id, maxRetired)
	}
	ring = nil
	for i := 0; i < 8; i++ {
		ring = retire(ring, "large-"+strconv.Itoa(i), maxRetiredBytes/4)
		ring = retire(ring, "cancelled-"+strconv.Itoa(i), 0)
	}
	var pinned units.Bytes
	large := 0
	for _, js := range ring {
		if js.result != nil {
			pinned += js.result.Counters.ReduceOutputBytes
			large++
		}
	}
	if pinned > maxRetiredBytes || large != 4 || ring[len(ring)-1].id != "cancelled-7" {
		t.Errorf("ring pins %v in %d large results (newest %s), want at most %v in 4, newest kept",
			pinned, large, ring[len(ring)-1].id, maxRetiredBytes)
	}
}

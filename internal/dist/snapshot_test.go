package dist

// snapshot_test.go covers the snapshot file — a journal of records after a
// checkpoint — and the per-job data files beside it: the version and kind
// gates, a job record's data file and extents read back, a restart that
// serves a finished reducer's output from the data file (torn append
// included), a journal cut at every byte offset, the orphan sweep and the
// missing/short file errors, the empty directory a closed cluster leaves, a
// file whose size follows the task table rather than the input, and the one
// snapshot writer: off the master's lock, awaited by Submit alone, flushed
// and stopped by Close.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// dataFiles lists the job data files beside the snapshot at snap.
func dataFiles(t testing.TB, snap string) []string {
	t.Helper()
	files, err := filepath.Glob(snap + ".job-*")
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// dirNames lists dir's entries by name, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// writeJournal writes, at path, a checkpoint of epoch and jobs as the
// persister would.
func writeJournal(t *testing.T, path string, epoch uint64, jobs ...*jobState) {
	t.Helper()
	b := appendHeader(nil, epoch)
	for _, js := range jobs {
		b = appendJob(b, js)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadSnapshot replays the journal at path into a fresh core, each job
// attached to its data file beside it.
func loadSnapshot(path string) (*core, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := newCore(config{observer: obs.Nop, maxActiveJobs: 1, snapshotPath: path})
	err = c.replay(b, func(js *jobState) error {
		buf, err := os.ReadFile(filepath.Join(filepath.Dir(path), js.dataFile))
		if err == nil {
			err = js.attach(buf)
		}
		return err
	}, time.Now())
	return c, err
}

// wholeRecords splits b into its whole records and the bytes after them.
func wholeRecords(b []byte) (ends []int, torn []byte) {
	for off := 0; ; {
		_, _, rest, ok := nextRecord(b[off:])
		if !ok {
			return ends, b[off:]
		}
		off = len(b) - len(rest)
		ends = append(ends, off)
	}
}

// rawRecord frames payload as a record of kind.
func rawRecord(b []byte, kind byte, payload []byte) []byte {
	start := len(b)
	return endRecord(append(beginRecord(b, kind), payload...), start)
}

// TestSnapshotVersionMismatchRejected pins the version gate: a journal
// whose header names another version fails StartMaster with an error
// naming both versions, and so does a file in the version-5 layout — one
// gob value — which does not start with a journal header at all.
func TestSnapshotVersionMismatchRejected(t *testing.T) {
	for _, v := range []uint64{2, 3, 4, 5, 7} {
		snap := filepath.Join(t.TempDir(), "master.snap")
		b := rawRecord(nil, recHeader, appendUint(appendUint(nil, v), 1))
		if err := os.WriteFile(snap, b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := StartMaster("127.0.0.1:0", WithSnapshotPath(snap))
		if err == nil {
			m.Close()
			t.Fatalf("StartMaster resumed a version-%d journal", v)
		}
		if want := fmt.Sprintf("snapshot version %d, want 6", v); !strings.Contains(err.Error(), want) {
			t.Errorf("StartMaster error %q, want it to name %q", err, want)
		}
	}

	type v5Job struct {
		ID          string
		Epoch       uint64
		Desc        JobDescriptor
		BlockSize   int
		DataFile    string
		InputLen    int64
		SubmittedAt time.Time
	}
	type v5Snapshot struct {
		Version int
		Epoch   uint64
		Jobs    []v5Job
	}
	var buf bytes.Buffer
	old := v5Snapshot{Version: 5, Epoch: 1, Jobs: []v5Job{{ID: "job-1", Epoch: 1, BlockSize: 8}}}
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "master.snap")
	if err := os.WriteFile(snap, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := StartMaster("127.0.0.1:0", WithSnapshotPath(snap))
	if err == nil {
		m.Close()
		t.Fatal("StartMaster resumed a version-5 gob snapshot")
	}
	for _, want := range []string{snap, "not a version-6 snapshot"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("StartMaster error %q, want it to name %q", err, want)
		}
	}
}

// TestSnapshotUnknownKindOrVersionRefused: a journal is refused, with an
// error naming what is wrong, when its header names an unknown version, a
// checksummed record has an unknown kind, a header follows the first
// record, or a known kind has a malformed payload. Only a torn or
// corrupt record — the tail a killed write leaves — ends the replay
// quietly.
func TestSnapshotUnknownKindOrVersionRefused(t *testing.T) {
	header := appendHeader(nil, 0)
	for _, c := range []struct {
		name    string
		journal []byte
		want    string
	}{
		{"version", rawRecord(nil, recHeader, appendUint(appendUint(nil, 99), 0)), "snapshot version 99, want 6"},
		{"kind", rawRecord(bytes.Clone(header), 99, []byte("x")), "record 1: unknown record kind 99"},
		{"header twice", appendHeader(bytes.Clone(header), 0), "record 1: a header past the first record"},
		{"malformed", rawRecord(bytes.Clone(header), recWorker, []byte{5, 'w'}), "record 1 (worker): count 5, but only 1 bytes follow"},
		{"trailing", rawRecord(bytes.Clone(header), recWorker, []byte{0, 0, 0}), "record 1 (worker): 1 trailing bytes"},
		{"unknown job", rawRecord(bytes.Clone(header), recMapLost, []byte{7, 0}), "record 1 (map-lost): no active job of epoch 7"},
	} {
		snap := filepath.Join(t.TempDir(), "master.snap")
		if err := os.WriteFile(snap, c.journal, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := StartMaster("127.0.0.1:0", WithSnapshotPath(snap))
		if err == nil {
			m.Close()
			t.Errorf("%s: StartMaster resumed the journal", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: StartMaster error %q, want it to name %q", c.name, err, c.want)
		}
	}

	torn := appendWorker(bytes.Clone(header), &workerInfo{ID: "w1"})
	torn[len(torn)-1] ^= 0xff
	snap := filepath.Join(t.TempDir(), "master.snap")
	if err := os.WriteFile(snap, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	m := startMaster(t, WithSnapshotPath(snap))
	if st := m.Stats(); st.Workers != 0 {
		t.Errorf("a record failing its checksum was replayed: %d workers known", st.Workers)
	}
}

// TestSnapshotBlobsRoundTrip pins the job record: it names the data file
// and the extents in it, and replaying it reads the input and the finished
// reducer's output back at those extents — an unfinished reducer's extent
// stays empty, and a torn append past the last extent is not an error.
func TestSnapshotBlobsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "master.snap")
	input, out := []byte("one\ntwo\n"), []byte("out")
	data := filepath.Join(dir, "master.snap.job-1")
	if err := os.WriteFile(data, append(append(append([]byte(nil), input...), out...), "torn"...), 0o644); err != nil {
		t.Fatal(err)
	}
	outs := []extent{{}, {Off: int64(len(input)), Len: int64(len(out))}, {}}
	in := newJobState("job-1", 1, JobDescriptor{Workload: "wordcount", NumReducers: 3}, len(input), len(input), t0)
	in.dataFile, in.outExt = filepath.Base(data), outs
	in.mapTasks[0].done, in.mapTasks[0].owner = true, "w"
	writeJournal(t, path, 1, in)
	c, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	js := c.byEpoch[1]
	if js.dataFile != filepath.Base(data) || js.inputLen != len(input) || fmt.Sprint(js.outExt) != fmt.Sprint(outs) {
		t.Errorf("job record = file %q input %d outputs %v, want %q %d %v",
			js.dataFile, js.inputLen, js.outExt, filepath.Base(data), len(input), outs)
	}
	if ts := js.mapTasks[0]; !ts.done || ts.owner != "w" || len(js.partSegs) != 3 {
		t.Errorf("task table did not survive: done %v owner %q, %d partitions", ts.done, ts.owner, len(js.partSegs))
	}
	if !bytes.Equal(js.mapTasks[0].task.Window, input) || !bytes.Equal(js.redOutputs[1], out) {
		t.Errorf("data file read back as window %q and output %q, want %q and %q", js.mapTasks[0].task.Window, js.redOutputs[1], input, out)
	}
	if js.redsLeft != 2 || js.redTasks[0].done || !js.redTasks[1].done {
		t.Errorf("reducers done %v %v %v (%d left), want only reducer 1", js.redTasks[0].done, js.redTasks[1].done, js.redTasks[2].done, js.redsLeft)
	}
}

// TestSnapshotRestartResumesFinishedReducer closes a master with one of
// two reducers done: the restarted master must read that output back from
// the job's data file — only the other reducer runs again — and the result
// must be byte-identical to an uninterrupted run, also when garbage (a
// torn append) follows the last recorded extent.
func TestSnapshotRestartResumesFinishedReducer(t *testing.T) {
	input := workloads.GenerateText(8*units.KB, 37)
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 2}
	ref := startMaster(t)
	startWorker(t, ref, "reference")
	want := outputBytes(t, submitWait(t, ref, desc, input, 2*1024))

	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			snap := filepath.Join(t.TempDir(), "master.snap")
			m1 := startMaster(t, WithSnapshotPath(snap))
			h1, err := m1.Submit(context.Background(), desc, input, 2*1024)
			if err != nil {
				t.Fatal(err)
			}
			clerk := connectWorker(t, m1, "clerk")
			driveMaps(t, h1, clerk)
			if err := clerk.runReduceStreaming(context.Background(), stealTask(t, clerk.client, clerk.ID, TaskReduce)); err != nil {
				t.Fatal(err)
			}
			if st := h1.Status(); st.ReducesDone != 1 {
				t.Fatalf("pre-restart status = %+v, want 1 reducer done", st)
			}
			m1.Close()
			files := dataFiles(t, snap)
			if len(files) != 1 {
				t.Fatalf("data files beside the snapshot: %v, want one", files)
			}
			if torn {
				f, err := os.OpenFile(files[0], os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.WriteString("a torn append that no extent names")
				f.Close()
			}

			m2 := startMaster(t, WithSnapshotPath(snap))
			st, ok := m2.JobStatus(h1.ID())
			if !ok || st.MapsDone != st.MapsTotal || st.ReducesDone != 1 {
				t.Fatalf("restored status = %+v (found %v), want every map and 1 reducer done", st, ok)
			}
			h2, _ := m2.Handle(h1.ID())
			resumer := startWorker(t, m2, "resumer")
			if got := outputBytes(t, waitJob(t, h2, jobDeadline)); !bytes.Equal(got, want) {
				t.Errorf("resumed output differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
			}
			if n := resumer.TasksRun(); n != 1 {
				t.Errorf("resumer ran %d tasks, want 1 (the finished reducer comes from the data file)", n)
			}
			// Wait returns inside the retiring critical section; the unlink
			// follows the persister's write covering that commit.
			m2.mu.Lock()
			m2.waitSavedLocked(m2.commits)
			m2.mu.Unlock()
			if files := dataFiles(t, snap); len(files) != 0 {
				t.Errorf("retired job left its data file: %v", files)
			}
		})
	}
}

// TestSnapshotRestoredQueuedJobHasNoPhase restarts a snapshotting master
// with two running jobs under a lower concurrent-job cap: the job that
// comes back queued must report no phase, as a queued job does, and both
// must still finish byte-identical to a plain run once a worker arrives.
func TestSnapshotRestoredQueuedJobHasNoPhase(t *testing.T) {
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 2}
	inputs := [][]byte{workloads.GenerateText(8*units.KB, 51), workloads.GenerateText(8*units.KB, 52)}
	ref := startMaster(t)
	startWorker(t, ref, "reference")
	var want [][]byte
	for _, in := range inputs {
		want = append(want, outputBytes(t, submitWait(t, ref, desc, in, 2*1024)))
	}

	snap := filepath.Join(t.TempDir(), "master.snap")
	m1 := startMaster(t, WithSnapshotPath(snap), WithMaxConcurrentJobs(2))
	var ids []string
	for _, in := range inputs {
		h, err := m1.Submit(context.Background(), desc, in, 2*1024)
		if err != nil {
			t.Fatal(err)
		}
		if st := h.Status(); st.State != JobRunning || st.Phase != "map" {
			t.Fatalf("submitted job %s: state %q phase %q, want running in map", h.ID(), st.State, st.Phase)
		}
		ids = append(ids, h.ID())
	}
	m1.Close()

	m2 := startMaster(t, WithSnapshotPath(snap), WithMaxConcurrentJobs(1))
	for i, want := range []JobStatus{{State: JobRunning, Phase: "map"}, {State: JobQueued, Phase: ""}} {
		if st, _ := m2.JobStatus(ids[i]); st.State != want.State || st.Phase != want.Phase {
			t.Errorf("restored job %s: state %q phase %q, want %q phase %q", ids[i], st.State, st.Phase, want.State, want.Phase)
		}
	}
	startWorker(t, m2, "resumer")
	for i, id := range ids {
		h, _ := m2.Handle(id)
		if got := outputBytes(t, waitJob(t, h, jobDeadline)); !bytes.Equal(got, want[i]) {
			t.Errorf("job %s output differs from the plain run (%d vs %d bytes)", id, len(got), len(want[i]))
		}
	}
}

// TestSnapshotOrphanSweep: StartMaster removes the data files its
// snapshot does not name and the checkpoint temp files a crash left before
// their rename (and nothing else), and refuses — naming job and file — a
// snapshot whose data file is missing or short.
func TestSnapshotOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "master.snap")
	m1 := startMaster(t, WithSnapshotPath(snap))
	h, err := m1.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 2},
		workloads.GenerateText(8*units.KB, 41), 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	named := dataFiles(t, snap)
	if len(named) != 1 {
		t.Fatalf("data files of one in-flight job: %v", named)
	}
	orphan := snap + ".job-orphan"
	temp := filepath.Join(dir, ".master.snap.tmp-123")
	other := filepath.Join(dir, "unrelated.job-1")
	for _, p := range []string{orphan, temp, other} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m2 := startMaster(t, WithSnapshotPath(snap))
	if n := masterGoroutines(); n < 3 {
		t.Errorf("%d goroutines started by an open snapshotting master, want its accept loop, janitor and writer", n)
	}
	for _, p := range []string{orphan, temp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived StartMaster: %v", p, err)
		}
	}
	for _, p := range []string{named[0], other} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("StartMaster removed %s: %v", p, err)
		}
	}
	m2.Close()

	for _, c := range []struct {
		name   string
		damage func(string) error
		want   string
	}{
		{"short", func(p string) error { return os.Truncate(p, 100) }, "shorter than"},
		{"missing", os.Remove, "no such file"},
	} {
		if err := c.damage(named[0]); err != nil {
			t.Fatal(err)
		}
		m, err := StartMaster("127.0.0.1:0", WithSnapshotPath(snap))
		if err == nil {
			m.Close()
			t.Fatalf("%s data file: StartMaster resumed the job", c.name)
		}
		// Closed masters' goroutines exit on their own; a failed start's
		// snapshot writer would wait for a commit forever.
		for deadline := time.Now().Add(5 * time.Second); masterGoroutines() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s data file: %d master goroutines left after the failed StartMaster", c.name, masterGoroutines())
			}
		}
		for _, want := range []string{h.ID(), named[0], c.want} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s data file: StartMaster error %q does not name %q", c.name, err, want)
			}
		}
	}
}

// TestSnapshotLeavesOnlyItsFile runs jobs to completion and cancels one on
// a snapshotting master: once the master is closed, the snapshot is the
// only file in its directory.
func TestSnapshotLeavesOnlyItsFile(t *testing.T) {
	dir := t.TempDir()
	m := startMaster(t, WithSnapshotPath(filepath.Join(dir, "master.snap")))
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 2},
		workloads.GenerateText(8*units.KB, 43), 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	startWorker(t, m, "w")
	for i := 0; i < 3; i++ {
		submitWait(t, m, JobDescriptor{Workload: "wordcount", NumReducers: 2},
			workloads.GenerateText(8*units.KB, int64(44+i)), 2*1024)
	}
	submitWait(t, m, JobDescriptor{Workload: "terasort", NumReducers: 3},
		workloads.GenerateTeraRecords(16*units.KB, 47), 4*1024)
	m.Close()
	if got := dirNames(t, dir); len(got) != 1 || got[0] != "master.snap" {
		t.Errorf("directory after Close holds %v, want only master.snap", got)
	}
}

// masterGoroutines counts the goroutines StartMaster started — accept
// loop, janitor, snapshot writer — still present in the process, started
// or not.
func masterGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by heterohadoop/internal/dist.StartMaster"))
}

// returnsWithin fails the test unless f returns, without error, within 5 s.
func returnsWithin(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5 s", what)
	}
}

// TestSnapshotWriteOffLock blocks the persister inside its file write: a
// completing beat, a zero-wait polling beat, Stats and Cancel all return
// meanwhile, while each Submit returns only once a write that names its
// job is on disk — a Submit issued during the blocked write waits for the
// next one, which also covers the commits made meanwhile. A cancelled
// job's data file stays until the write without the job is done. A write
// that fails is counted, and its Submit still succeeds.
func TestSnapshotWriteOffLock(t *testing.T) {
	c := obs.NewCollector()
	snap := filepath.Join(t.TempDir(), "master.snap")
	m := startMaster(t, WithSnapshotPath(snap), WithObserver(c), WithTaskTimeout(time.Minute))
	entered, release, done := make(chan struct{}), make(chan error), make(chan struct{})
	t.Cleanup(func() { close(done) }) // lets Close's flush through
	m.mu.Lock()
	write := m.writeFile
	m.writeFile = func(b []byte, checkpoint bool) error {
		select {
		case entered <- struct{}{}:
		case <-done:
			return write(b, checkpoint)
		}
		select {
		case err := <-release:
			if err != nil {
				return err
			}
		case <-done:
		}
		return write(b, checkpoint)
	}
	m.mu.Unlock()
	blocked := func() {
		t.Helper()
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("the persister never started a write")
		}
	}
	type submitted struct {
		h   *JobHandle
		err error
	}
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 1}
	submit := func() chan submitted {
		ch := make(chan submitted, 1)
		go func() {
			h, err := m.Submit(context.Background(), desc, workloads.GenerateText(4*units.KB, 71), 64*1024)
			ch <- submitted{h, err}
		}()
		return ch
	}
	// acked waits for a Submit blocked on the write just released and checks
	// that the snapshot on disk names its job.
	acked := func(ch chan submitted) *JobHandle {
		t.Helper()
		var s submitted
		returnsWithin(t, "Submit after its write", func() error { s = <-ch; return s.err })
		on, err := loadSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(on.order, func(js *jobState) bool { return js.id == s.h.ID() }) {
			t.Errorf("Submit of %s returned before a snapshot naming it was on disk", s.h.ID())
		}
		return s.h
	}
	notReturned := func(ch chan submitted, what string) {
		t.Helper()
		select {
		case <-ch:
			t.Fatalf("%s returned during the write that covers its admission", what)
		default:
		}
	}

	a := submit()
	blocked() // the write covering a's admission
	notReturned(a, "Submit a")
	w := connectWorker(t, m, "clerk")
	var task Task
	returnsWithin(t, "zero-wait polling beat", func() error {
		return w.client.Call("Master.Heartbeat", Heartbeat{WorkerID: w.ID, Poll: true}, &task)
	})
	if task.Kind != TaskMap {
		t.Fatalf("polling beat got %q, want a map", task.Kind)
	}
	rep, err := w.runMap(task)
	if err != nil {
		t.Fatal(err)
	}
	returnsWithin(t, "completing beat", func() error {
		return w.client.Call("Master.Heartbeat", Heartbeat{WorkerID: w.ID, Addr: w.shuffleAddr, Reports: []TaskReport{rep}}, &Task{})
	})
	returnsWithin(t, "Stats", func() error { m.Stats(); return nil })
	m.mu.Lock()
	before := m.commits
	m.mu.Unlock()
	b := submit()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		m.mu.Lock()
		admitted := m.commits > before
		m.mu.Unlock()
		if admitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit b was not admitted during the blocked write")
		}
	}
	notReturned(b, "Submit b")
	release <- nil
	ha := acked(a)

	blocked() // b's admission and the map completion, in one write
	notReturned(b, "Submit b")
	returnsWithin(t, "Cancel", func() error { ha.Cancel(); return nil })
	files := dataFiles(t, snap) // a's and b's
	release <- nil
	acked(b)
	if n := c.Counter("dist.snapshot.coalesced"); n < 1 {
		t.Errorf("dist.snapshot.coalesced = %d, want the second write to cover more than one commit", n)
	}

	blocked() // the cancel, which retires a
	if got := dataFiles(t, snap); fmt.Sprint(got) != fmt.Sprint(files) {
		t.Errorf("data files during the write that retires a: %v, want %v until it is done", got, files)
	}
	release <- nil
	failed := submit()
	blocked()
	release <- errors.New("disk full")
	returnsWithin(t, "Submit over a failed write", func() error { return (<-failed).err })
	if got := dataFiles(t, snap); len(got) != 2 || slices.Equal(got, files) {
		t.Errorf("data files after the write that retired a: %v, want b's and the new job's", got)
	}
	if n := c.Counter("dist.snapshot.errors"); n != 1 {
		t.Errorf("dist.snapshot.errors = %d, want 1", n)
	}
	if w, s := c.Counter("dist.snapshot.writes"), c.SpanCount("dist.snapshot.write"); w != 3 || s != 4 {
		t.Errorf("%d snapshot files written in %d dist.snapshot.write spans, want 3 in 4 (one failed)", w, s)
	}
}

// TestSnapshotCloseFlushes runs a burst of submits and cancels against a
// slow persister, then closes the master: the snapshot on disk restores
// exactly the jobs still active, the cancelled jobs' data files are gone,
// and nothing is written once Close has returned.
func TestSnapshotCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "master.snap")
	m := startMaster(t, WithSnapshotPath(snap), WithMaxConcurrentJobs(2))
	var closed atomic.Bool
	var late atomic.Int64
	m.mu.Lock()
	write := m.writeFile
	m.writeFile = func(b []byte, checkpoint bool) error {
		if closed.Load() {
			late.Add(1)
		}
		time.Sleep(time.Millisecond) // a slow disk, so commits queue behind each write
		return write(b, checkpoint)
	}
	m.mu.Unlock()

	desc := JobDescriptor{Workload: "wordcount", NumReducers: 2}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		active []*JobHandle
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := m.Submit(context.Background(), desc, workloads.GenerateText(8*units.KB, int64(80+i)), 2*1024)
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				h.Cancel()
				return
			}
			mu.Lock()
			active = append(active, h)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	m.Close()
	closed.Store(true)
	active[0].Cancel() // a commit after Close persists nothing
	if _, err := m.Submit(context.Background(), desc, []byte("x\n"), 2); !errors.Is(err, ErrMasterClosed) {
		t.Errorf("Submit after Close: %v, want ErrMasterClosed", err)
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d snapshot writes after Close returned", n)
	}

	on, err := loadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	var want, got, named []string
	for _, h := range active {
		want = append(want, h.ID())
	}
	for _, js := range on.order {
		got = append(got, js.id)
		named = append(named, filepath.Join(dir, js.dataFile))
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("snapshot after Close holds jobs %v, want the active %v", got, want)
	}
	sort.Strings(named)
	if files := dataFiles(t, snap); fmt.Sprint(files) != fmt.Sprint(named) {
		t.Errorf("data files after Close: %v, want only the active jobs' %v", files, named)
	}
	if names := dirNames(t, dir); len(names) != len(named)+1 {
		t.Errorf("directory after Close holds %v, want the snapshot and %d data files", names, len(named))
	}

	m2 := startMaster(t, WithSnapshotPath(snap))
	startWorker(t, m2, "resumer")
	for _, id := range want {
		h, ok := m2.Handle(id)
		if !ok {
			t.Fatalf("restarted master lost job %s", id)
		}
		waitJob(t, h, jobDeadline)
	}
}

// snapshotWithJob starts a snapshotting master holding one in-flight
// wordcount job of n bytes in 16 map tasks, and returns it with the
// snapshot path.
func snapshotWithJob(t testing.TB, n units.Bytes) (*Master, string) {
	t.Helper()
	snap := filepath.Join(t.TempDir(), "master.snap")
	m, err := StartMaster("127.0.0.1:0", WithSnapshotPath(snap))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	input := workloads.GenerateText(n, 49)
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 2}, input, (len(input)+15)/16)
	if err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st.MapsTotal != 16 {
		t.Fatalf("%v job has %d map tasks, want 16", n, st.MapsTotal)
	}
	return m, snap
}

// TestSnapshotSizeIndependentOfInput: with one job in flight, the snapshot
// is the same size whether the job's input is 64 KB or 4 MB — it names the
// input's bytes instead of carrying them.
func TestSnapshotSizeIndependentOfInput(t *testing.T) {
	size := func(n units.Bytes) int64 {
		_, snap := snapshotWithJob(t, n)
		fi, err := os.Stat(snap)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	small, large := size(64*units.KB), size(4*units.MB)
	if d := large - small; d < -1024 || d > 1024 {
		t.Errorf("snapshot is %d bytes with a 64 KB job and %d with a 4 MB one, want within 1 KB", small, large)
	}
}

// BenchmarkSnapshotWrite times one commit's persistence with a 16-map job
// in flight: the map completion's record appended to the batch under m.mu,
// the batch taken, and the append off the lock — a checkpoint whenever the
// appends outgrow the last, as the persister does. B/op must not grow with
// the job's input.
func BenchmarkSnapshotWrite(b *testing.B) {
	for _, n := range []units.Bytes{units.MB, 16 * units.MB} {
		m, snap := snapshotWithJob(b, n)
		j := journalFile{path: snap + ".bench"}
		b.Cleanup(func() { j.close(); os.Remove(j.path) })
		var batch []byte
		b.Run(fmt.Sprintf("commit/input=%dMB", n/units.MB), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.mu.Lock()
				js := m.core.order[0]
				m.core.batch = appendMapDone(m.core.batch, js, i%16, "w", "w:addr", []PartStat{{Part: 0, Recs: 1}, {Part: 1, Recs: 1}})
				batch = m.core.takeBatch(batch)
				checkpoint := j.due()
				if checkpoint {
					batch = m.core.checkpoint(batch[:0])
				}
				m.mu.Unlock()
				if err := j.write(batch, checkpoint); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotTruncatedAtEveryOffset cuts a master's journal at every byte
// offset past its checkpoint and restarts on each cut: the restarted master
// holds the state of the last whole record before the cut — a torn record
// is dropped, never misread. A master restarted on a torn tail then writes
// a checkpoint before anything else, so no record lands after torn bytes.
func TestSnapshotTruncatedAtEveryOffset(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	snap := filepath.Join(dir, "master.snap")
	m1 := startMaster(t, WithSnapshotPath(snap))
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 2}
	h, err := m1.Submit(ctx, desc, workloads.GenerateText(8*units.KB, 61), 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	clerk := connectWorker(t, m1, "clerk")
	// states[k] is the job table once the write that ends at sizes[k] is on
	// disk: the checkpoint, then one record per commit.
	var states [][]JobStatus
	var sizes []int
	saved := func() {
		t.Helper()
		m1.mu.Lock()
		m1.waitSavedLocked(m1.commits)
		m1.mu.Unlock()
		fi, err := os.Stat(snap)
		if err != nil {
			t.Fatal(err)
		}
		states, sizes = append(states, m1.Jobs()), append(sizes, int(fi.Size()))
	}
	saved()
	for st := h.Status(); st.MapsDone < st.MapsTotal; st = h.Status() {
		if err := runMapReported(clerk, stealMapTask(t, clerk.client, clerk.ID)); err != nil {
			t.Fatal(err)
		}
		saved()
	}
	if err := clerk.runReduceStreaming(ctx, stealTask(t, clerk.client, clerk.ID, TaskReduce)); err != nil {
		t.Fatal(err)
	}
	saved()
	m1.Close()

	journal, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	ends, torn := wholeRecords(journal)
	if len(torn) != 0 || !slices.Equal(ends[len(ends)-len(sizes)+1:], sizes[1:]) {
		t.Fatalf("journal records end at %v (%d torn bytes), want one record per write, ending at %v", ends, len(torn), sizes)
	}
	for off := sizes[0]; off <= len(journal); off++ {
		if err := os.WriteFile(snap, journal[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := StartMaster("127.0.0.1:0", WithSnapshotPath(snap))
		if err != nil {
			t.Fatalf("journal cut at %d of %d bytes: %v", off, len(journal), err)
		}
		got := m.Jobs()
		m.Close()
		k := 0
		for k+1 < len(sizes) && sizes[k+1] <= off {
			k++
		}
		if !slices.Equal(got, states[k]) {
			t.Fatalf("journal cut at %d of %d bytes restored\n%+v\nwant the state after %d records\n%+v", off, len(journal), got, k, states[k])
		}
	}

	if err := os.WriteFile(snap, journal[:len(journal)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := startMaster(t, WithSnapshotPath(snap))
	h2, err := m2.Submit(ctx, desc, workloads.GenerateText(4*units.KB, 62), 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for rest := after; len(rest) > 0; {
		kind, _, r, ok := nextRecord(rest)
		if !ok {
			t.Fatalf("%d torn bytes survived the restart's first write", len(rest))
		}
		if len(rest) == len(after) != (kind == recHeader) || kind != recHeader && kind != recWorker && kind != recJob {
			t.Fatalf("first write after the restart holds a %s record at byte %d: not a checkpoint", recordNames[kind], len(after)-len(rest))
		}
		if kind == recJob {
			jobs++
		}
		rest = r
	}
	if jobs != 2 {
		t.Errorf("checkpoint after the restart holds %d jobs, want the resumed and the new one", jobs)
	}
	want := m2.Jobs()
	m2.Close()
	m3 := startMaster(t, WithSnapshotPath(snap))
	if got := m3.Jobs(); !slices.Equal(got, want) || len(got) != 2 || got[0].ID != h.ID() || got[1].ID != h2.ID() {
		t.Errorf("restart on the compacted journal restored %+v, want %+v", got, want)
	}
}

package dist

// core_test.go drives the master's core (core.go) directly, in virtual
// time: rule tests that the networked suites can only reach by waiting out
// a timeout, and TestReplay, a seeded harness that interleaves every
// transition — faults, speculation, slowstart, cancels and restarts
// through the snapshot — and checks the core's invariants after each step.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
)

// t0 is the virtual time every core test starts at.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// recorder is an Observer that logs every event it receives as one line,
// in order; phase events are also kept whole.
type recorder struct {
	log    []string
	phases []obs.PhaseEvent
}

func (r *recorder) Enabled() bool { return true }
func (r *recorder) SpanStart(name string, attrs []obs.Attr) obs.SpanID {
	r.log = append(r.log, fmt.Sprintf("span %s %v", name, attrs))
	return obs.SpanID(len(r.log))
}
func (r *recorder) SpanEnd(id obs.SpanID) { r.log = append(r.log, fmt.Sprintf("end %d", id)) }
func (r *recorder) Count(name string, d int64) {
	r.log = append(r.log, fmt.Sprintf("count %s %d", name, d))
}
func (r *recorder) Gauge(name string, v float64) {
	r.log = append(r.log, fmt.Sprintf("gauge %s %g", name, v))
}
func (r *recorder) Progress(label string, done, total int) {
	r.log = append(r.log, fmt.Sprintf("progress %s %d/%d", label, done, total))
}
func (r *recorder) TaskPhase(ev obs.PhaseEvent) {
	r.phases = append(r.phases, ev)
	r.log = append(r.log, fmt.Sprintf("phase %+v", ev))
}

// coreConfig is the virtual-time scheduling configuration of the core
// tests: a 10 s task timeout, speculation at half of it, a 30 s worker
// timeout and two concurrent jobs.
func coreConfig(ob obs.Observer) config {
	cfg := defaultConfig()
	cfg.taskTimeout = 10 * time.Second
	cfg.maxActiveJobs = 2
	cfg.observer = ob
	return cfg
}

// lines returns an input of n 8-byte records, which SplitInput at block
// size 8 cuts into n map tasks.
func lines(n int) []byte {
	return bytes.Repeat([]byte("record.\n"), n)
}

// admitLines admits a wordcount job of maps map tasks and reds reducers.
func admitLines(t *testing.T, c *core, maps, reds int, now time.Time) *jobState {
	t.Helper()
	js, _, _ := c.admit(JobDescriptor{Workload: "wordcount", NumReducers: reds}, 8, mapreduce.SplitInput(lines(maps), 8), now)
	if js == nil || len(js.mapTasks) != maps {
		t.Fatalf("admission of a %d-map job failed: %+v", maps, js)
	}
	return js
}

// poll is one GetTask at now: the liveness touch, then a dispatch.
func poll(c *core, worker string, now time.Time) Task {
	c.touch(worker, worker+":addr", "", now)
	return c.nextTask(worker, now)
}

// TestCoreScheduleStartsWhenTaskBecameReady pins the requeue rule: an
// attempt's schedule interval runs from when its task last became
// dispatchable — a failure report or eviction at that moment, an expired
// lease at its expiry, a backup at the speculation age — never from the
// job's admission.
func TestCoreScheduleStartsWhenTaskBecameReady(t *testing.T) {
	const delta = 250 * time.Millisecond
	timeout := coreConfig(nil).taskTimeout
	for _, tc := range []struct {
		name    string
		requeue func(c *core, js *jobState) time.Time // returns when the task became ready again
	}{
		{"failure", func(c *core, js *jobState) time.Time {
			at := t0.Add(3 * time.Second)
			c.touch("w1", "", "", at)
			if wake, _ := c.reportFailure(&TaskFailed{WorkerID: "w1", Epoch: js.epoch, Kind: TaskMap}, at); !wake {
				t.Fatal("failure report did not requeue the task")
			}
			return at
		}},
		{"eviction", func(c *core, js *jobState) time.Time {
			at := t0.Add(3 * time.Second)
			if _, save := c.reportLostSegments(&SegmentsLost{WorkerID: "w2", Epoch: js.epoch, Owner: "w1"}, at); !save {
				t.Fatal("loss report did not evict the assignee")
			}
			return at
		}},
		{"lease", func(*core, *jobState) time.Time { return t0.Add(timeout) }},
		{"backup", func(*core, *jobState) time.Time { return t0.Add(timeout / 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			c := newCore(coreConfig(rec))
			js := admitLines(t, c, 1, 1, t0)
			if task := poll(c, "w1", t0); task.Kind != TaskMap {
				t.Fatalf("first poll got %q, want the map", task.Kind)
			}
			ready := tc.requeue(c, js)
			if task := poll(c, "w2", ready.Add(delta)); task.Kind != TaskMap {
				t.Fatalf("second poll got %q, want the map again", task.Kind)
			}
			if len(rec.phases) != 2 {
				t.Fatalf("%d schedule events, want 2", len(rec.phases))
			}
			if ev := rec.phases[1]; !ev.Start.Equal(ready) || ev.Duration != delta {
				t.Errorf("second attempt's schedule interval starts at +%v and lasts %v, want +%v and %v",
					ev.Start.Sub(t0), ev.Duration, ready.Sub(t0), delta)
			}
		})
	}
}

// TestCoreSpeculation pins the backup rules: none before the speculation
// age, one at it, never to the current assignee, and the first completion
// wins while the duplicate is ignored.
func TestCoreSpeculation(t *testing.T) {
	c := newCore(coreConfig(obs.Nop))
	specAge := time.Duration(float64(c.cfg.taskTimeout) * c.cfg.specFraction)
	js := admitLines(t, c, 1, 1, t0)
	if task := poll(c, "w1", t0); task.Kind != TaskMap {
		t.Fatalf("first poll got %q, want the map", task.Kind)
	}
	if task := poll(c, "w2", t0.Add(specAge-time.Nanosecond)); task.Kind != TaskWait {
		t.Errorf("poll just before the speculation age got %q, want no backup", task.Kind)
	}
	if task := poll(c, "w1", t0.Add(specAge)); task.Kind != TaskWait {
		t.Errorf("the assignee's own poll at the speculation age got %q, want no backup of its own task", task.Kind)
	}
	if task := poll(c, "w2", t0.Add(specAge)); task.Kind != TaskMap || task.Seq != 0 {
		t.Fatalf("poll at the speculation age got %+v, want a backup of map 0", task)
	}
	if js.speculative != 1 || c.stats.Speculative != 1 || c.stats.Reassigned != 0 {
		t.Errorf("speculative %d (job %d), reassigned %d; want 1, 1, 0", c.stats.Speculative, js.speculative, c.stats.Reassigned)
	}
	done := func(worker string) bool {
		_, save := c.completeMap(&MapDone{WorkerID: worker, Epoch: js.epoch, Addr: worker + ":addr",
			PartStats: []PartStat{{Part: 0, Recs: 1, Bytes: 8}}}, t0.Add(specAge))
		return save
	}
	if !done("w2") {
		t.Fatal("the backup's completion was refused")
	}
	if done("w1") {
		t.Error("the original's late completion was accepted as well")
	}
	if ts := js.mapTasks[0]; !ts.done || ts.owner != "w2" || js.mapsLeft != 0 || len(js.partSegs[0]) != 1 {
		t.Errorf("after both completions: done %v owner %q, %d maps left, %d segments; want true, w2, 0, 1",
			ts.done, ts.owner, js.mapsLeft, len(js.partSegs[0]))
	}
}

// TestCoreLeaseExpiryReissuesOnce pins the lease rule: an attempt out for
// the task timeout is reissued to the next poll, counted in Reassigned
// exactly once.
func TestCoreLeaseExpiryReissuesOnce(t *testing.T) {
	cfg := coreConfig(obs.Nop)
	cfg.specFraction = 1 // no backup before the lease runs out
	c := newCore(cfg)
	js := admitLines(t, c, 1, 1, t0)
	poll(c, "w1", t0)
	if task := poll(c, "w2", t0.Add(cfg.taskTimeout-time.Nanosecond)); task.Kind != TaskWait {
		t.Errorf("poll before the lease expired got %q, want TaskWait", task.Kind)
	}
	if task := poll(c, "w2", t0.Add(cfg.taskTimeout)); task.Kind != TaskMap {
		t.Fatalf("poll at the lease expiry got %q, want the map reissued", task.Kind)
	}
	if task := poll(c, "w3", t0.Add(cfg.taskTimeout)); task.Kind != TaskWait {
		t.Errorf("a third poll got %q, want TaskWait: the reissue holds a fresh lease", task.Kind)
	}
	if c.stats.Reassigned != 1 || js.reassigned != 1 || c.stats.Speculative != 0 {
		t.Errorf("reassigned %d (job %d), speculative %d; want 1, 1, 0", c.stats.Reassigned, js.reassigned, c.stats.Speculative)
	}
	if ts := js.mapTasks[0]; ts.assignee != "w2" || !ts.assignedAt.Equal(t0.Add(cfg.taskTimeout)) {
		t.Errorf("map held by %q since +%v, want w2 since +%v", ts.assignee, ts.assignedAt.Sub(t0), cfg.taskTimeout)
	}
}

// TestCoreSnapshotDeterministic: the same core state encodes to the same
// snapshot bytes every time — the worker table is written in ID order, not
// in Go's map order.
func TestCoreSnapshotDeterministic(t *testing.T) {
	c := newCore(coreConfig(obs.Nop))
	for _, w := range []string{"w5", "w2", "w7", "w0", "w3", "w6", "w1", "w4"} {
		poll(c, w, t0)
	}
	admitLines(t, c, 3, 2, t0)
	encode := func() []byte {
		var buf bytes.Buffer
		snap := c.snapshot()
		if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := encode()
	for i := 0; i < 8; i++ {
		if !bytes.Equal(encode(), first) {
			t.Fatal("encoding the same core state twice gave different snapshot bytes")
		}
	}
}

// TestReplayDeterministic: one seed replayed twice gives the identical
// event log — counters, progress, spans and schedule intervals, in order.
func TestReplayDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		var logs [2][]string
		for i := range logs {
			rec := &recorder{}
			newReplay(t, seed, rec).run()
			logs[i] = rec.log
		}
		if !slices.Equal(logs[0], logs[1]) {
			t.Fatalf("seed %d: two replays logged different events (%d and %d lines)", seed, len(logs[0]), len(logs[1]))
		}
	}
}

// TestReplay runs the replay harness over 10 000 seeds, split into
// parallel shards; a failure names its seed and step, and
// newReplay(t, seed, obs.Nop).run() replays that schedule alone. Under the
// race detector, which has nothing to find in the goroutine-free core, it
// runs 500.
func TestReplay(t *testing.T) {
	seeds := int64(10000)
	if raceBuild() {
		seeds = 500
	}
	const shards = 8
	for shard := int64(0); shard < shards; shard++ {
		t.Run(fmt.Sprintf("shard=%d", shard), func(t *testing.T) {
			t.Parallel()
			for seed := 1 + shard; seed <= seeds; seed += shards {
				newReplay(t, seed, obs.Nop).run()
			}
		})
	}
}

// raceBuild reports a binary built with -race.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	return ok && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// replay is one seeded schedule against a core, with the driver's part —
// data files, snapshot writes, restarts — played by the harness.
type replay struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	cfg    config
	c      *core
	now    time.Time
	step   int
	op     string // the step's action, for failure messages
	faults bool

	workers []string
	jobs    []*replayJob
	files   map[uint64]*replayFile
	saved   snapshot // the last snapshot the driver wrote
	savedAt int      // the step that wrote it
	enc     *gob.Encoder
	dec     *gob.Decoder // reads what enc writes: restarts pass through gob
	held    []*attempt
	tags    int // attempts handed out so far: each one's output differs

	pre  map[uint64][]snapTask // map done/owner columns before the step
	lost *SegmentsLost         // the step's loss report, if any
}

// replayJob is the harness's record of one submitted job.
type replayJob struct {
	epoch     uint64
	reds      int
	js        *jobState      // the job in the current core (or where it retired)
	accepted  map[int][]byte // partition → the output the core accepted
	cancelled bool
	checked   bool
}

// replayFile is a job's data file: the input, then each persisted output.
type replayFile struct {
	buf      []byte
	inputLen int64
	ext      []extent
}

// attempt is a task a worker is running.
type attempt struct {
	worker string
	task   Task
	cursor int
	tag    int
}

// replaySteps is the length of the faulty phase of every schedule.
const replaySteps = 60

func newReplay(t *testing.T, seed int64, ob obs.Observer) *replay {
	cfg := coreConfig(ob)
	cfg.taskTimeout = 400 * time.Millisecond
	cfg.workerTimeout = time.Second
	r := &replay{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), cfg: cfg, c: newCore(cfg), now: t0,
		faults: true, workers: []string{"w0", "w1", "w2"}, files: make(map[uint64]*replayFile),
	}
	r.saved, r.savedAt = r.c.snapshot(), -1
	return r
}

func (r *replay) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("replay seed %d step %d (%s): %s", r.seed, r.step, r.op, fmt.Sprintf(format, args...))
}

// run plays the faulty phase, then drains: with faults stopped and every
// worker polling and completing, every job must finish within a bounded
// number of rounds.
func (r *replay) run() {
	for r.step = 0; r.step < replaySteps; r.step++ {
		r.begin()
		r.randomStep()
		r.check()
	}
	r.faults = false
	for round := 0; round < 60; round, r.step = round+1, r.step+1 {
		if r.allFinished() {
			return
		}
		r.begin()
		r.op = "drain"
		r.now = r.now.Add(25 * time.Millisecond)
		for _, w := range r.workers {
			r.poll(w, true)
		}
		for _, a := range slices.Clone(r.held) {
			r.complete(a)
		}
		r.commit(r.c.tick(r.now))
		r.check()
	}
	if !r.allFinished() {
		r.fatalf("jobs unfinished 60 rounds after faults stopped: %+v", r.c.statuses())
	}
}

func (r *replay) allFinished() bool {
	for _, rj := range r.jobs {
		if !rj.js.finished() {
			return false
		}
	}
	return true
}

// randomStep advances virtual time — now and then past the speculation
// age, the task timeout or the worker timeout — and takes one action.
func (r *replay) randomStep() {
	switch n := r.rng.Intn(20); {
	case n < 14:
		r.now = r.now.Add(time.Duration(r.rng.Intn(40)) * time.Millisecond)
	case n < 19:
		r.now = r.now.Add(r.cfg.taskTimeout/2 + time.Duration(r.rng.Int63n(int64(r.cfg.taskTimeout))))
	default:
		r.now = r.now.Add(r.cfg.workerTimeout + time.Duration(r.rng.Intn(100))*time.Millisecond)
	}
	w := r.workers[r.rng.Intn(len(r.workers))]
	switch n := r.rng.Intn(32); {
	case n < 3:
		r.op = "submit"
		r.submit()
	case n < 12:
		r.op = "poll " + w
		r.poll(w, true)
	case n < 13:
		r.op = "held retry " + w
		r.poll(w, false)
	case n < 22:
		r.op = "complete"
		if a := r.pick(); a != nil {
			r.complete(a)
		}
	case n < 24:
		r.op = "fail"
		if a := r.pick(); a != nil {
			r.drop(a)
			r.c.touch(a.worker, "", "", r.now)
			r.commit(r.c.reportFailure(&TaskFailed{WorkerID: a.worker, Epoch: a.task.Epoch, Kind: a.task.Kind, Seq: a.task.Seq}, r.now))
		}
	case n < 26:
		r.op = "lose segments"
		r.loseSegments()
	case n < 27:
		r.op = "drop"
		if a := r.pick(); a != nil {
			r.drop(a) // the worker lost the attempt silently: only its lease can recover it
		}
	case n < 29:
		r.op = "tick"
		r.commit(r.c.tick(r.now))
	case n < 30:
		r.op = "cancel"
		if len(r.c.order) > 0 && r.rng.Intn(3) == 0 {
			js := r.c.order[r.rng.Intn(len(r.c.order))]
			r.commit(r.c.abort(js, ErrJobCancelled, r.now))
			r.jobByEpoch(js.epoch).cancelled = true
		}
	default:
		r.op = "restart"
		r.restart()
	}
}

func (r *replay) pick() *attempt {
	if len(r.held) == 0 {
		return nil
	}
	return r.held[r.rng.Intn(len(r.held))]
}

func (r *replay) drop(a *attempt) {
	r.held = slices.DeleteFunc(r.held, func(b *attempt) bool { return b == a })
}

func (r *replay) jobByEpoch(epoch uint64) *replayJob {
	for _, rj := range r.jobs {
		if rj.epoch == epoch {
			return rj
		}
	}
	r.fatalf("no job with epoch %d", epoch)
	return nil
}

// submit admits a job of 1–4 maps and 1–3 reducers and writes its data
// file.
func (r *replay) submit() {
	maps, reds := 1+r.rng.Intn(4), 1+r.rng.Intn(3)
	input := lines(maps)
	js, wake, save := r.c.admit(JobDescriptor{Workload: "wordcount", NumReducers: reds}, 8, mapreduce.SplitInput(input, 8), r.now)
	if js == nil {
		r.fatalf("admission refused with %d jobs held", len(r.c.jobs))
	}
	r.files[js.epoch] = &replayFile{buf: input, inputLen: int64(len(input)), ext: make([]extent, reds)}
	r.jobs = append(r.jobs, &replayJob{epoch: js.epoch, reds: reds, js: js, accepted: make(map[int][]byte)})
	r.commit(wake, save)
}

// poll is a GetTask try: with touch, a fresh call; without, the retry of a
// held call after a wake, by a worker that may have been evicted meanwhile.
func (r *replay) poll(w string, touch bool) {
	if touch {
		r.c.touch(w, w+":addr", map[string]string{"w0": "big", "w1": "little"}[w], r.now)
	}
	evicted := r.c.workers[w] == nil || r.c.workers[w].Evicted
	task := r.c.nextTask(w, r.now)
	if task.Kind == TaskWait {
		if !evicted {
			r.checkNothingPending()
		}
		return
	}
	if evicted {
		r.fatalf("%s task %d handed to evicted worker %s", task.Kind, task.Seq, w)
	}
	js := r.c.byEpoch[task.Epoch]
	if js == nil || js.state != JobRunning {
		r.fatalf("%s task %d of epoch %d dispatched from a job that is not running", task.Kind, task.Seq, task.Epoch)
	}
	r.tags++
	r.held = append(r.held, &attempt{worker: w, task: task, tag: r.tags})
}

// checkNothingPending: a live worker's poll answered TaskWait, so no
// running job has an undone, unassigned map, or an undone, unassigned
// reduce while its reduces are eligible.
func (r *replay) checkNothingPending() {
	for _, js := range r.c.order {
		if js.state != JobRunning {
			continue
		}
		for _, ts := range js.mapTasks {
			if !ts.done && !ts.assigned {
				r.fatalf("TaskWait while map %d of %s is pending", ts.task.Seq, js.id)
			}
		}
		for _, ts := range js.redTasks {
			if js.reduceEligible() && !ts.done && !ts.assigned {
				r.fatalf("TaskWait while reduce %d of %s is pending", ts.task.Seq, js.id)
			}
		}
	}
}

// complete runs an attempt's completion: a map reports at once; a reduce
// fetches first and completes once the fetch says the shuffle is complete,
// sending output that names the attempt.
func (r *replay) complete(a *attempt) {
	epoch, seq := a.task.Epoch, a.task.Seq
	js := r.c.byEpoch[epoch]
	r.c.touch(a.worker, "", "", r.now)
	if a.task.Kind == TaskMap {
		r.drop(a)
		wasDone := js != nil && js.mapTasks[seq].done
		res := MapDone{WorkerID: a.worker, Epoch: epoch, Seq: seq, Addr: a.worker + ":addr"}
		for p := 0; p < a.task.Job.NumReducers; p++ {
			res.PartStats = append(res.PartStats, PartStat{Part: p, Recs: r.rng.Intn(2), Bytes: 8})
		}
		wake, save := r.c.completeMap(&res, r.now)
		if save && wasDone {
			r.fatalf("map %d of epoch %d marked done again without an invalidation", seq, epoch)
		}
		r.commit(wake, save)
		return
	}
	var reply FetchSegmentsReply
	r.c.fetchSegments(&FetchSegmentsArgs{WorkerID: a.worker, Epoch: epoch, Partition: seq, Cursor: a.cursor}, &reply, r.now)
	if reply.Stale {
		r.drop(a)
		return
	}
	a.cursor = reply.Cursor
	if !reply.Complete {
		return
	}
	r.drop(a)
	out := mapreduce.EncodeSegment(mapreduce.SegmentFromKVs([]mapreduce.KV{
		{Key: fmt.Sprintf("e%d/p%d", epoch, seq), Value: fmt.Sprintf("attempt %d", a.tag)},
	}))
	wake, save := r.c.completeReduce(&ReduceDone{WorkerID: a.worker, Epoch: epoch, Seq: seq, Addr: a.worker + ":addr"}, out, r.now)
	if save {
		rj := r.jobByEpoch(epoch)
		if _, ok := rj.accepted[seq]; ok {
			r.fatalf("reduce %d of epoch %d accepted twice", seq, epoch)
		}
		rj.accepted[seq] = out
		if f := r.files[epoch]; r.c.byEpoch[epoch] != nil {
			f.ext[seq] = extent{Off: int64(len(f.buf)), Len: int64(len(out))}
			f.buf = append(f.buf, out...)
		}
	}
	r.commit(wake, save)
}

// loseSegments reports one published segment of a reducer's partition as
// lost, naming the owner the log entry carries — stale when the map has
// re-executed since.
func (r *replay) loseSegments() {
	var reducers []*attempt
	for _, a := range r.held {
		if a.task.Kind == TaskReduce {
			reducers = append(reducers, a)
		}
	}
	if len(reducers) == 0 {
		return
	}
	a := reducers[r.rng.Intn(len(reducers))]
	js := r.c.byEpoch[a.task.Epoch]
	if js == nil || len(js.partSegs[a.task.Seq]) == 0 {
		return
	}
	segs := js.partSegs[a.task.Seq]
	s := segs[r.rng.Intn(len(segs))]
	r.lost = &SegmentsLost{WorkerID: a.worker, Epoch: a.task.Epoch, Partition: a.task.Seq, MapSeqs: []int{s.MapSeq}, Owner: s.Owner}
	r.c.touch(a.worker, "", "", r.now)
	r.commit(r.c.reportLostSegments(r.lost, r.now))
}

// commit plays the driver's commit step: a snapshot write when the
// transition asks for one.
func (r *replay) commit(_, save bool) {
	if save {
		r.saved, r.savedAt = r.snapshot(), r.step
	}
}

// snapshot is the driver's snapshot value: the core's, completed with the
// data files' extents.
func (r *replay) snapshot() snapshot {
	snap := r.c.snapshot()
	for i := range snap.Jobs {
		sj := &snap.Jobs[i]
		f := r.files[sj.Epoch]
		sj.DataFile, sj.InputLen, sj.Outputs = fmt.Sprintf("job-%d.data", sj.Epoch), f.inputLen, slices.Clone(f.ext)
	}
	return snap
}

// restoreFrom builds a fresh core from a snapshot value and the data files.
func (r *replay) restoreFrom(snap *snapshot, cfg config) *core {
	data := make([][]byte, len(snap.Jobs))
	for i, sj := range snap.Jobs {
		data[i] = r.files[sj.Epoch].buf
	}
	c := newCore(cfg)
	if err := c.restore(snap, data, r.now); err != nil {
		r.fatalf("restore: %v", err)
	}
	return c
}

// restart replaces the core with one restored from the last snapshot
// written, through its gob encoding; the workers and their attempts
// survive.
func (r *replay) restart() {
	if r.enc == nil {
		buf := new(bytes.Buffer)
		r.enc, r.dec = gob.NewEncoder(buf), gob.NewDecoder(buf)
	}
	var snap snapshot
	if err := r.enc.Encode(&r.saved); err != nil {
		r.fatalf("encode: %v", err)
	}
	if err := r.dec.Decode(&snap); err != nil {
		r.fatalf("decode: %v", err)
	}
	r.c = r.restoreFrom(&snap, r.cfg)
	for _, rj := range r.jobs {
		if js := r.c.byEpoch[rj.epoch]; js != nil {
			rj.js = js
		} else if !rj.js.finished() {
			r.fatalf("job %s lost in the restart", rj.js.id)
		}
	}
}

// begin records the map columns the step starts from.
func (r *replay) begin() {
	r.lost = nil
	r.pre = make(map[uint64][]snapTask, len(r.c.order))
	for _, js := range r.c.order {
		col := make([]snapTask, len(js.mapTasks))
		for i, ts := range js.mapTasks {
			col[i] = snapTask{Done: ts.done, Owner: ts.owner}
		}
		r.pre[js.epoch] = col
	}
}

// check runs the invariants after a step.
func (r *replay) check() {
	r.checkTables()
	r.checkInvalidations()
	r.checkFinished()
	r.checkRestore()
}

// checkTables: every active job's counts agree with its task table.
func (r *replay) checkTables() {
	for _, js := range r.c.order {
		maps, reds := 0, 0
		for _, ts := range js.mapTasks {
			if !ts.done {
				maps++
			}
		}
		for _, ts := range js.redTasks {
			if !ts.done {
				reds++
			}
		}
		if maps != js.mapsLeft || reds != js.redsLeft {
			r.fatalf("%s counts %d maps and %d reduces left, its table %d and %d", js.id, js.mapsLeft, js.redsLeft, maps, reds)
		}
	}
}

// checkInvalidations: a done map is undone only when its owner has been
// evicted, or when the step reported that owner's segment of it lost.
func (r *replay) checkInvalidations() {
	for _, js := range r.c.order {
		for seq, was := range r.pre[js.epoch] {
			if !was.Done || js.mapTasks[seq].done {
				continue
			}
			if w := r.c.workers[was.Owner]; w != nil && w.Evicted {
				continue
			}
			if l := r.lost; l != nil && l.Epoch == js.epoch && l.Owner == was.Owner && slices.Contains(l.MapSeqs, seq) {
				continue
			}
			r.fatalf("map %d of %s undone while its owner %s still serves it", seq, js.id, was.Owner)
		}
	}
}

// checkFinished: a job finishes exactly when its last reduce output is
// accepted, and its result holds the bytes each accepted reducer sent.
func (r *replay) checkFinished() {
	for _, rj := range r.jobs {
		if rj.cancelled || rj.checked {
			continue
		}
		all := len(rj.accepted) == rj.reds
		if rj.js.finished() != all {
			r.fatalf("%s is %s with %d of %d reduce outputs accepted", rj.js.id, rj.js.state, len(rj.accepted), rj.reds)
		}
		if !all {
			continue
		}
		if rj.js.state != JobDone {
			r.fatalf("%s finished %s: %v", rj.js.id, rj.js.state, rj.js.err)
		}
		for p := 0; p < rj.reds; p++ {
			if got := mapreduce.EncodeSegment(rj.js.result.Partition(p)); !bytes.Equal(got, rj.accepted[p]) {
				r.fatalf("%s partition %d holds %q, the accepted reducer sent %q", rj.js.id, p, got, rj.accepted[p])
			}
		}
		rj.checked = true
	}
}

// checkRestore: restoring the current state gives the same Jobs() and the
// same done and owner columns.
func (r *replay) checkRestore() {
	snap := r.saved // a write is the last action of a faulty step: it holds the current state
	if r.savedAt != r.step || !r.faults {
		snap = r.snapshot()
	}
	cfg := r.cfg
	cfg.observer = obs.Nop
	c := r.restoreFrom(&snap, cfg)
	if got, want := c.statuses(), r.c.statuses(); !slices.Equal(got, want) {
		r.fatalf("restored Jobs() differ:\n got %+v\nwant %+v", got, want)
	}
	for i, js := range r.c.order {
		rs := c.order[i]
		for seq, ts := range js.mapTasks {
			if got := rs.mapTasks[seq]; got.done != ts.done || got.owner != ts.owner {
				r.fatalf("%s map %d restored as done %v owner %q, was %v %q", js.id, seq, got.done, got.owner, ts.done, ts.owner)
			}
		}
		for seq, ts := range js.redTasks {
			if rs.redTasks[seq].done != ts.done {
				r.fatalf("%s reduce %d restored as done %v, was %v", js.id, seq, rs.redTasks[seq].done, ts.done)
			}
		}
	}
}

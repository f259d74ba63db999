package dist

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"heterohadoop/internal/mapreduce"
)

// Master is the job coordinator. It is multi-tenant: Submit returns a
// JobHandle immediately, admitted jobs run concurrently under a
// fair/capacity scheduler, and workers connect over TCP and poll for
// tasks from any running job. Master drives the core (core.go), which
// holds every scheduling rule.
type Master struct {
	mu sync.Mutex

	core     *core
	registry *Registry
	listener net.Listener
	server   *rpc.Server
	// peers pulls finished reduce outputs from the workers' byte endpoints.
	peers    *frameClient
	snapPath string
	closed   bool
	files    map[uint64]*dataFile // active jobs' data files, by epoch

	// changed is the generation channel held calls wait on (holdLocked);
	// wakeLocked closes and replaces it.
	changed chan struct{}

	janitorStop chan struct{}

	// The snapshot writer (persist): commits counts the commits that asked
	// for a write, saved is the last one a finished or failed write covered;
	// commitCond wakes the writer, savedCond the Submits waiting on it.
	commits, saved        uint64
	commitCond, savedCond *sync.Cond
	persisting            sync.WaitGroup
	journal               journalFile
	writeFile             func(b []byte, checkpoint bool) error // journal.write; tests replace it
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
		core:        newCore(cfg),
		registry:    NewRegistry(),
		listener:    ln,
		server:      rpc.NewServer(),
		peers:       newFrameClient(),
		snapPath:    cfg.snapshotPath,
		files:       make(map[uint64]*dataFile),
		changed:     make(chan struct{}),
		janitorStop: make(chan struct{}),
		journal:     journalFile{path: cfg.snapshotPath},
	}
	m.writeFile = m.journal.write
	m.commitCond = sync.NewCond(&m.mu)
	m.savedCond = sync.NewCond(&m.mu)
	if m.snapPath != "" {
		m.mu.Lock()
		err := m.restoreLocked()
		m.mu.Unlock()
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
	// The writer starts after the last step that can fail, so a failed
	// StartMaster leaves none behind; it writes nothing until a commit.
	if m.snapPath != "" {
		m.persisting.Add(1)
		go m.persist()
	}
	go m.acceptLoop()
	go m.janitor()
	return m, nil
}

// Addr returns the master's listen address for workers to dial.
func (m *Master) Addr() string { return m.listener.Addr().String() }

// Close stops accepting connections and the liveness janitor and releases
// every held call; subsequent submissions fail with ErrMasterClosed.
// In-flight jobs are left as they stand — with WithSnapshotPath a new
// StartMaster at the same path resumes them, their data files included.
// Close returns once a snapshot covering the last commit is on disk, the
// retired jobs' data files are gone and the snapshot writer has stopped; a
// closed master persists nothing more.
func (m *Master) Close() error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.janitorStop)
		m.wakeLocked()
		m.commitCond.Signal()
	}
	m.mu.Unlock()
	m.persisting.Wait()
	m.mu.Lock()
	for _, d := range m.files {
		d.f.Close()
	}
	clear(m.files)
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

// janitor drives the core's liveness sweep: workers silent past the timeout
// window are evicted — their in-flight tasks requeued and their served map
// output re-executed.
func (m *Master) janitor() {
	period := min(max(m.core.cfg.workerTimeout/4, 5*time.Millisecond), time.Second)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case now := <-ticker.C:
			m.mu.Lock()
			m.commitLocked(m.core.tick(now))
			m.mu.Unlock()
		}
	}
}

// commitLocked wakes held calls and, with snapshots on, hands a transition
// that must survive a restart to the snapshot writer: it counts the commit
// and signals, never waiting for the write. A closed master commits
// nothing more to disk.
func (m *Master) commitLocked(wake, save bool) {
	if wake {
		m.wakeLocked()
	}
	if save && m.snapPath != "" && !m.closed {
		m.commits++
		m.commitCond.Signal()
	}
}

// waitSavedLocked waits, under m.mu, until a write covering commit seq has
// finished or failed.
func (m *Master) waitSavedLocked(seq uint64) {
	for m.saved < seq {
		m.savedCond.Wait()
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
	st := m.core.stats
	st.Workers = len(m.core.workers)
	return st
}

// Submit admits one job and returns immediately with its handle: the input
// is cut into the engine's blockSize-byte splits (one map task each), the
// job queues behind the concurrent-job cap, and connected
// workers pick its tasks up alongside every other running job's. Wait on
// the handle for the result; ctx only bounds the admission itself (a
// cancelled ctx before admission fails the call — it is not attached to
// the job). An empty input fails with ErrEmptyInput before any side data
// is computed; side data that cannot be computed, or a job that does not
// build, is an ErrInvalidJob. With snapshots on, a job whose input cannot be
// written to its data file is refused: the master could not resume it. An
// admitted job is acknowledged only once the snapshot write covering its
// admission record has finished (a failed one is counted in
// dist.snapshot.errors, and the job still runs).
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
	if len(input) == 0 {
		return nil, ErrEmptyInput
	}
	// Compute the side data, and check the descriptor builds locally
	// before distributing it.
	err := PrepareAux(&desc, input)
	var job mapreduce.Job
	if err == nil {
		job, err = m.registry.Build(desc)
	}
	if err == nil {
		err = job.Validate() // the config carries client-supplied numbers
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidJob, err)
	}
	var data *os.File
	name := ""
	if m.snapPath != "" {
		if data, err = createDataFile(m.snapPath, input); err != nil {
			return nil, fmt.Errorf("dist: submit: persist input: %w", err)
		}
		name = filepath.Base(data.Name())
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		removeDataFile(data)
		return nil, ErrMasterClosed
	}
	js, wake, save := m.core.admit(desc, blockSize, input, name, time.Now())
	if js == nil {
		removeDataFile(data)
		return nil, ErrQueueFull
	}
	if data != nil {
		m.files[js.epoch] = &dataFile{f: data, end: int64(len(input))}
	}
	m.commitLocked(wake, save)
	m.waitSavedLocked(m.commits)
	return &JobHandle{m: m, js: js}, nil
}

// Handle returns the handle for a job by ID — the way a client reattaches
// to a job after a master restart (the IDs are stable across snapshot
// recovery). Terminal jobs stay reachable on a bounded ring.
func (m *Master) Handle(id string) (*JobHandle, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if js := m.core.lookup(id); js != nil {
		return &JobHandle{m: m, js: js}, true
	}
	return nil, false
}

// wakeLocked wakes every held call to retry; called under m.mu by
// commitLocked when a transition can have created work or published a
// segment, and by Close.
func (m *Master) wakeLocked() {
	close(m.changed)
	m.changed = make(chan struct{})
}

// holdLocked runs try under m.mu until it reports done, waiting unlocked
// for the next wake between tries, for at most wait (capped at half the
// worker timeout, so a held worker is never evicted), each try at a fresh
// clock read. The channel is read in the lock hold that ran try, so no wake
// is lost; the try at the deadline sees time-driven transitions (reissue,
// speculation). A closed master holds nothing: Close wakes every hold, and
// the woken call answers after one more try.
func (m *Master) holdLocked(now time.Time, wait time.Duration, try func(now time.Time) bool) {
	until := now.Add(min(wait, m.core.cfg.workerTimeout/2))
	for !try(now) && now.Before(until) && !m.closed {
		changed, timer := m.changed, time.NewTimer(until.Sub(now))
		m.mu.Unlock()
		select {
		case <-changed:
		case <-timer.C:
		}
		timer.Stop()
		m.mu.Lock()
		now = time.Now()
	}
}

// masterRPC is the RPC facade; it keeps the exported method set separate
// from the Master's own API.
type masterRPC struct {
	m *Master
}

// Heartbeat is a worker's one control call. Its reports are applied and
// committed — waking held calls, signalling the snapshot writer, never
// waiting for it — before a poll is answered, so a completion riding a
// polling beat can already unlock the task that beat receives. A poll is
// held while there is no task, and its reply carries the active epochs;
// dist.rpc.get_task ticks once per polling beat, a strictly monotone series
// the live /metrics smoke test leans on. A beat that reports a completion
// naming no endpoint, or a reduce output that cannot be pulled, is refused
// whole: its tasks stay assigned and the timeout path reissues them.
func (r *masterRPC) Heartbeat(hb Heartbeat, reply *Task) error {
	m := r.m
	if hb.Addr == "" && slices.ContainsFunc(hb.Reports, func(rep TaskReport) bool { return rep.Failure == "" }) {
		return fmt.Errorf("dist: heartbeat from %s reports a completion but names no endpoint", hb.WorkerID)
	}
	outputs, err := m.pullOutputs(&hb)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	m.core.touch(hb.WorkerID, hb.Addr, hb.Class, now)
	m.commitLocked(m.applyLocked(&hb, outputs, now))
	if !hb.Poll {
		return nil
	}
	m.core.ob.Count("dist.rpc.get_task", 1)
	m.holdLocked(now, hb.Wait, func(now time.Time) bool {
		*reply = m.core.nextTask(hb.WorkerID, now)
		return reply.Kind != TaskWait
	})
	reply.ActiveEpochs = m.core.activeEpochs()
	return nil
}

// pulled is a reduce output the master pulled, and where writeOutput put
// it in the job's data file.
type pulled struct {
	out []byte
	ext extent
}

// pullOutputs pulls, by report index and before the beat takes m.mu, the
// output of each reduce completion the core would accept, and writes it to
// the job's data file, so neither a transfer, a disk write nor a
// duplicate's bytes hold up the control plane.
func (m *Master) pullOutputs(hb *Heartbeat) (map[int]pulled, error) {
	outputs := make(map[int]pulled)
	for i, rep := range hb.Reports {
		if rep.Kind != TaskReduce || rep.Failure != "" {
			continue
		}
		m.mu.Lock()
		accepts := m.core.acceptsReduce(rep.Epoch, rep.Seq)
		m.mu.Unlock()
		if !accepts {
			continue
		}
		_, out, _, err := m.peers.pull(hb.Addr, rep.Epoch, reduceKey(rep.Seq), 0, 0)
		if err != nil {
			return nil, fmt.Errorf("dist: reduce %d output from %s (epoch %d): %w", rep.Seq, hb.Addr, rep.Epoch, err)
		}
		outputs[i] = pulled{out, m.writeOutput(rep.Epoch, rep.Seq, out)}
	}
	return outputs, nil
}

// applyLocked applies a beat's reports, then its loss reports, through the
// core's transitions. A reduce completion counts only with a pulled output.
func (m *Master) applyLocked(hb *Heartbeat, outputs map[int]pulled, now time.Time) (wake, save bool) {
	for i := range hb.Reports {
		rep := &hb.Reports[i]
		var w, s bool
		switch p, ok := outputs[i]; {
		case rep.Failure != "":
			w, s = m.core.reportFailure(hb.WorkerID, rep, now)
		case rep.Kind == TaskMap:
			w, s = m.core.completeMap(hb.WorkerID, hb.Addr, rep, now)
		case ok:
			w, s = m.core.completeReduce(rep, p.out, p.ext, now)
		}
		wake, save = wake || w, save || s
	}
	for i := range hb.Lost {
		w, s := m.core.reportLostSegments(&hb.Lost[i], now)
		wake, save = wake || w, save || s
	}
	return wake, save
}

// FetchSegments streams one partition's shuffle segments to the fetching
// reducer from its cursor forward, held while there is nothing new. Workers
// call it in a loop until the reply is Complete (map wave drained, every
// segment delivered) or Stale (the job is gone; abandon the task).
func (r *masterRPC) FetchSegments(args FetchSegmentsArgs, reply *FetchSegmentsReply) error {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	m.core.touch(args.WorkerID, "", "", now)
	m.holdLocked(now, args.Wait, func(now time.Time) bool {
		*reply = FetchSegmentsReply{}
		m.core.fetchSegments(&args, reply, now)
		return len(reply.Segments) > 0 || reply.Complete || reply.Stale
	})
	return nil
}

// Submit accepts a remote job submission over RPC and blocks until the job
// completes, returning the full result to the client; like Master.Submit,
// it admits the job only once the snapshot write covering it is done.
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

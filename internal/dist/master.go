package dist

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"os"
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
		for _, d := range m.files {
			d.f.Close()
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

// commitLocked wakes held calls and writes the snapshot as a transition
// reports, then releases the data file of each job it retired: deleted once
// a snapshot without the job is on disk, only closed otherwise.
func (m *Master) commitLocked(wake, save bool) {
	if wake {
		m.wakeLocked()
	}
	if !save {
		return
	}
	saved := m.saveSnapshotLocked()
	for epoch, d := range m.files {
		if m.core.byEpoch[epoch] != nil {
			continue
		}
		if saved {
			removeDataFile(d.f)
		} else {
			d.f.Close()
		}
		delete(m.files, epoch)
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
	js, wake, save := m.core.admit(desc, blockSize, chunks, time.Now())
	if js == nil {
		removeDataFile(data)
		return nil, ErrQueueFull
	}
	if data != nil {
		n := int64(len(input))
		m.files[js.epoch] = &dataFile{f: data, inputLen: n, end: n, ext: make([]extent, desc.NumReducers)}
	}
	m.commitLocked(wake, save)
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
// segment.
func (m *Master) wakeLocked() {
	close(m.changed)
	m.changed = make(chan struct{})
}

// holdLocked runs try under m.mu until it reports done, waiting unlocked
// for the next wake between tries, for at most wait (capped at half the
// worker timeout, so a held worker is never evicted), each try at a fresh
// clock read. The channel is read in the lock hold that ran try, so no wake
// is lost; the try at the deadline sees time-driven transitions (reissue,
// speculation).
func (m *Master) holdLocked(now time.Time, wait time.Duration, try func(now time.Time) bool) {
	until := now.Add(min(wait, m.core.cfg.workerTimeout/2))
	for !try(now) && now.Before(until) {
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

// call runs one worker call under m.mu at one clock read: a liveness touch,
// then op, whose report is committed.
func (m *Master) call(worker, addr, class string, op func(now time.Time) (wake, save bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	m.core.touch(worker, addr, class, now)
	m.commitLocked(op(now))
}

// masterRPC is the RPC facade; it keeps the exported method set separate
// from the Master's own API.
type masterRPC struct {
	m *Master
}

// GetTask hands the polling worker its next task, held while there is none;
// every reply carries the active epochs. dist.rpc.get_task ticks once per
// call — a strictly monotone series the live /metrics smoke test leans on.
func (r *masterRPC) GetTask(args GetTaskArgs, reply *Task) error {
	m := r.m
	m.call(args.WorkerID, args.Addr, args.Class, func(now time.Time) (bool, bool) {
		m.core.ob.Count("dist.rpc.get_task", 1)
		m.holdLocked(now, args.Wait, func(now time.Time) bool {
			*reply = m.core.nextTask(args.WorkerID, now)
			return reply.Kind != TaskWait
		})
		reply.ActiveEpochs = m.core.activeEpochs()
		return false, false
	})
	return nil
}

// CompleteMap records a finished map task. A completion that names no
// shuffle address has no fetchable output and is refused; the task stays
// assigned and the timeout path reissues it.
func (r *masterRPC) CompleteMap(res MapDone, _ *Ack) error {
	if res.Addr == "" {
		return fmt.Errorf("dist: map completion from %s (epoch %d seq %d) names no shuffle address", res.WorkerID, res.Epoch, res.Seq)
	}
	r.m.call(res.WorkerID, res.Addr, "", func(now time.Time) (bool, bool) {
		return r.m.core.completeMap(&res, now)
	})
	return nil
}

// FetchSegments streams one partition's shuffle segments to the fetching
// reducer from its cursor forward, held while there is nothing new. Workers
// call it in a loop until the reply is Complete (map wave drained, every
// segment delivered) or Stale (the job is gone; abandon the task).
func (r *masterRPC) FetchSegments(args FetchSegmentsArgs, reply *FetchSegmentsReply) error {
	m := r.m
	m.call(args.WorkerID, "", "", func(now time.Time) (bool, bool) {
		m.holdLocked(now, args.Wait, func(now time.Time) bool {
			*reply = FetchSegmentsReply{}
			m.core.fetchSegments(&args, reply, now)
			return len(reply.Segments) > 0 || reply.Complete || reply.Stale
		})
		return false, false
	})
	return nil
}

// CompleteReduce records a finished reduce task. The output is pulled from
// the reducer's byte endpoint before m.mu is taken, so the transfer never
// holds up the control plane; the call stays the commit point, since the
// worker holds the output until it returns. A completion naming no
// endpoint, or whose output cannot be pulled, is refused; the task stays
// assigned and the timeout path reissues it. The last output is never
// persisted: the job retires right here.
func (r *masterRPC) CompleteReduce(res ReduceDone, _ *Ack) error {
	if res.Addr == "" {
		return fmt.Errorf("dist: reduce completion from %s (epoch %d seq %d) names no endpoint", res.WorkerID, res.Epoch, res.Seq)
	}
	m := r.m
	_, output, _, err := m.peers.pull(res.Addr, res.Epoch, reduceKey(res.Seq), 0, 0)
	if err != nil {
		return fmt.Errorf("dist: reduce %d output from %s (epoch %d): %w", res.Seq, res.Addr, res.Epoch, err)
	}
	m.call(res.WorkerID, "", "", func(now time.Time) (bool, bool) {
		wake, save := m.core.completeReduce(&res, output, now)
		if save && m.core.byEpoch[res.Epoch] != nil {
			m.persistOutputLocked(res.Epoch, res.Seq, output)
		}
		return wake, save
	})
	return nil
}

// ReportFailure requeues a task whose worker hit an execution error: the
// assignment is cleared so the next poll can hand it out again. Stale
// reports (the job is gone) are ignored.
func (r *masterRPC) ReportFailure(f TaskFailed, _ *Ack) error {
	r.m.call(f.WorkerID, "", "", func(now time.Time) (bool, bool) {
		return r.m.core.reportFailure(&f, now)
	})
	return nil
}

// ReportLostSegments records shuffle segments a reducer could not fetch:
// the affected maps re-execute and the unreachable owner is evicted.
func (r *masterRPC) ReportLostSegments(args SegmentsLost, _ *Ack) error {
	r.m.call(args.WorkerID, "", "", func(now time.Time) (bool, bool) {
		return r.m.core.reportLostSegments(&args, now)
	})
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

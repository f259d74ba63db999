package dist

// options.go holds the functional options shared by StartMaster and
// ConnectWorker, plus the package's sentinel errors.

import (
	"errors"
	"time"

	"heterohadoop/internal/obs"
)

// Sentinel errors: callers branch with errors.Is instead of matching
// message strings.
var (
	// ErrMasterClosed marks a submission against a master whose listener
	// has been closed.
	ErrMasterClosed = errors.New("dist: master closed")
	// ErrEmptyInput marks a submission with no input bytes.
	ErrEmptyInput = errors.New("dist: empty input")
	// ErrInvalidJob marks a job descriptor that fails validation.
	ErrInvalidJob = errors.New("dist: invalid job")
	// ErrQueueFull marks a submission rejected by admission control: the
	// master already holds maxQueuedJobs jobs, running plus queued.
	ErrQueueFull = errors.New("dist: job queue full")
	// ErrJobCancelled marks a job aborted through JobHandle.Cancel.
	ErrJobCancelled = errors.New("dist: job cancelled")
)

// maxQueuedJobs caps the total jobs the master holds (running plus queued);
// Submit beyond it fails with ErrQueueFull.
const maxQueuedJobs = 64

// reduceSlowstart is the fraction of a job's map tasks that must have
// completed before its reduce tasks become eligible for dispatch while the
// map wave is still running — Hadoop's mapreduce.job.reduce.slowstart.
// completedmaps, at its usual cluster setting.
const reduceSlowstart = 0.5

// config carries the tunables behind the functional options. Master and
// worker read the fields they care about and ignore the rest, so the
// option names are shared (WithObserver works on both).
type config struct {
	taskTimeout   time.Duration
	specFraction  float64
	pollInterval  time.Duration
	observer      obs.Observer
	maxActiveJobs int
	workerTimeout time.Duration
	snapshotPath  string
	spillDir      string
	coreClass     string
}

func defaultConfig() config {
	return config{
		taskTimeout:   5 * time.Second,
		specFraction:  0.5,
		pollInterval:  10 * time.Millisecond,
		observer:      obs.Nop,
		maxActiveJobs: 4,
		workerTimeout: 30 * time.Second,
	}
}

// Option configures a Master (StartMaster) or Worker (ConnectWorker).
// Options irrelevant to the component they are passed to are ignored.
type Option func(*config)

// WithTaskTimeout bounds how long a task may stay assigned without
// completion before the master reissues it. Non-positive values keep the
// default (5s).
func WithTaskTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.taskTimeout = d
		}
	}
}

// WithSpeculativeFraction sets the in-flight age — as a fraction of the
// task timeout — after which an idle worker is handed a backup copy of a
// still-running task. Values outside (0, 1] keep the default (0.5).
func WithSpeculativeFraction(f float64) Option {
	return func(c *config) {
		if f > 0 && f <= 1 {
			c.specFraction = f
		}
	}
}

// WithPollInterval sets the worker's heartbeat: the longest the master
// holds its idle poll or empty fetch (at most half the worker timeout).
// Non-positive values keep the default (10ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.pollInterval = d
		}
	}
}

// WithObserver attaches an Observer: the master emits dist.submit spans,
// map/reduce progress and reassignment/speculation counters; the worker
// emits dist.task spans and failure-report counters. A nil observer keeps
// the default (obs.Nop).
func WithObserver(o obs.Observer) Option {
	return func(c *config) {
		if o != nil {
			c.observer = o
		}
	}
}

// WithMaxConcurrentJobs caps how many admitted jobs run (are offered
// tasks) at once; further submissions queue until a slot frees. Values
// below 1 keep the default (4).
func WithMaxConcurrentJobs(n int) Option {
	return func(c *config) {
		if n >= 1 {
			c.maxActiveJobs = n
		}
	}
}

// WithWorkerTimeout sets the liveness window: a worker silent (no poll,
// fetch or completion) for longer is evicted — its in-flight tasks are
// requeued and its served map output is re-executed. Non-positive values
// keep the default (30s).
func WithWorkerTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.workerTimeout = d
		}
	}
}

// WithSnapshotPath makes the master persist a versioned state snapshot
// (jobs, task tables, worker registry) to path after its mutations — from
// a writer goroutine, before Submit returns — and StartMaster resume from
// an existing snapshot at that path — a restarted master picks its
// in-flight jobs back up. Each job's input and finished
// outputs live in a data file beside it (path.job-*) until the job
// retires. Empty keeps snapshots off.
func WithSnapshotPath(path string) Option {
	return func(c *config) { c.snapshotPath = path }
}

// WithSpillDir bounds a worker's map side out of core: its map tasks run
// the engine's spill path with no spill kept resident, so every sort-buffer
// spill is a checksummed segment file (raw frames, CRC-32 each) under a
// per-worker temp directory inside dir, a task's spills merge into one
// file, and a map task's memory is its job's SortBuffer, not its output.
// Reducers pull that file frame by frame from the byte endpoint, so the
// worker's resident shuffle state is one frame per in-flight fetch. A spill
// file that fails validation on read is answered as segment loss, so the
// master re-executes the owning map — the same recovery path as a dead
// worker. Empty keeps map output in memory.
func WithSpillDir(dir string) Option {
	return func(c *config) { c.spillDir = dir }
}

// WithCoreClass declares the worker's core class ("big", "little", or a
// custom profile name). The worker stamps it on every phase event it emits
// — making traces self-describing for energy attribution — and reports it
// in each poll, so the master's worker registry knows which class every
// node is (the placement input the EDP-aware scheduler consumes). Empty
// keeps the class undeclared.
func WithCoreClass(class string) Option {
	return func(c *config) { c.coreClass = class }
}

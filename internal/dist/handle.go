package dist

// handle.go is the asynchronous submission API: Submit returns a
// JobHandle immediately and the job runs in the master's scheduler
// alongside every other admitted job. The handle is the only object a
// client needs — identity, completion wait, live status, cancellation —
// and it stays valid after the job leaves the master's active tables.

import (
	"context"
	"fmt"
	"time"

	"heterohadoop/internal/mapreduce"
)

// JobHandle is a client's reference to one submitted job. Handles are
// cheap value-like references: copyable, safe for concurrent use, and
// valid for the life of the process that holds them (the underlying job
// state is pinned by the handle even after the master retires the job).
type JobHandle struct {
	m  *Master
	js *jobState
}

// ID returns the job's master-assigned identity ("job-<n>"), stable
// across a master snapshot restart.
func (h *JobHandle) ID() string { return h.js.id }

// Done returns a channel closed when the job reaches a terminal state
// (done, failed or cancelled) — select on it alongside other work.
func (h *JobHandle) Done() <-chan struct{} { return h.js.doneCh }

// Wait blocks until the job completes and returns its result, or the
// job's error if it failed or was cancelled. A cancelled ctx abandons the
// wait — it does NOT cancel the job (use Cancel for that), so several
// clients can wait on one handle and an impatient one leaving does not
// kill the job for the rest.
func (h *JobHandle) Wait(ctx context.Context) (*mapreduce.Result, error) {
	select {
	case <-h.js.doneCh:
		// The close orders result/err; a job with an error has no result.
		return h.js.result, h.js.err
	case <-ctx.Done():
		return nil, fmt.Errorf("dist: wait for job %s abandoned: %w", h.js.id, ctx.Err())
	}
}

// Status returns the job's point-in-time status snapshot.
func (h *JobHandle) Status() JobStatus {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return h.m.core.jobStatus(h.js)
}

// Cancel aborts the job: undispatched tasks are dropped, workers polling
// for it are turned away, in-flight completions become stale, and Wait
// returns an error wrapping ErrJobCancelled. Cancelling a finished job is
// a no-op.
func (h *JobHandle) Cancel() {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	h.m.commitLocked(h.m.core.abort(h.js, ErrJobCancelled, time.Now()))
}

package dist

import "time"

// status.go exposes the master's job and task tables as snapshot values for
// the live HTTP plane (internal/obs/httpd): /jobs serves the JobStatus
// list, /tasks serves TaskStatuses. Both are lock-scoped copies — callers
// never see the live tables.

// JobStatus is a point-in-time summary of one job on the master.
type JobStatus struct {
	// ID is the master-assigned job identity ("job-<n>"), stable across a
	// snapshot restart.
	ID string `json:"id"`
	// State is one of the Job* lifecycle constants.
	State string `json:"state"`
	// Epoch is the job generation — the report-routing key; it
	// distinguishes jobs with the same workload name.
	Epoch uint64 `json:"epoch"`
	// Workload is the submitted job's workload name.
	Workload string `json:"workload,omitempty"`
	// Phase is the job's scheduler phase: "map" or "reduce" while running,
	// "" when queued or terminal.
	Phase string `json:"phase"`
	// MapsDone / MapsTotal and ReducesDone / ReducesTotal are task-level
	// progress.
	MapsDone     int `json:"maps_done"`
	MapsTotal    int `json:"maps_total"`
	ReducesDone  int `json:"reduces_done"`
	ReducesTotal int `json:"reduces_total"`
	// Reassigned, Speculative, EarlyReduces and RecoveredMaps are this
	// job's share of the master's Stats counters.
	Reassigned    int `json:"reassigned"`
	Speculative   int `json:"speculative"`
	EarlyReduces  int `json:"early_reduces"`
	RecoveredMaps int `json:"recovered_maps"`
}

// TaskStatus is a point-in-time view of one task slot in a job's tables.
type TaskStatus struct {
	// Job is the owning job's ID.
	Job string `json:"job"`
	// Kind is "map" or "reduce"; Seq is the task's slot (split index or
	// partition).
	Kind string `json:"kind"`
	Seq  int    `json:"seq"`
	// Assigned reports an in-flight assignment; Assignee is the worker
	// holding it.
	Assigned bool   `json:"assigned"`
	Assignee string `json:"assignee,omitempty"`
	// RunningForMS is how long the current assignment has been out, in
	// milliseconds (0 when unassigned or done).
	RunningForMS int64 `json:"running_for_ms"`
	// Done reports completion.
	Done bool `json:"done"`
}

// JobStatus returns one job's summary by ID: active jobs live, terminal
// jobs from the history (which holds every retired job's final status, the
// snapshot-restored ones included).
func (m *Master) JobStatus(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.core.statusByID(id)
}

// Jobs returns every known job's status: active jobs in submission order,
// then terminal history (oldest first, bounded).
func (m *Master) Jobs() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.core.statuses()
}

// TaskStatuses returns a snapshot of the task slots of active jobs — every
// job when jobID is "", one job otherwise — map tasks first within each
// job, in slot order. Terminal jobs contribute nothing (their tables are
// dropped at retirement).
func (m *Master) TaskStatuses(jobID string) []TaskStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.core.taskStatuses(jobID, time.Now())
}

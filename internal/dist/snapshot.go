package dist

// snapshot.go is the master's crash-recovery persistence: a versioned gob
// snapshot of every queued and running job (descriptors, split input,
// task completion state, the shuffle publication log of segment
// references, buffered reduce outputs), the epoch/job counters and the
// worker registry, written atomically (temp file + rename) on every state
// mutation and loaded by StartMaster when WithSnapshotPath names an
// existing file. The file is one gob stream: the snapshot value, then each
// bulk payload (map split, reduce output) as a message of its own, so the
// encoder's buffer is reused and never outgrows the largest payload. A
// restarted master resumes in-flight jobs where they stood: completed maps
// stay done as long as their workers still serve the output, finished
// reduce outputs are kept, assignments are cleared for re-dispatch, and
// segments whose workers died with the master are recovered through the
// normal loss-report path when reducers fail to fetch them.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"heterohadoop/internal/mapreduce"
)

// snapshotVersion is bumped on any incompatible layout change; a loaded
// snapshot with a different version is rejected (the operator removes the
// stale file) rather than misread. Version 2 dropped the inline segment
// payload from the publication log: gob would decode a version-1 file
// without complaint and resume jobs whose master-held segments are gone.
const snapshotVersion = 2

// snapTask is one map task's persistent state. Unexported fields are left
// out of the snapshot value by gob and travel as blobs.
type snapTask struct {
	Done  bool
	Owner string
	split []byte
}

// snapJob is one active job's persistent state.
type snapJob struct {
	ID            string
	Epoch         uint64
	Desc          JobDescriptor
	BlockSize     int
	State         string
	Phase         string
	MapTasks      []snapTask
	PartSegs      [][]TaggedSegment
	redOutputs    [][]byte // one per reducer, empty until it is done
	Counters      mapreduce.Counters
	Reassigned    int
	Speculative   int
	EarlyReduces  int
	RecoveredMaps int
	SubmittedAt   time.Time
}

// snapshot is the full persistent master state.
type snapshot struct {
	Version int
	Epoch   uint64
	JobSeq  uint64
	Jobs    []snapJob
	History []JobStatus
	Workers []workerInfo
}

// blobs lists the slots of the snapshot's bulk payloads in file order: job
// by job, every map split, then every reduce output.
func (s *snapshot) blobs() []*[]byte {
	var out []*[]byte
	for j := range s.Jobs {
		sj := &s.Jobs[j]
		for i := range sj.MapTasks {
			out = append(out, &sj.MapTasks[i].split)
		}
		for p := range sj.redOutputs {
			out = append(out, &sj.redOutputs[p])
		}
	}
	return out
}

// saveSnapshotLocked persists the master state when snapshots are
// enabled; called under m.mu after every mutation that must survive a
// restart (submission, completion, invalidation, eviction, retirement).
// Write errors are surfaced through the observer rather than failing the
// mutation — a master that cannot persist keeps serving.
func (m *Master) saveSnapshotLocked() {
	if m.snapPath == "" {
		return
	}
	snap := snapshot{Version: snapshotVersion, Epoch: m.epoch, JobSeq: m.jobSeq}
	for _, js := range m.order {
		sj := snapJob{
			ID: js.id, Epoch: js.epoch, Desc: js.desc, BlockSize: js.blockSize,
			State: js.state, Phase: js.phase,
			PartSegs: js.partSegs, redOutputs: js.redOutputs,
			Counters: js.counters, Reassigned: js.reassigned,
			Speculative: js.speculative, EarlyReduces: js.earlyReduces,
			RecoveredMaps: js.recoveredMaps, SubmittedAt: js.submittedAt,
		}
		sj.MapTasks = make([]snapTask, len(js.mapTasks))
		for i, ts := range js.mapTasks {
			sj.MapTasks[i] = snapTask{Done: ts.done, Owner: ts.owner, split: ts.task.SplitData}
		}
		snap.Jobs = append(snap.Jobs, sj)
	}
	snap.History = append([]JobStatus(nil), m.history...)
	for _, w := range m.workers.workers {
		snap.Workers = append(snap.Workers, *w)
	}
	if err := writeSnapshot(m.snapPath, &snap); err != nil {
		m.ob.Count("dist.snapshot.errors", 1)
	} else {
		m.ob.Count("dist.snapshot.writes", 1)
	}
}

// writeSnapshot gob-encodes the snapshot to a temp file beside path and
// renames it into place, so readers never observe a torn write.
func writeSnapshot(path string, snap *snapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	enc := gob.NewEncoder(tmp)
	err = enc.Encode(snap)
	for _, b := range snap.blobs() {
		if err == nil {
			err = enc.Encode(*b)
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadSnapshot reads a snapshot file; a missing file is (nil, nil).
func loadSnapshot(path string) (*snapshot, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: snapshot open: %w", err)
	}
	defer f.Close()
	var snap snapshot
	dec := gob.NewDecoder(f)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("dist: snapshot decode: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("dist: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	for j := range snap.Jobs {
		snap.Jobs[j].redOutputs = make([][]byte, snap.Jobs[j].Desc.NumReducers)
	}
	for _, b := range snap.blobs() {
		if err := dec.Decode(b); err != nil {
			return nil, fmt.Errorf("dist: snapshot decode: %w", err)
		}
	}
	return &snap, nil
}

// restoreLocked rebuilds the master's job tables from a snapshot; called
// from StartMaster before the RPC plane accepts connections. Every
// restored assignment is cleared (the assignees are gone or must
// re-poll), so the scheduler re-dispatches outstanding work; done maps
// (their segments still referenced at their workers) and finished reduce
// outputs resume as done.
func (m *Master) restoreLocked(snap *snapshot) {
	m.epoch = snap.Epoch
	m.jobSeq = snap.JobSeq
	m.history = append(m.history, snap.History...)
	now := time.Now()
	for _, w := range snap.Workers {
		// Restored workers start evicted-but-known: a live one re-polls
		// within its heartbeat and rejoins; a dead one never counts as
		// live and its served segments recover through loss reports.
		m.workers.workers[w.ID] = &workerInfo{ID: w.ID, Addr: w.Addr, LastSeen: now, Evicted: true}
	}
	for _, sj := range snap.Jobs {
		chunks := make([][]byte, len(sj.MapTasks))
		for i := range sj.MapTasks {
			chunks[i] = sj.MapTasks[i].split
		}
		js := newJobState(sj.ID, sj.Epoch, sj.Desc, sj.BlockSize, chunks, m.defaults, sj.SubmittedAt)
		js.phase = sj.Phase
		js.state = JobQueued // promoteLocked re-admits up to the cap
		js.partSegs = sj.PartSegs
		js.redOutputs = sj.redOutputs
		js.counters = sj.Counters
		js.reassigned = sj.Reassigned
		js.speculative = sj.Speculative
		js.earlyReduces = sj.EarlyReduces
		js.recoveredMaps = sj.RecoveredMaps
		for i, st := range sj.MapTasks {
			ts := js.mapTasks[i]
			ts.done = st.Done
			ts.owner = st.Owner
			if st.Done {
				js.mapsLeft--
			}
		}
		for i, out := range sj.redOutputs {
			if len(out) > 0 {
				js.redTasks[i].done = true
				js.redsLeft--
			}
		}
		m.jobs[js.id] = js
		m.byEpoch[js.epoch] = js
		m.order = append(m.order, js)
	}
	m.promoteLocked()
}

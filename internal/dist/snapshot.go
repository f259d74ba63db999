package dist

// snapshot.go is the master's crash-recovery persistence: the data files,
// and the snapshot value the core builds (core.go) on disk. It writes every
// bulk byte once: Submit writes a job's input to a data file of its own
// beside the snapshot (<snapshot>.job-*), and each reduce output is appended
// to it on arrival. The snapshot — one versioned gob value, replaced
// atomically (temp file + rename) on every mutation — names those bytes by
// extent beside each job's task table, shuffle publication log and
// counters, so its size follows the task table, not the job. A retired
// job's file goes only after a snapshot without the job is on disk: a crash
// in between leaves an orphan, which StartMaster sweeps, never a dangling
// name. A restart re-derives the splits from the input, reads finished
// outputs back at their extents (bytes past the last are a torn append),
// keeps done maps done while their workers serve them, and clears every
// assignment; segments lost with dead workers recover through loss reports.
//
// Deleting a field does not bump snapshotVersion: gob skips stream fields
// the destination type lacks. A version-3 file that still carries the
// descriptor's old per-job scheduling knobs, a stored job phase or the
// engine's old retry counter therefore resumes unchanged; the phase is
// derived from the restored task table.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"heterohadoop/internal/mapreduce"
)

// snapshotVersion is bumped on any incompatible layout change; a loaded
// snapshot with a different version is rejected (the operator removes the
// stale file) rather than misread. Version 3 moved the splits and reduce
// outputs out of the snapshot into per-job data files: gob would decode a
// version-2 file without complaint and resume jobs with no input.
const snapshotVersion = 3

// extent locates one blob in a job's data file; Len 0 means absent.
type extent struct{ Off, Len int64 }

// snapTask is one map task's persistent state.
type snapTask struct {
	Done  bool
	Owner string
}

// snapJob is one active job's persistent state.
type snapJob struct {
	ID            string
	Epoch         uint64
	Desc          JobDescriptor
	BlockSize     int
	State         string
	DataFile      string   // base name, beside the snapshot
	InputLen      int64    // the input is the file's [0, InputLen)
	Outputs       []extent // one per reducer, Len 0 until it is done
	MapTasks      []snapTask
	PartSegs      [][]TaggedSegment
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
	Jobs    []snapJob
	History []JobStatus
	Workers []workerInfo
}

// dataFile is a job's data file: the input at [0, inputLen), then reduce
// outputs appended at end as they arrive, at ext (zero until then).
type dataFile struct {
	f             *os.File
	inputLen, end int64
	ext           []extent
}

// saveSnapshotLocked persists the master state when snapshots are
// enabled; commitLocked calls it after every transition that must survive a
// restart (submission, completion, invalidation, eviction, retirement).
// Write errors are surfaced through the observer rather than failing the
// transition — a master that cannot persist keeps serving. A closed master
// no longer writes: a successor may own the path. Reports a write.
func (m *Master) saveSnapshotLocked() bool {
	if m.snapPath == "" || m.closed {
		return false
	}
	snap := m.core.snapshot()
	for i := range snap.Jobs {
		sj := &snap.Jobs[i]
		d := m.files[sj.Epoch]
		sj.DataFile, sj.InputLen, sj.Outputs = filepath.Base(d.f.Name()), d.inputLen, d.ext
	}
	if err := writeSnapshot(m.snapPath, &snap); err != nil {
		m.core.ob.Count("dist.snapshot.errors", 1)
		return false
	}
	m.core.ob.Count("dist.snapshot.writes", 1)
	return true
}

// writeSnapshot gob-encodes the snapshot to a temp file beside path and
// renames it into place, so readers never observe a torn write.
func writeSnapshot(path string, snap *snapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = gob.NewEncoder(tmp).Encode(snap)
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
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("dist: snapshot decode: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("dist: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	return &snap, nil
}

// createDataFile writes a job's input to a fresh data file beside the
// snapshot at path. Submit calls it before taking the master's lock, so a
// large input never stalls a poll.
func createDataFile(path string, input []byte) (*os.File, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".job-*")
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(input); err != nil {
		removeDataFile(f)
		return nil, err
	}
	return f, nil
}

// removeDataFile closes and deletes a data file no snapshot names, if any.
func removeDataFile(f *os.File) {
	if f != nil {
		f.Close()
		os.Remove(f.Name())
	}
}

// persistOutputLocked appends partition p's output to the data file of
// the job at epoch and records its extent. A failed write leaves the extent
// empty — a restart re-runs that reducer — and counts as a snapshot error.
// Called under m.mu.
func (m *Master) persistOutputLocked(epoch uint64, p int, out []byte) {
	d := m.files[epoch]
	if d == nil || m.closed {
		return
	}
	if _, err := d.f.WriteAt(out, d.end); err != nil {
		m.core.ob.Count("dist.snapshot.errors", 1)
		return
	}
	d.ext[p] = extent{Off: d.end, Len: int64(len(out))}
	d.end += int64(len(out))
}

// readDataFile reads a restored job's data file back and opens it for
// further appends. A missing file, or one short of any recorded extent, is
// an error naming the job and the file.
func readDataFile(dir string, sj *snapJob) (*os.File, []byte, error) {
	path := filepath.Join(dir, sj.DataFile)
	buf, err := os.ReadFile(path)
	for _, e := range append(sj.Outputs, extent{Len: sj.InputLen}) {
		if err == nil && (e.Off < 0 || e.Len < 0 || e.Off+e.Len > int64(len(buf))) {
			err = fmt.Errorf("%d bytes, shorter than extent %+v", len(buf), e)
		}
	}
	var f *os.File
	if err == nil {
		f, err = os.OpenFile(path, os.O_WRONLY, 0)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("dist: snapshot job %s: data file %s: %w", sj.ID, path, err)
	}
	return f, buf, nil
}

// restoreLocked reopens the snapshot's data files and restores the core
// from both; called from StartMaster before the RPC plane accepts
// connections.
func (m *Master) restoreLocked(snap *snapshot) error {
	data := make([][]byte, len(snap.Jobs))
	for i := range snap.Jobs {
		sj := &snap.Jobs[i]
		f, buf, err := readDataFile(filepath.Dir(m.snapPath), sj)
		if err != nil {
			return err
		}
		// Appends go past the whole file, a torn one included.
		m.files[sj.Epoch] = &dataFile{f: f, inputLen: sj.InputLen, end: int64(len(buf)), ext: sj.Outputs}
		data[i] = buf
	}
	return m.core.restore(snap, data, time.Now())
}

// sweepDataFiles removes every data file beside the snapshot that no
// restored job names: orphans of a crash between a snapshot write and the
// unlink it allowed, or of one in the middle of a Submit.
func (m *Master) sweepDataFiles() {
	named := make(map[string]bool, len(m.files))
	for _, d := range m.files {
		named[d.f.Name()] = true
	}
	dir, prefix := filepath.Dir(m.snapPath), filepath.Base(m.snapPath)+".job-"
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if p := filepath.Join(dir, e.Name()); strings.HasPrefix(e.Name(), prefix) && !named[p] {
			os.Remove(p)
		}
	}
}

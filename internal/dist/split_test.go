package dist

// split_test.go holds the cluster's map tasks to the engine's: the master
// cuts the engine's byte-range splits, a worker runs the engine's map task
// over each split's window, and the arithmetic of the cut survives the
// extremes of block size on submission and on restore.

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// engineOutput runs job on the in-process engine over input cut into
// blockSize-byte splits and returns its output lines, partitions in order.
func engineOutput(t *testing.T, job mapreduce.Job, input []byte, blockSize int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "input")
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.NewEngine(nil).RunFileContext(context.Background(), job, path, units.Bytes(blockSize))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	return outputBytes(t, res)
}

// mapsWithOutput counts the splits of input at blockSize that own a
// non-empty line: the map tasks with output to serve. A split that lies
// inside one line owns none.
func mapsWithOutput(input []byte, blockSize int) int {
	n := 0
	for start := 0; start < len(input); start += blockSize {
		win := hdfs.Window(input, start, start+blockSize)
		if start > 0 {
			// The first line belongs to the split before.
			i := bytes.IndexByte(win, '\n')
			if i < 0 {
				continue
			}
			win = win[i+1:]
		}
		if len(bytes.Trim(win, "\n")) > 0 {
			n++
		}
	}
	return n
}

// registerOnCluster installs factory under name on the master and on a new
// worker, then starts the worker's loop.
func registerOnCluster(t *testing.T, m *Master, id, name string, factory JobFactory, opts ...Option) *Worker {
	t.Helper()
	m.Registry().Register(name, factory)
	w := connectWorker(t, m, id, opts...)
	w.Registry().Register(name, factory)
	runWorker(t, w)
	return w
}

// TestClusterOffsetsMatchEngine runs a job whose mapper emits each line's
// byte offset on a cluster and on the engine, at block sizes that cut
// inside a line (7), exactly at line starts (10), and inside a line longer
// than a block (3): the cluster's map tasks read the engine's splits with
// absolute offsets, so the output is the same bytes.
func TestClusterOffsetsMatchEngine(t *testing.T) {
	input := []byte("aaaa\nbbbb\ncccc\ndddd\na line much longer than any block below\n\nx\nlast line without newline")
	factory := func(desc JobDescriptor) (mapreduce.Job, error) {
		cfg := mapreduce.DefaultConfig("offsets")
		cfg.NumReducers = desc.NumReducers
		return mapreduce.Job{
			Config: cfg,
			Mapper: mapreduce.MapperFunc(func(offset, line string, emit mapreduce.Emitter) error {
				emit(line, offset)
				return nil
			}),
			Reducer: mapreduce.IdentityReducer(),
		}, nil
	}
	m := startMaster(t)
	registerOnCluster(t, m, "offsets", "offsets", factory)
	desc := JobDescriptor{Workload: "offsets", NumReducers: 2}
	job, err := factory(desc)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{7, 10, 3, 1, len(input)} {
		want := engineOutput(t, job, input, bs)
		if !strings.Contains(string(want), "cccc\t10\n") {
			t.Fatalf("block %d: the engine's output lacks cccc's absolute offset:\n%s", bs, want)
		}
		if got := outputBytes(t, submitWait(t, m, desc, input, bs)); !bytes.Equal(got, want) {
			t.Errorf("block %d: cluster output\n%s\nengine output\n%s", bs, got, want)
		}
	}
}

// TestSubmitMaxBlockSize: a block size past any input admits one map task —
// the cut never forms start+blockSize past the input, so math.MaxInt does
// not overflow it — and the job's output is the engine's.
func TestSubmitMaxBlockSize(t *testing.T) {
	input := workloads.GenerateText(8*units.KB, 61)
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 2}
	m := startMaster(t)
	h, err := m.Submit(context.Background(), desc, input, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st.MapsTotal != 1 {
		t.Fatalf("block size math.MaxInt admitted %d map tasks, want 1", st.MapsTotal)
	}
	startWorker(t, m, "one-split")
	job, err := NewRegistry().Build(desc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := outputBytes(t, waitJob(t, h, jobDeadline)), engineOutput(t, job, input, len(input)); !bytes.Equal(got, want) {
		t.Errorf("one-split output differs from the engine's (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSnapshotZeroBlockSizeRejected: a snapshot whose job has block size 0
// cannot be cut into splits; StartMaster refuses it with an error naming
// the job instead of dividing by zero or looping.
func TestSnapshotZeroBlockSizeRejected(t *testing.T) {
	input := []byte("one\ntwo\n")
	dir := t.TempDir()
	snap := filepath.Join(dir, "master.snap")
	if err := os.WriteFile(snap+".job-1", input, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := newJobState("job-1", 1, JobDescriptor{Workload: "wordcount", NumReducers: 1}, len(input), len(input), t0)
	bad.blockSize, bad.dataFile = 0, filepath.Base(snap)+".job-1"
	writeJournal(t, snap, 1, bad)
	m, err := StartMaster("127.0.0.1:0", WithSnapshotPath(snap))
	if err == nil {
		m.Close()
		t.Fatal("StartMaster resumed a job of block size 0")
	}
	if want := "job-1: block size 0"; !strings.Contains(err.Error(), want) {
		t.Errorf("StartMaster error %q, want it to name %q", err, want)
	}
}

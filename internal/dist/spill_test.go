package dist

// spill_test.go covers the worker-served out-of-core shuffle
// (WithSpillDir): map tasks spilling through the engine's path into
// checksummed segment files, byte-identical to the engine and leaving no
// file when they fail; the output served to reducers frame by frame through
// the endpoint's frame cursor and pruned with its epoch; and — the recovery
// contract — a spill file that fails validation on read answered as segment
// loss, so the master re-executes the owning map.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// serveFrame answers one request from store the way the byte endpoint does
// and parses the reply back the way a puller does.
func serveFrame(store *shuffleStore, epoch uint64, key, part, frame int) (mapreduce.Segment, bool, error) {
	var buf bytes.Buffer
	seg, blob, more, err := store.frame(epoch, key, part, frame)
	if err := writeReply(&buf, seg, blob, more, err == nil); err != nil {
		return mapreduce.Segment{}, false, err
	}
	seg, _, more, err = readReply(&buf, maxFrameLen)
	if err == nil && buf.Len() != 0 {
		err = fmt.Errorf("%d bytes left after the reply", buf.Len())
	}
	return seg, more, err
}

// listSegFiles lists the segment files in dir.
func listSegFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestShuffleStoreFrameCursor exercises the store through the endpoint's
// reply format: a disk-backed multi-frame partition — a map task's output
// under a spill dir — must come back frame by frame, record-identical, and
// a resident one as one frame; replacing an entry and pruning its epoch
// must remove the files.
func TestShuffleStoreFrameCursor(t *testing.T) {
	dir := t.TempDir()
	// ~2.5 MB of records, all in partition 0: several 1 MB frames.
	kvs := make([]mapreduce.KV, 30000)
	var input []byte
	for i := range kvs {
		kvs[i] = mapreduce.KV{
			Key:   fmt.Sprintf("key-%08d", i),
			Value: strings.Repeat("v", 64) + strconv.Itoa(i),
		}
		input = append(input, kvs[i].Key+" "+kvs[i].Value+"\n"...)
	}
	job := mapreduce.Job{
		Config: mapreduce.DefaultConfig("frames"),
		Mapper: mapreduce.MapperFunc(func(_, line string, emit mapreduce.Emitter) error {
			k, v, _ := strings.Cut(line, " ")
			emit(k, v)
			return nil
		}),
		Reducer:     mapreduce.IdentityReducer(),
		Partitioner: mapreduce.PartitionerFunc(func(string, int) int { return 0 }),
	}
	runMapTask := func(attempt int) *mapreduce.MapOutput {
		t.Helper()
		out, _, err := mapreduce.ExecuteMapTask(job, input, 0, len(input), 2, dir, attempt, obs.TaskRef{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	store := newShuffleStore()
	store.put(7, 0, runMapTask(1))
	first := listSegFiles(t, dir)
	if len(first) != 1 {
		t.Fatalf("a map task's output is one file, found %v", first)
	}

	var got []mapreduce.KV
	frames := 0
	for frame := 0; ; frame++ {
		s, more, err := serveFrame(store, 7, 0, 0, frame)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		got = append(got, s.KVs()...)
		frames++
		if !more {
			break
		}
	}
	if frames < 2 {
		t.Fatalf("test wants a multi-frame partition, got %d frames", frames)
	}
	if len(got) != len(kvs) {
		t.Fatalf("round-tripped %d records, want %d", len(got), len(kvs))
	}
	for i := range got {
		if got[i] != kvs[i] {
			t.Fatalf("record %d diverges", i)
		}
	}

	// Past-the-end frame, unknown map, empty partition.
	if _, _, err := serveFrame(store, 7, 0, 0, frames); !errors.Is(err, errNotServed) {
		t.Errorf("past-the-end frame: %v, want errNotServed", err)
	}
	if _, _, err := serveFrame(store, 7, 99, 0, 0); !errors.Is(err, errNotServed) {
		t.Errorf("unknown map seq: %v, want errNotServed", err)
	}
	if s, more, err := serveFrame(store, 7, 0, 1, 0); err != nil || more || s.Len() != 0 {
		t.Errorf("empty partition: %d records, more=%v, err %v", s.Len(), more, err)
	}

	// Resident output: the whole partition is one frame, written from the
	// stored segment's header and arena bytes.
	seg := mapreduce.SegmentFromKVs(kvs)
	store.put(8, 0, mapreduce.ResidentOutput(seg, mapreduce.Segment{}))
	if s, more, err := serveFrame(store, 8, 0, 0, 0); err != nil || more || !reflect.DeepEqual(s.KVs(), kvs) {
		t.Errorf("resident partition: %d records, more=%v, err %v", s.Len(), more, err)
	}
	if _, _, err := serveFrame(store, 8, 0, 0, 1); !errors.Is(err, errNotServed) {
		t.Errorf("resident frame 1: %v, want errNotServed", err)
	}
	if s, more, err := serveFrame(store, 8, 0, 1, 0); err != nil || more || s.Len() != 0 {
		t.Errorf("resident empty partition: %d records, more=%v, err %v", s.Len(), more, err)
	}

	// A replacement entry releases the superseded file; pruning the epoch
	// releases the replacement.
	store.put(7, 0, runMapTask(2))
	if files := listSegFiles(t, dir); len(files) != 1 || files[0] == first[0] {
		t.Errorf("after the replacement the dir holds %v, want one file other than %s", files, first[0])
	}
	store.prune(nil)
	if files := listSegFiles(t, dir); len(files) != 0 {
		t.Errorf("pruned epoch's spill files survive: %v", files)
	}
	if _, _, err := serveFrame(store, 7, 0, 0, 0); !errors.Is(err, errNotServed) {
		t.Errorf("pruned entry: %v, want errNotServed", err)
	}
}

// TestSpillDirShuffleEndToEnd runs a job whose reduce input crosses the
// frame size — so the More cursor actually loops — through spill-dir
// workers, and checks output and accounting against expectations. The sort
// workload keeps every input byte in the shuffle (no combiner collapse).
func TestSpillDirShuffleEndToEnd(t *testing.T) {
	input := workloads.GenerateText(2*units.MB+512*units.KB, 41)
	spillRoot := t.TempDir()

	m := startMaster(t)
	workers := make([]*Worker, 2)
	for i := range workers {
		workers[i] = startWorker(t, m, "spill-"+strconv.Itoa(i), WithSpillDir(spillRoot))
	}
	res := submitWait(t, m, JobDescriptor{Workload: "sort", NumReducers: 2}, input, 256*1024)

	// Global order and record conservation — the sort workload's contract.
	var prev string
	total := 0
	for _, p := range res.Output() {
		for _, kv := range p {
			if kv.Key < prev {
				t.Fatal("output out of order through the frame-cursor shuffle")
			}
			prev = kv.Key
			total++
		}
	}
	if want := len(strings.Split(strings.TrimRight(string(input), "\n"), "\n")); total != want {
		t.Fatalf("%d output records, want %d", total, want)
	}
	// A split inside one line (the input's tail can be one) has no output
	// and writes no file.
	if want := mapsWithOutput(input, 256*1024); res.Counters.SpillFilesWritten < want {
		t.Errorf("SpillFilesWritten = %d, want >= one per map task with output (%d of %d)",
			res.Counters.SpillFilesWritten, want, res.Counters.MapTasks)
	}
	if res.Counters.SpillFileBytesWritten == 0 {
		t.Error("SpillFileBytesWritten = 0 for a disk-served shuffle")
	}

	// Closing the workers removes their spill trees.
	for _, w := range workers {
		w.Close()
	}
	ents, err := os.ReadDir(spillRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("worker spill trees survived Close: %v", names)
	}
}

// TestSpillFileCorruptionRerun is the recovery half of the out-of-core
// shuffle: a worker serves its map output from spill files, the files rot
// on disk before any reducer fetches them, and the job must still complete
// correctly — the fetch fails validation, the reducer reports the loss,
// and the master re-executes the maps, exactly the dead-worker path.
func TestSpillFileCorruptionRerun(t *testing.T) {
	input := workloads.GenerateText(8*units.KB, 43)
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 1}
	m := startMaster(t, WithTaskTimeout(time.Minute))

	// The corruptible worker: its polling loop never starts — the test
	// drives its map execution directly so every spill file exists before
	// anything fetches — but its shuffle server is live.
	corruptible := connectWorker(t, m, "corruptible", WithSpillDir(t.TempDir()))
	h, err := m.Submit(context.Background(), desc, input, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	served := driveMaps(t, h, corruptible)
	if served < 2 {
		t.Fatalf("drove only %d maps; the corpus should split into several", served)
	}

	// Rot every spill file: flip a byte inside the frame region so reads
	// fail their CRC. The parsed index in memory stays valid, so the
	// failure surfaces exactly where it would in production — at ReadFrame.
	segFiles, err := filepath.Glob(filepath.Join(corruptible.spillDir, "*.seg"))
	if err != nil || len(segFiles) == 0 {
		t.Fatalf("no spill files to corrupt (err=%v)", err)
	}
	for _, path := range segFiles {
		fh, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.WriteAt([]byte{0xff}, 3); err != nil {
			t.Fatal(err)
		}
		fh.Close()
	}

	// A healthy worker takes the reduce, hits the rotten frames, reports
	// the loss, and re-executes the invalidated maps itself.
	startWorker(t, m, "survivor")
	checkWordCount(t, waitJob(t, h, jobDeadline), input)
	if st := m.Stats(); st.RecoveredMaps < served {
		t.Errorf("RecoveredMaps = %d, want >= %d (every corrupt map re-run)", st.RecoveredMaps, served)
	}
}

// smallBufferJob is wordcount with a sort buffer of a few hundred records
// and a merge factor of 3, so every map task of a few-KB split spills
// several times and merges in more than one round.
func smallBufferJob(desc JobDescriptor) (mapreduce.Job, error) {
	cfg := mapreduce.DefaultConfig("smallbuffer")
	cfg.NumReducers = desc.NumReducers
	cfg.SortBuffer = 2 * units.KB
	cfg.MergeFactor = 3
	return workloads.NewWordCount().Build(cfg, nil)
}

// TestSpillDirWorkerMatchesEngine runs a job whose map tasks spill several
// times on spill-dir workers: each spill is a segment file and a task's
// spills merge into one more, so the job writes more spill files than it
// has map tasks, and its output is the engine's, byte for byte.
func TestSpillDirWorkerMatchesEngine(t *testing.T) {
	input := workloads.GenerateText(32*units.KB, 47)
	const blockSize = 8 * 1024
	desc := JobDescriptor{Workload: "smallbuffer", NumReducers: 2}
	m := startMaster(t)
	for _, id := range []string{"spill-a", "spill-b"} {
		registerOnCluster(t, m, id, "smallbuffer", smallBufferJob, WithSpillDir(t.TempDir()))
	}
	res := submitWait(t, m, desc, input, blockSize)
	job, err := smallBufferJob(desc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := outputBytes(t, res), engineOutput(t, job, input, blockSize); !bytes.Equal(got, want) {
		t.Errorf("spill-dir cluster output differs from the engine's (%d vs %d bytes)", len(got), len(want))
	}
	if c := res.Counters; c.SpillFilesWritten <= c.MapTasks || c.Spills <= c.MapTasks {
		t.Errorf("%d spills in %d files for %d map tasks, want several spills per task, each in its own file",
			c.Spills, c.SpillFilesWritten, c.MapTasks)
	}
}

// TestSpillDirFailedMapLeavesNoFile: a map task that fails after its second
// spill leaves nothing in the worker's spill dir — neither its spill files
// nor a merged output.
func TestSpillDirFailedMapLeavesNoFile(t *testing.T) {
	var w *Worker
	spilled := -1 // the spill files present when the mapper fails
	failing := func(desc JobDescriptor) (mapreduce.Job, error) {
		cfg := mapreduce.DefaultConfig("failing")
		cfg.NumReducers = desc.NumReducers
		cfg.SortBuffer = units.KB
		pad := strings.Repeat("p", 600) // two records fill the sort buffer
		records := 0
		return mapreduce.Job{
			Config: cfg,
			Mapper: mapreduce.MapperFunc(func(_, line string, emit mapreduce.Emitter) error {
				if records++; records == 5 {
					files, _ := filepath.Glob(filepath.Join(w.spillDir, "*.seg"))
					spilled = len(files)
					return errors.New("mapper fails after its second spill")
				}
				emit(line, pad)
				return nil
			}),
			Reducer: mapreduce.IdentityReducer(),
		}, nil
	}
	m := startMaster(t)
	m.Registry().Register("failing", failing)
	w = connectWorker(t, m, "failing", WithSpillDir(t.TempDir()))
	w.Registry().Register("failing", failing)
	input := []byte("a\nb\nc\nd\ne\nf\n")
	if _, err := m.Submit(context.Background(), JobDescriptor{Workload: "failing", NumReducers: 1}, input, len(input)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.runMap(stealMapTask(t, w.client, w.ID)); err == nil {
		t.Fatal("the failing map task succeeded")
	}
	if spilled < 2 {
		t.Fatalf("the mapper failed with %d spill files written, want 2", spilled)
	}
	if files := listSegFiles(t, w.spillDir); len(files) != 0 {
		t.Errorf("a failed map task left %v in the spill dir", files)
	}
}

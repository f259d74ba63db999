package dist

// spill_test.go covers the worker-served out-of-core shuffle
// (WithSpillDir): map output stored as checksummed segment files, served to
// reducers frame by frame through the endpoint's frame cursor, pruned with its epoch,
// and — the recovery contract — a spill file that fails validation on read
// is answered as segment loss, so the master re-executes the owning map.

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
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// serveFrame answers one request from store the way the byte endpoint does
// and parses the reply back the way a puller does.
func serveFrame(store *shuffleStore, epoch uint64, key, part, frame int) (mapreduce.Segment, bool, error) {
	var buf bytes.Buffer
	f, ok := store.getFrame(epoch, key, part, frame)
	if err := writeReply(&buf, f, ok); err != nil {
		return mapreduce.Segment{}, false, err
	}
	seg, _, more, err := readReply(&buf, maxFrameLen)
	if err == nil && buf.Len() != 0 {
		err = fmt.Errorf("%d bytes left after the reply", buf.Len())
	}
	return seg, more, err
}

// TestShuffleStoreFrameCursor exercises the store through the endpoint's
// reply format: a disk-backed multi-frame partition must come back frame by
// frame, record-identical, and a resident one as one frame; replacing an
// entry and pruning its epoch must remove the files.
func TestShuffleStoreFrameCursor(t *testing.T) {
	dir := t.TempDir()
	// ~2.5 MB of records in one partition: several 1 MB frames.
	kvs := make([]mapreduce.KV, 30000)
	for i := range kvs {
		kvs[i] = mapreduce.KV{
			Key:   fmt.Sprintf("key-%08d", i),
			Value: strings.Repeat("v", 64) + strconv.Itoa(i),
		}
	}
	seg := mapreduce.SegmentFromKVs(kvs)
	sf, err := mapreduce.WriteSegmentsFile(filepath.Join(dir, "m0.seg"), []mapreduce.Segment{seg, {}})
	if err != nil {
		t.Fatal(err)
	}
	if sf.Frames(0) < 2 {
		t.Fatalf("test wants a multi-frame partition, got %d frames", sf.Frames(0))
	}

	store := newShuffleStore()
	store.putFile(7, 0, sf)

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
	if frames != sf.Frames(0) {
		t.Errorf("cursor walked %d frames, file has %d", frames, sf.Frames(0))
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
	store.put(8, 0, []mapreduce.Segment{seg, {}})
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
	sf2, err := mapreduce.WriteSegmentsFile(filepath.Join(dir, "m0-retry.seg"), []mapreduce.Segment{seg, {}})
	if err != nil {
		t.Fatal(err)
	}
	store.putFile(7, 0, sf2)
	if _, err := os.Stat(sf.Path()); !os.IsNotExist(err) {
		t.Error("superseded spill file not removed")
	}
	store.prune(nil)
	if _, err := os.Stat(sf2.Path()); !os.IsNotExist(err) {
		t.Error("pruned epoch's spill file not removed")
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
	if res.Counters.SpillFilesWritten < res.Counters.MapTasks {
		t.Errorf("SpillFilesWritten = %d, want >= one per map task (%d)",
			res.Counters.SpillFilesWritten, res.Counters.MapTasks)
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

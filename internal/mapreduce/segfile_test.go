package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// segKVs builds a sorted segment of n records with seeded, optionally
// incompressible payloads.
func segKVs(t testing.TB, n int, seed int64, incompressible bool) Segment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kvs := make([]KV, n)
	for i := range kvs {
		var val string
		if incompressible {
			b := make([]byte, 40+rng.Intn(200))
			rng.Read(b)
			val = string(b)
		} else {
			val = fmt.Sprintf("value-%d-%s", i, bytes.Repeat([]byte{'x'}, rng.Intn(64)))
		}
		kvs[i] = KV{Key: fmt.Sprintf("key-%06d", rng.Intn(n)), Value: val}
	}
	sortKVs(kvs)
	return SegmentFromKVs(kvs)
}

func sortKVs(kvs []KV) {
	sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
}

// readPartAll materializes one partition of a segment file through the
// frame cursor.
func readPartAll(t *testing.T, sf *SegmentFile, p int) []KV {
	t.Helper()
	run := diskRun(sf, p)
	seg, err := run.materialize()
	if err != nil {
		t.Fatalf("materialize partition %d: %v", p, err)
	}
	return seg.KVs()
}

// TestSegmentFileRoundTrip pins the on-disk format: multi-partition files
// with empty partitions, multi-frame partitions (payload far above the
// frame target) and incompressible frames (raw codec retention) must read
// back record-identical, with O(1) accounting matching the in-memory
// segments.
func TestSegmentFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name  string
		parts []Segment
	}{
		{"empty-file", nil},
		{"single", []Segment{segKVs(t, 100, 1, false)}},
		{"empty-partitions", []Segment{{}, segKVs(t, 50, 2, false), {}, segKVs(t, 1, 3, false), {}}},
		{"multi-frame", []Segment{segKVs(t, 40000, 4, false)}}, // ~several MB > spillFrameRaw
		{"incompressible", []Segment{segKVs(t, 8000, 5, true)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".seg")
			sf, err := WriteSegmentsFile(path, tc.parts)
			if err != nil {
				t.Fatal(err)
			}
			if sf.NumPartitions() != len(tc.parts) {
				t.Fatalf("NumPartitions = %d, want %d", sf.NumPartitions(), len(tc.parts))
			}
			// Reopen from disk: the parsed index must agree with the writer's.
			reopened, err := OpenSegmentFile(path)
			if err != nil {
				t.Fatalf("OpenSegmentFile: %v", err)
			}
			for _, f := range []*SegmentFile{sf, reopened} {
				for p, want := range tc.parts {
					if got := f.Records(p); got != int64(want.Len()) {
						t.Errorf("partition %d: Records = %d, want %d", p, got, want.Len())
					}
					if got := f.PartitionBytes(p); got != want.Bytes() {
						t.Errorf("partition %d: PartitionBytes = %d, want %d (accounting parity)", p, got, want.Bytes())
					}
					if got := readPartAll(t, f, p); !reflect.DeepEqual(got, want.KVs()) {
						t.Errorf("partition %d: records diverge after round trip", p)
					}
				}
			}
			if tc.name == "multi-frame" && sf.Frames(0) < 2 {
				t.Errorf("multi-frame case produced %d frames, want >= 2", sf.Frames(0))
			}
			// Random-access frame reads decode with the plain wire decoder.
			for p := range tc.parts {
				var rebuilt []KV
				for i := 0; i < sf.Frames(p); i++ {
					blob, err := sf.ReadFrame(p, i)
					if err != nil {
						t.Fatalf("ReadFrame(%d,%d): %v", p, i, err)
					}
					seg, err := DecodeSegment(blob)
					if err != nil {
						t.Fatalf("DecodeSegment of frame (%d,%d): %v", p, i, err)
					}
					rebuilt = append(rebuilt, seg.KVs()...)
				}
				if want := tc.parts[p].KVs(); !reflect.DeepEqual(rebuilt, want) {
					t.Errorf("partition %d: frame-by-frame read diverges", p)
				}
			}
		})
	}
}

// TestSpillWriterRecordAppendParity pins that the two writer paths —
// record-by-record append (streamed reduce output) and whole-run
// appendSegment (map spills) — produce files with identical records.
func TestSpillWriterRecordAppendParity(t *testing.T) {
	dir := t.TempDir()
	seg := segKVs(t, 5000, 9, false)

	viaSeg, err := WriteSegmentsFile(filepath.Join(dir, "seg.seg"), []Segment{seg})
	if err != nil {
		t.Fatal(err)
	}
	w, err := newSpillWriter(filepath.Join(dir, "rec.seg"))
	if err != nil {
		t.Fatal(err)
	}
	w.beginPartition()
	for i := 0; i < seg.Len(); i++ {
		if err := w.append(seg.key(i), seg.val(i)); err != nil {
			t.Fatal(err)
		}
	}
	viaRec, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := readPartAll(t, viaRec, 0), readPartAll(t, viaSeg, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("record-append and segment-append files diverge")
	}
	if viaRec.PartitionBytes(0) != viaSeg.PartitionBytes(0) {
		t.Fatalf("accounting diverges: %d vs %d", viaRec.PartitionBytes(0), viaSeg.PartitionBytes(0))
	}
}

// corruptAt returns a copy of b with the byte at off xored.
func corruptAt(b []byte, off int) []byte {
	out := append([]byte(nil), b...)
	out[off] ^= 0x5a
	return out
}

// openAndDrain opens the file bytes and reads every frame of every
// partition, returning the first error.
func openAndDrain(t *testing.T, dir string, content []byte) error {
	t.Helper()
	path := filepath.Join(dir, "probe.seg")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := OpenSegmentFile(path)
	if err != nil {
		return err
	}
	for p := 0; p < sf.NumPartitions(); p++ {
		fr, err := sf.openPart(p)
		if err != nil {
			return err
		}
		for {
			_, err := fr.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fr.Close()
				return err
			}
		}
		fr.Close()
	}
	return nil
}

// TestReadaheadReaderParity pins the pipelined frame source against the
// sequential reader: identical records and identical stored-byte
// accounting across multi-frame, single-frame, empty and incompressible
// partitions — and openFrameSource must pick the pipelined reader exactly
// when a partition has two or more frames to overlap.
func TestReadaheadReaderParity(t *testing.T) {
	dir := t.TempDir()
	sf, err := WriteSegmentsFile(filepath.Join(dir, "ra.seg"),
		[]Segment{segKVs(t, 40000, 31, false), segKVs(t, 10, 32, false), {}, segKVs(t, 20000, 33, true)})
	if err != nil {
		t.Fatal(err)
	}
	if sf.Frames(0) < 2 || sf.Frames(3) < 2 {
		t.Fatalf("test shape broken: partitions 0 and 3 must be multi-frame, got %d and %d frames",
			sf.Frames(0), sf.Frames(3))
	}
	drain := func(src frameSource) ([]KV, int64) {
		t.Helper()
		var kvs []KV
		for {
			seg, err := src.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			kvs = append(kvs, seg.KVs()...) // copy out: the segment aliases ring scratch
		}
		return kvs, src.storedBytesRead()
	}
	for p := 0; p < sf.NumPartitions(); p++ {
		fr, err := sf.openPart(p)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRead := drain(fr)
		fr.close()
		ra, err := sf.openReadahead(p)
		if err != nil {
			t.Fatal(err)
		}
		got, gotRead := drain(ra)
		if err := ra.close(); err != nil {
			t.Fatalf("partition %d: close: %v", p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d: readahead records diverge from sequential reader", p)
		}
		if gotRead != wantRead {
			t.Fatalf("partition %d: storedBytesRead = %d via readahead, %d sequential", p, gotRead, wantRead)
		}
	}
	multi, err := sf.openFrameSource(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := multi.(*readaheadReader); !ok {
		t.Errorf("openFrameSource picked %T for a multi-frame partition, want readahead", multi)
	}
	multi.close()
	single, err := sf.openFrameSource(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := single.(*frameReader); !ok {
		t.Errorf("openFrameSource picked %T for a single-frame partition, want plain reader", single)
	}
	single.close()
}

// TestReadaheadEarlyClose pins shutdown: closing the pipelined reader
// mid-stream — or before reading anything, with the producer blocked on
// the hand-off channel — must join the goroutine without deadlocking.
func TestReadaheadEarlyClose(t *testing.T) {
	sf, err := WriteSegmentsFile(filepath.Join(t.TempDir(), "early.seg"),
		[]Segment{segKVs(t, 40000, 34, false)})
	if err != nil {
		t.Fatal(err)
	}
	for _, reads := range []int{0, 1} {
		ra, err := sf.openReadahead(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reads; i++ {
			if _, err := ra.next(); err != nil {
				t.Fatal(err)
			}
		}
		if err := ra.close(); err != nil {
			t.Fatalf("close after %d reads: %v", reads, err)
		}
	}
}

// TestReadaheadCorruptionTyped pins error delivery through the pipeline: a
// corrupt frame must surface as the same typed sentinel the sequential
// reader raises, exactly once, with the source exhausted afterwards.
func TestReadaheadCorruptionTyped(t *testing.T) {
	dir := t.TempDir()
	sf, err := WriteSegmentsFile(filepath.Join(dir, "good.seg"),
		[]Segment{segKVs(t, 40000, 35, false)})
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(sf.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the second frame: the first decodes cleanly, so the error
	// crosses the hand-off channel behind good data.
	badPath := filepath.Join(dir, "bad.seg")
	if err := os.WriteFile(badPath, corruptAt(good, int(sf.parts[0].frames[1].off)+2), 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := OpenSegmentFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := bf.openReadahead(0)
	if err != nil {
		t.Fatal(err)
	}
	var raErr error
	for {
		_, err := ra.next()
		if err != nil {
			raErr = err
			break
		}
	}
	if !errors.Is(raErr, ErrSegmentCorrupt) {
		t.Fatalf("readahead error = %v, want errors.Is ErrSegmentCorrupt", raErr)
	}
	if _, err := ra.next(); err != io.EOF {
		t.Fatalf("next after error = %v, want io.EOF (source exhausted)", err)
	}
	if err := ra.close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentFileCorruptionTyped drives every corruption and truncation
// class through the reader and checks each surfaces as the right typed
// sentinel — never a panic, never a silent success.
func TestSegmentFileCorruptionTyped(t *testing.T) {
	dir := t.TempDir()
	sf, err := WriteSegmentsFile(filepath.Join(dir, "good.seg"),
		[]Segment{segKVs(t, 3000, 7, false), segKVs(t, 10, 8, true)})
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(sf.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := openAndDrain(t, dir, good); err != nil {
		t.Fatalf("pristine file failed: %v", err)
	}
	frameRegion := int(sf.parts[0].frames[0].off) // 0, but spelled out
	indexOff := len(good) - segTrailerLen - 1     // last index byte

	cases := []struct {
		name    string
		content []byte
		want    error
	}{
		{"empty", nil, ErrSegmentTruncated},
		{"shorter-than-trailer", good[:10], ErrSegmentTruncated},
		{"bad-magic", corruptAt(good, len(good)-1), ErrSegmentCorrupt},
		{"bad-version", corruptAt(good, len(good)-6), ErrSegmentCorrupt},
		{"index-crc", corruptAt(good, indexOff), ErrSegmentCorrupt},
		{"frame-crc", corruptAt(good, frameRegion+2), ErrSegmentCorrupt},
		// A tail truncation removes the trailer, so the last bytes are frame
		// data masquerading as one: bad magic, hence corrupt.
		{"mid-record-truncation", good[:len(good)/3], ErrSegmentCorrupt},
		{"trailer-only", good[len(good)-segTrailerLen:], ErrSegmentCorrupt},
		{"garbage", []byte("this is not a segment file, but it is long enough to have a trailer"), ErrSegmentCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := openAndDrain(t, dir, tc.content)
			if err == nil {
				t.Fatal("corrupted file read back without error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is %v", err, tc.want)
			}
		})
	}

	// Truncating to a prefix that still covers the trailer position cannot
	// happen (trailer is at the end); instead simulate a frame region that
	// ends early by pointing reads past EOF: chop bytes out of the middle.
	chopped := append(append([]byte(nil), good[:frameRegion]...), good[frameRegion+64:]...)
	if err := openAndDrain(t, dir, chopped); err == nil {
		t.Fatal("mid-file chop read back without error")
	} else if !errors.Is(err, ErrSegmentCorrupt) && !errors.Is(err, ErrSegmentTruncated) {
		t.Fatalf("mid-file chop: err = %v, want a typed segment error", err)
	}
}

// FuzzSegmentFileReader fuzzes the on-disk reader with byte flips and
// truncations of a valid file (plus arbitrary leading garbage): the reader
// must either succeed with plausible data or fail with one of the two
// typed sentinels — it must never panic and never return an untyped error.
func FuzzSegmentFileReader(f *testing.F) {
	dir := f.TempDir()
	sf, err := WriteSegmentsFile(filepath.Join(dir, "seed.seg"),
		[]Segment{segKVs(f, 2000, 21, false), {}, segKVs(f, 100, 22, true)})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(sf.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, byte(0), uint16(0))
	f.Add(10, byte(0x80), uint16(100))
	f.Add(len(valid)-1, byte(0xff), uint16(0))
	f.Add(len(valid)-segTrailerLen, byte(1), uint16(0))
	f.Fuzz(func(t *testing.T, pos int, flip byte, truncate uint16) {
		content := append([]byte(nil), valid...)
		if len(content) > 0 {
			content[((pos%len(content))+len(content))%len(content)] ^= flip
		}
		if int(truncate) > 0 && int(truncate) < len(content) {
			content = content[:len(content)-int(truncate)]
		}
		err := openAndDrain(t, t.TempDir(), content)
		if err != nil && !errors.Is(err, ErrSegmentCorrupt) && !errors.Is(err, ErrSegmentTruncated) {
			t.Fatalf("untyped reader error: %v", err)
		}
	})
}

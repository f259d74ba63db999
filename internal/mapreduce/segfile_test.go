package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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
			var rawBytes int
			for p := range tc.parts {
				var rebuilt []KV
				for i := 0; i < sf.Frames(p); i++ {
					blob, err := sf.ReadFrame(p, i)
					if err != nil {
						t.Fatalf("ReadFrame(%d,%d): %v", p, i, err)
					}
					rawBytes += len(blob)
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
			// Frames are stored verbatim, compressible ones included.
			if got := int(sf.StoredBytes()); got != rawBytes {
				t.Errorf("StoredBytes = %d, want the %d raw bytes of the frames", got, rawBytes)
			}
		})
	}
}

// TestReadFrameCallerOwns pins ReadFrame's ownership contract: the blob is
// the caller's alone, so scribbling over one result changes neither a later
// read of the same frame nor a blob handed out before.
func TestReadFrameCallerOwns(t *testing.T) {
	sf, err := WriteSegmentsFile(filepath.Join(t.TempDir(), "own.seg"), []Segment{segKVs(t, 500, 41, false)})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sf.ReadFrame(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), first...)
	second, err := sf.ReadFrame(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		second[i] ^= 0xff
	}
	third, err := sf.ReadFrame(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, pristine) || !bytes.Equal(third, pristine) {
		t.Fatal("mutating one ReadFrame result reached another read of the same frame")
	}
}

// TestSpillWriterFrameCap pins that the writer refuses a frame its own reader
// would reject as implausible: with the cap lowered (the real one is 256 MB),
// one oversized record fails the write, naming the record, on both writer
// paths — instead of producing a file OpenSegmentFile calls corrupt.
func TestSpillWriterFrameCap(t *testing.T) {
	big := SegmentFromKVs([]KV{{Key: "k", Value: string(make([]byte, 4096))}})
	for name, write := range map[string]func(*spillWriter) error{
		"append":        func(w *spillWriter) error { return w.append(big.key(0), big.val(0)) },
		"appendSegment": func(w *spillWriter) error { return w.appendSegment(big) },
	} {
		path := filepath.Join(t.TempDir(), "cap.seg")
		w, err := newSpillWriter(path)
		if err != nil {
			t.Fatal(err)
		}
		w.frameCap = 1024
		w.beginPartition()
		if err := w.append([]byte("small"), []byte("fits")); err != nil {
			t.Fatalf("%s: record under the cap: %v", name, err)
		}
		err = write(w)
		if err == nil {
			err = w.endPartition() // a lone oversized record flushes here
		}
		if err == nil || !strings.Contains(err.Error(), "4097-byte record") {
			t.Fatalf("%s: writing a 4097-byte record under a 1024-byte frame cap: err = %v, want one naming the record", name, err)
		}
		w.abort()
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: abort left the partial file behind (%v)", name, err)
		}
	}
}

// resealIndex returns content with the trailer's index CRC recomputed over
// the index bytes as they now are, so an edit to the index gets past the
// checksum and reaches the checks behind it. Content too short or with an
// index range outside the file comes back unchanged.
func resealIndex(content []byte) []byte {
	if len(content) < segTrailerLen {
		return content
	}
	tr := content[len(content)-segTrailerLen:]
	off, n := binary.LittleEndian.Uint64(tr[0:8]), uint64(binary.LittleEndian.Uint32(tr[8:12]))
	if off > uint64(len(content)) || off+n > uint64(len(content)-segTrailerLen) {
		return content
	}
	binary.LittleEndian.PutUint32(tr[12:16], crc32.ChecksumIEEE(content[off:off+n]))
	return content
}

// codecByteOff is the file offset of the codec byte in the index entry of
// partition 0's first frame.
func codecByteOff(content []byte) int {
	indexOff := int(binary.LittleEndian.Uint64(content[len(content)-segTrailerLen:]))
	return indexOff + 4 + segPartMetaLen + segFrameMeta - 1
}

// TestUnknownCodecIsCorrupt handcrafts what a stale or foreign writer would
// leave: a frame whose index entry, under a valid index CRC, names a codec
// other than raw. There is no inflate path to send it down; both the cursor
// and the random-access read must call it corrupt, and neither may panic.
func TestUnknownCodecIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	// One record of noise: no codec ever shrank it, so it was raw on disk
	// under every version of the writer and the edit below is the only lie.
	noise := make([]byte, 2048)
	rand.New(rand.NewSource(51)).Read(noise)
	sf, err := WriteSegmentsFile(filepath.Join(dir, "good.seg"), []Segment{SegmentFromKVs([]KV{{Key: string(noise[:16]), Value: string(noise[16:])}})})
	if err != nil {
		t.Fatal(err)
	}
	content, err := os.ReadFile(sf.Path())
	if err != nil {
		t.Fatal(err)
	}
	content[codecByteOff(content)] = 1
	path := filepath.Join(dir, "codec1.seg")
	if err := os.WriteFile(path, resealIndex(content), 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := OpenSegmentFile(path)
	if err != nil {
		t.Fatalf("the index itself is well formed: %v", err)
	}
	fr, err := bad.openPart(0)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.close()
	if _, err := fr.next(); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("cursor over a codec-1 frame: err = %v, want errors.Is ErrSegmentCorrupt", err)
	}
	if _, err := bad.ReadFrame(0, 0); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("ReadFrame of a codec-1 frame: err = %v, want errors.Is ErrSegmentCorrupt", err)
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

// drainFrames reads src to EOF, copying every record out (segments alias
// reader scratch), and returns the records with the stored bytes consumed.
func drainFrames(t *testing.T, src frameSource) ([]KV, int64) {
	t.Helper()
	var kvs []KV
	for {
		seg, err := src.next()
		if err == io.EOF {
			return kvs, src.storedBytesRead()
		}
		if err != nil {
			t.Fatal(err)
		}
		kvs = append(kvs, seg.KVs()...)
	}
}

// TestFrameReaderParity pins the one disk cursor against the segments the
// file was written from: identical records, and stored-byte accounting equal
// to the index's stored lengths, across multi-frame, single-frame, empty and
// incompressible partitions — and a second cursor, opened once the first was
// closed and so handed the first one's recycled scratch, reads the same.
func TestFrameReaderParity(t *testing.T) {
	parts := []Segment{segKVs(t, 40000, 31, false), segKVs(t, 10, 32, false), {}, segKVs(t, 20000, 33, true)}
	sf, err := WriteSegmentsFile(filepath.Join(t.TempDir(), "fr.seg"), parts)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Frames(0) < 2 || sf.Frames(3) < 2 {
		t.Fatalf("test shape broken: partitions 0 and 3 must be multi-frame, got %d and %d frames",
			sf.Frames(0), sf.Frames(3))
	}
	for pass := 0; pass < 2; pass++ {
		for p, want := range parts {
			fr, err := sf.openPart(p)
			if err != nil {
				t.Fatal(err)
			}
			got, gotRead := drainFrames(t, fr)
			if err := fr.close(); err != nil {
				t.Fatalf("partition %d: close: %v", p, err)
			}
			if len(got) != want.Len() || (len(got) > 0 && !reflect.DeepEqual(got, want.KVs())) {
				t.Fatalf("pass %d partition %d: frame reader's records diverge from the written segment", pass, p)
			}
			var stored int64
			for _, fi := range sf.parts[p].frames {
				stored += int64(fi.storedLen)
			}
			if gotRead != stored {
				t.Fatalf("pass %d partition %d: storedBytesRead = %d, index says %d", pass, p, gotRead, stored)
			}
		}
	}
}

// TestFrameReaderEarlyClose pins shutdown: closing the cursor mid-run — or
// before reading anything — releases its file descriptor, and a second close
// must not hand its scratch to the pool twice (two later cursors would share
// one buffer).
func TestFrameReaderEarlyClose(t *testing.T) {
	sf, err := WriteSegmentsFile(filepath.Join(t.TempDir(), "early.seg"),
		[]Segment{segKVs(t, 40000, 34, false)})
	if err != nil {
		t.Fatal(err)
	}
	for _, reads := range []int{0, 1} {
		fr, err := sf.openPart(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reads; i++ {
			if _, err := fr.next(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fr.close(); err != nil {
			t.Fatalf("close after %d reads: %v", reads, err)
		}
		if _, err := fr.fh.Stat(); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("close after %d reads left the descriptor open (Stat: %v)", reads, err)
		}
		fr.close() // the descriptor is gone; the scratch must not be pooled again
		a, err := sf.openPart(0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sf.openPart(0)
		if err != nil {
			t.Fatal(err)
		}
		if a.buf == b.buf {
			t.Fatalf("two open cursors share one scratch after a double close")
		}
		a.close()
		b.close()
	}
}

// TestFrameReaderCorruptionTyped pins error delivery mid-run: the frames
// ahead of a corrupt one read cleanly, the corrupt one surfaces as the typed
// sentinel, and closing afterwards is clean.
func TestFrameReaderCorruptionTyped(t *testing.T) {
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
	badPath := filepath.Join(dir, "bad.seg")
	if err := os.WriteFile(badPath, corruptAt(good, int(sf.parts[0].frames[1].off)+2), 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := OpenSegmentFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := bf.openPart(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.next(); err != nil {
		t.Fatalf("frame ahead of the corrupt one: %v", err)
	}
	if _, err := fr.next(); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("corrupt frame error = %v, want errors.Is ErrSegmentCorrupt", err)
	}
	if err := fr.close(); err != nil {
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
// truncations of a valid file (plus arbitrary leading garbage), optionally
// resealing the index CRC afterwards so flips inside the index reach its
// bounds checks and the per-frame codec check: the reader must either succeed
// with plausible data or fail with one of the two typed sentinels — it must
// never panic and never return an untyped error.
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
	f.Add(0, byte(0), uint16(0), false)
	f.Add(10, byte(0x80), uint16(100), false)
	f.Add(len(valid)-1, byte(0xff), uint16(0), false)
	f.Add(len(valid)-segTrailerLen, byte(1), uint16(0), false)
	f.Add(codecByteOff(valid), byte(1), uint16(0), true) // TestUnknownCodecIsCorrupt's file
	f.Fuzz(func(t *testing.T, pos int, flip byte, truncate uint16, reseal bool) {
		content := append([]byte(nil), valid...)
		if len(content) > 0 {
			content[((pos%len(content))+len(content))%len(content)] ^= flip
		}
		if int(truncate) > 0 && int(truncate) < len(content) {
			content = content[:len(content)-int(truncate)]
		}
		if reseal {
			content = resealIndex(content)
		}
		err := openAndDrain(t, t.TempDir(), content)
		if err != nil && !errors.Is(err, ErrSegmentCorrupt) && !errors.Is(err, ErrSegmentTruncated) {
			t.Fatalf("untyped reader error: %v", err)
		}
	})
}

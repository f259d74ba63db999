package hdfs

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"heterohadoop/internal/units"
)

func newTestStore(t *testing.T, blockSize units.Bytes) *Store {
	t.Helper()
	s, err := NewStore(Config{BlockSize: blockSize, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{BlockSize: 64 * units.MB, Replication: 3}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{BlockSize: 0, Replication: 3}).Validate(); err == nil {
		t.Error("zero block size accepted")
	}
	if err := (Config{BlockSize: 64 * units.MB, Replication: 0}).Validate(); err == nil {
		t.Error("zero replication accepted")
	}
	if _, err := NewStore(Config{}); err == nil {
		t.Error("NewStore accepted invalid config")
	}
}

func TestWriteSplitsIntoBlocks(t *testing.T) {
	s := newTestStore(t, 10)
	data := []byte("0123456789abcdefghij12345") // 25 bytes -> 3 blocks
	f, err := s.Write("input", data)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks() != 3 {
		t.Fatalf("got %d blocks, want 3", f.NumBlocks())
	}
	if b, err := s.ReadBlock("input", 2); err != nil || len(b) != 5 {
		t.Errorf("last block = %d bytes, %v, want 5", len(b), err)
	}
	if f.Size() != 25 {
		t.Errorf("size = %v, want 25", f.Size())
	}
	var round []byte
	for i := 0; i < f.NumBlocks(); i++ {
		b, err := s.ReadBlock("input", i)
		if err != nil {
			t.Fatal(err)
		}
		round = append(round, b...)
	}
	if !bytes.Equal(round, data) {
		t.Error("ReadBlock round trip mismatch")
	}
}

func TestWriteIsolatesCallerBuffer(t *testing.T) {
	s := newTestStore(t, 4)
	data := []byte("abcdefgh")
	s.Write("x", data)
	data[0] = 'Z'
	if b, _ := s.ReadBlock("x", 0); b[0] != 'a' {
		t.Error("store aliases caller buffer")
	}
}

func TestSplitsMatchBlockCount(t *testing.T) {
	s := newTestStore(t, units.MB)
	payload := bytes.Repeat([]byte("x"), int(3*units.MB+100))
	if _, err := s.Write("f", payload); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks() != 4 {
		t.Fatalf("got %d blocks, want 4 (3MB+100B at 1MB blocks)", f.NumBlocks())
	}
	var total units.Bytes
	for i := 0; i < f.NumBlocks(); i++ {
		b, err := s.ReadBlock("f", i)
		if err != nil {
			t.Fatal(err)
		}
		total += units.Bytes(len(b))
	}
	if total != units.Bytes(len(payload)) {
		t.Errorf("block lengths sum to %v, want %v", total, len(payload))
	}
}

// TestMaxBlockSizeOneBlock: a block size near math.MaxInt64 covers any
// file in one block, stored or local — the block count must not overflow
// to zero blocks, which left the file's bytes unreadable.
func TestMaxBlockSizeOneBlock(t *testing.T) {
	data := []byte("b\na\nc\n")
	f, err := newTestStore(t, math.MaxInt64).Write("f", data)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks() != 1 || f.BlockSize() != math.MaxInt64 {
		t.Fatalf("stored %d bytes as %d blocks of %v, want 1 of math.MaxInt64", len(data), f.NumBlocks(), f.BlockSize())
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Errorf("ReadAt = %q, %v; want %q", got, err, data)
	}
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lf, err := OpenLocal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	if n := lf.NumBlocks(math.MaxInt64); n != 1 {
		t.Errorf("LocalFile.NumBlocks(math.MaxInt64) = %d, want 1", n)
	}
}

func TestNumMapTasksEqualsInputOverBlockSize(t *testing.T) {
	// The paper's relation: number of map tasks = input size / block size.
	for _, bs := range []units.Bytes{32, 64, 128, 256, 512} {
		s := newTestStore(t, bs)
		input := units.Bytes(1024)
		f, err := s.Write("d", make([]byte, input))
		if err != nil {
			t.Fatal(err)
		}
		want := int(input / bs)
		if f.NumBlocks() != want {
			t.Errorf("block size %d: %d tasks, want %d", bs, f.NumBlocks(), want)
		}
	}
}

func TestReadBlockBounds(t *testing.T) {
	s := newTestStore(t, 8)
	s.Write("f", make([]byte, 20))
	if _, err := s.ReadBlock("f", -1); err == nil {
		t.Error("negative block accepted")
	}
	if _, err := s.ReadBlock("f", 3); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, err := s.ReadBlock("nope", 0); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := s.Open("nope"); err == nil {
		t.Error("Open on missing file succeeded")
	}
	if _, err := s.Write("", []byte("x")); err == nil {
		t.Error("empty name accepted")
	}
	b, err := s.ReadBlock("f", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 4 {
		t.Errorf("tail block length = %d, want 4", len(b))
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := newTestStore(t, units.KB)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			for j := 0; j < 50; j++ {
				if _, err := s.Write(name, make([]byte, 3000)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Open(name); err != nil {
					t.Error(err)
					return
				}
				if b, err := s.ReadBlock(name, 2); err != nil || len(b) != 3000-2*int(units.KB) {
					t.Errorf("ReadBlock = %d bytes, %v", len(b), err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestSplitRoundTripProperty(t *testing.T) {
	f := func(sizeRaw uint32, bsRaw uint16) bool {
		size := int(sizeRaw % 100000)
		bs := units.Bytes(bsRaw%4096 + 1)
		s, err := NewStore(Config{BlockSize: bs, Replication: 1})
		if err != nil {
			return false
		}
		file, err := s.Write("f", make([]byte, size))
		if err != nil {
			return false
		}
		wantBlocks := (size + int(bs) - 1) / int(bs)
		if file.NumBlocks() != wantBlocks {
			return false
		}
		var total units.Bytes
		for i := 0; i < file.NumBlocks(); i++ {
			b, err := s.ReadBlock("f", i)
			if err != nil {
				return false
			}
			total += units.Bytes(len(b))
		}
		return total == units.Bytes(size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiskValidate(t *testing.T) {
	if err := ServerDisk().Validate(); err != nil {
		t.Errorf("shipped disk invalid: %v", err)
	}
	bad := []Disk{
		{ReadBandwidth: 0, WriteBandwidth: 1, RequestSize: 1},
		{ReadBandwidth: 1, WriteBandwidth: 0, RequestSize: 1},
		{ReadBandwidth: 1, WriteBandwidth: 1, SeekTime: -1, RequestSize: 1},
		{ReadBandwidth: 1, WriteBandwidth: 1, RequestSize: 0},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad disk %d accepted", i)
		}
	}
}

func TestDiskTimes(t *testing.T) {
	d := Disk{ReadBandwidth: 100 * units.MB, WriteBandwidth: 50 * units.MB, SeekTime: 0.01, RequestSize: units.MB}
	rt := d.ReadTime(200*units.MB, 1)
	if math.Abs(float64(rt)-2.01) > 1e-9 {
		t.Errorf("ReadTime = %v, want 2.01s", rt)
	}
	wt := d.WriteTime(100*units.MB, 2)
	if math.Abs(float64(wt)-2.02) > 1e-9 {
		t.Errorf("WriteTime = %v, want 2.02s", wt)
	}
	if d.ReadTime(0, 5) != 0 || d.WriteTime(-1, 1) != 0 {
		t.Error("non-positive sizes should cost zero")
	}
	// streams < 1 clamps to 1 seek.
	if got := d.ReadTime(units.MB, 0); math.Abs(float64(got)-(0.01+0.01)) > 1e-9 {
		t.Errorf("clamped-stream read = %v", got)
	}
}

func TestInterleavedStreams(t *testing.T) {
	d := ServerDisk()
	if got := d.InterleavedStreams(0); got != 0 {
		t.Errorf("streams(0) = %d, want 0", got)
	}
	if got := d.InterleavedStreams(units.KB); got != 1 {
		t.Errorf("streams(1KB) = %d, want 1", got)
	}
	if got := d.InterleavedStreams(40 * units.MB); got != 10 {
		t.Errorf("streams(40MB) = %d, want 10 at 4MB requests", got)
	}
}

func TestLargerBlocksFewerSeeks(t *testing.T) {
	// Reading the same total data as fewer, larger sequential blocks pays
	// fewer seeks — the mechanism that favours large HDFS blocks for
	// I/O-bound workloads.
	d := ServerDisk()
	total := units.Bytes(1) * units.GB
	smallBlocks := int(total / (32 * units.MB))
	largeBlocks := int(total / (512 * units.MB))
	tSmall := d.ReadTime(total, smallBlocks)
	tLarge := d.ReadTime(total, largeBlocks)
	if tLarge >= tSmall {
		t.Errorf("large blocks not faster: %v vs %v", tLarge, tSmall)
	}
}

// TestReadWindowStoreMatchesLocal reads every split window of one input at
// every block size from a stored File and from a LocalFile: both give the
// split plus the line straddling its end, through the first newline at or
// after end, or EOF.
func TestReadWindowStoreMatchesLocal(t *testing.T) {
	data := []byte("alpha\nbe\n\ngamma delta\nx\nlast line without newline")
	s := newTestStore(t, 7)
	f, err := s.Write("in", data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lf, err := OpenLocal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	size := int64(len(data))
	for bs := int64(1); bs <= size+1; bs++ {
		for start := int64(0); start < size; start += bs {
			e := min(start+bs, size)
			if i := bytes.IndexByte(data[e:], '\n'); i >= 0 {
				e += int64(i) + 1
			} else {
				e = size
			}
			got, err := ReadWindow(f, int64(f.Size()), start, start+bs, nil)
			if err != nil || !bytes.Equal(got, data[start:e]) {
				t.Fatalf("store window [%d,%d) = %q, %v, want %q", start, start+bs, got, err, data[start:e])
			}
			if got, err := lf.ReadWindow(start, start+bs, nil); err != nil || !bytes.Equal(got, data[start:e]) {
				t.Fatalf("local window [%d,%d) = %q, %v, want %q", start, start+bs, got, err, data[start:e])
			}
		}
	}
	if n, err := f.ReadAt(make([]byte, 4), size-2); n != 2 || err != io.EOF {
		t.Errorf("ReadAt across EOF = %d, %v, want 2, io.EOF", n, err)
	}
}

// FuzzWindow holds the in-memory window view to ReadWindow: for every split
// of the data at the block size, Window returns the bytes ReadWindow reads,
// with no capacity past them.
func FuzzWindow(f *testing.F) {
	f.Add([]byte("alpha\nbe\n\ngamma delta\nx\nlast line without newline"), uint8(7))
	f.Add([]byte("aaaa\nbbbb\ncccc\ndddd\n"), uint8(10))
	f.Add([]byte("aaaa\nbbbb\ncccc\ndddd\n"), uint8(5))
	f.Add([]byte("one line longer than a block\nx\n"), uint8(3))
	f.Add([]byte("\n\n\n"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, block uint8) {
		bs := int(block)%(len(data)+2) + 1
		for start := 0; start < len(data); start += bs {
			end := start + bs
			want, err := ReadWindow(bytes.NewReader(data), int64(len(data)), int64(start), int64(end), nil)
			if err != nil {
				t.Fatalf("ReadWindow [%d,%d): %v", start, end, err)
			}
			got := Window(data, start, end)
			if !bytes.Equal(got, want) {
				t.Fatalf("Window [%d,%d) = %q, ReadWindow = %q", start, end, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("Window [%d,%d) has capacity %d past its %d bytes", start, end, cap(got), len(got))
			}
		}
	})
}

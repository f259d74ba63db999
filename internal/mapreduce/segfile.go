package mapreduce

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"heterohadoop/internal/units"
)

// segfile.go is the on-disk form of spilled segments: the out-of-core
// counterpart of the in-memory arena Segment. A segment file holds one or
// more partitions, each a sorted run of records chunked into independently
// CRC-checksummed frames whose content is exactly the wire.go segment
// encoding, stored verbatim — so a frame read back from disk decodes with
// the same DecodeSegment the shuffle wire path uses, and any contiguous
// frame sequence of a partition is itself a valid sorted run (frames chunk
// the record stream, never split a record). Frames are not compressed: spill
// files live on page-cache-backed temp dirs and die within the job, and a
// codec on this path cost two thirds of an out-of-core job's CPU to save
// bytes nobody was short of (DESIGN.md §13).
//
// Layout, little-endian throughout:
//
//	frame bytes            stored frames, partition by partition in frame
//	                       order
//	index                  u32 nparts, then per partition:
//	                         u32 nframes, u64 recs, u64 rawPayload
//	                         nframes × (u64 off, u32 storedLen, u32 rawLen,
//	                                    u32 crc32(stored), u8 codec)
//	                       codec is always 0 (raw, storedLen == rawLen); the
//	                       byte stays so a codec can come back as a measured
//	                       change without a format version
//	trailer (28 bytes)     u64 indexOff, u32 indexLen, u32 crc32(index),
//	                       u32 version, u32 magic "GSHH"
//
// The index and trailer sit at the end so the writer streams frames
// sequentially without knowing partition shapes upfront. Readers validate
// the trailer magic/version, the index CRC, and every frame's codec and CRC
// before decoding; all failure modes surface as ErrSegmentCorrupt or
// ErrSegmentTruncated, never a panic — a serving worker maps them to a
// failed fetch so the master re-runs the owning map.

// Typed failure classes for on-disk segment files, matchable with
// errors.Is. Truncated means the file ends before the bytes the trailer or
// index promised; corrupt means the bytes are there but fail validation
// (bad magic, CRC mismatch, unknown codec, decode errors, implausible lengths).
var (
	ErrSegmentCorrupt   = errors.New("segment file corrupt")
	ErrSegmentTruncated = errors.New("segment file truncated")
)

const (
	segFileMagic   = 0x48485347 // "GSHH" little-endian on disk
	segFileVersion = 1
	segTrailerLen  = 28
	segPartMetaLen = 20 // per-partition index header size
	segFrameMeta   = 21 // per-frame index entry size (u64 + 3×u32 + u8)

	codecRaw = 0 // frame stored verbatim; the only codec

	// spillFrameRaw is the target frame payload size. Frames bound both the
	// writer's buffering and a reader cursor's resident memory, and are the
	// unit of the dist shuffle's offset cursor.
	spillFrameRaw = 1 << 20

	// maxFrameStored caps a single frame's stored and raw lengths so a
	// corrupt index cannot make a reader allocate unbounded memory before
	// CRC validation catches it. The writer refuses to produce a frame the
	// reader would refuse (one record this large is the only way to get one).
	maxFrameStored = 1 << 28
)

// frameInfo is one frame's index entry.
type frameInfo struct {
	off       int64
	storedLen uint32
	rawLen    uint32
	crc       uint32
	codec     uint8
}

// segPartMeta is one partition's index entry: its frames plus O(1)
// accounting totals.
type segPartMeta struct {
	frames     []frameInfo
	recs       int64
	rawPayload int64 // Σ key+value bytes across the partition's records
}

// SegmentFile is a validated handle on an on-disk segment file: the parsed
// index plus the path. It holds no open file descriptor; cursors and frame
// reads open their own, so a SegmentFile is safe to share across
// goroutines.
type SegmentFile struct {
	path        string
	parts       []segPartMeta
	storedBytes int64
}

// Path returns the file's path.
func (f *SegmentFile) Path() string { return f.path }

// NumPartitions returns the partition count.
func (f *SegmentFile) NumPartitions() int { return len(f.parts) }

// Frames returns partition p's frame count.
func (f *SegmentFile) Frames(p int) int { return len(f.parts[p].frames) }

// Records returns partition p's record count.
func (f *SegmentFile) Records(p int) int64 { return f.parts[p].recs }

// PartitionBytes returns partition p's accounting size — identical to
// Segment.Bytes of the partition materialized in memory — from the index
// alone.
func (f *SegmentFile) PartitionBytes(p int) units.Bytes {
	pm := &f.parts[p]
	return units.Bytes(pm.rawPayload + recordOverhead*pm.recs)
}

// StoredBytes returns the total on-disk frame bytes, the quantity
// spill-write counters account.
func (f *SegmentFile) StoredBytes() units.Bytes { return units.Bytes(f.storedBytes) }

// Remove deletes the file from disk. The handle must not be read after.
func (f *SegmentFile) Remove() error { return os.Remove(f.path) }

// ReadFrame returns partition p's frame i as a CRC-verified wire-format
// segment blob (decodable with DecodeSegment) — the dist worker's
// random-access path for serving one shuffle frame per fetch. The blob is
// freshly allocated and the caller owns it: nothing else aliases it, so it
// may be cached, mutated or handed on.
func (f *SegmentFile) ReadFrame(p, i int) ([]byte, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return readFrame(fh, f.parts[p].frames[i], nil)
}

// readFrame reads and validates one stored frame, returning its wire bytes.
// buf is reusable scratch (a fresh buffer is allocated when it is too
// small); the result aliases it, valid until the next call with the same
// scratch.
func readFrame(fh *os.File, fi frameInfo, buf []byte) ([]byte, error) {
	if fi.codec != codecRaw || fi.rawLen != fi.storedLen {
		return nil, fmt.Errorf("%w: frame at offset %d: codec %d, stored %d bytes, raw %d — only raw frames exist",
			ErrSegmentCorrupt, fi.off, fi.codec, fi.storedLen, fi.rawLen)
	}
	if cap(buf) < int(fi.storedLen) {
		buf = make([]byte, fi.storedLen)
	}
	buf = buf[:fi.storedLen]
	if _, err := fh.ReadAt(buf, fi.off); err != nil {
		return nil, fmt.Errorf("%w: frame at offset %d: %v", ErrSegmentTruncated, fi.off, err)
	}
	if crc := crc32.ChecksumIEEE(buf); crc != fi.crc {
		return nil, fmt.Errorf("%w: frame at offset %d: crc %08x, want %08x", ErrSegmentCorrupt, fi.off, crc, fi.crc)
	}
	return buf, nil
}

// OpenSegmentFile validates the trailer and index of the file at path and
// returns a handle. Corruption and truncation surface as typed errors.
func OpenSegmentFile(path string) (*SegmentFile, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < segTrailerLen {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte trailer", ErrSegmentTruncated, size, segTrailerLen)
	}
	var tr [segTrailerLen]byte
	if _, err := fh.ReadAt(tr[:], size-segTrailerLen); err != nil {
		return nil, fmt.Errorf("%w: trailer: %v", ErrSegmentTruncated, err)
	}
	if magic := binary.LittleEndian.Uint32(tr[24:28]); magic != segFileMagic {
		return nil, fmt.Errorf("%w: bad magic %08x", ErrSegmentCorrupt, magic)
	}
	if v := binary.LittleEndian.Uint32(tr[20:24]); v != segFileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSegmentCorrupt, v)
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	indexLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	indexCRC := binary.LittleEndian.Uint32(tr[12:16])
	if indexOff < 0 || indexOff+indexLen != size-segTrailerLen {
		return nil, fmt.Errorf("%w: index [%d,+%d) does not abut the trailer of a %d-byte file",
			ErrSegmentCorrupt, indexOff, indexLen, size)
	}
	index := make([]byte, indexLen)
	if _, err := fh.ReadAt(index, indexOff); err != nil {
		return nil, fmt.Errorf("%w: index: %v", ErrSegmentTruncated, err)
	}
	if crc := crc32.ChecksumIEEE(index); crc != indexCRC {
		return nil, fmt.Errorf("%w: index crc %08x, want %08x", ErrSegmentCorrupt, crc, indexCRC)
	}
	f := &SegmentFile{path: path}
	if err := f.parseIndex(index, indexOff); err != nil {
		return nil, err
	}
	return f, nil
}

// parseIndex decodes the index bytes (already CRC-verified) with bounds
// checks: lengths must be internally consistent and every frame must lie
// inside the frame region [0, indexOff).
func (f *SegmentFile) parseIndex(index []byte, indexOff int64) error {
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: index: %s", ErrSegmentCorrupt, fmt.Sprintf(format, args...))
	}
	if len(index) < 4 {
		return bad("%d bytes, no partition count", len(index))
	}
	nparts := int(binary.LittleEndian.Uint32(index))
	rest := index[4:]
	if nparts < 0 || nparts > len(rest)/segPartMetaLen {
		return bad("implausible partition count %d", nparts)
	}
	f.parts = make([]segPartMeta, nparts)
	for p := 0; p < nparts; p++ {
		if len(rest) < segPartMetaLen {
			return bad("partition %d header short", p)
		}
		nframes := int(binary.LittleEndian.Uint32(rest[0:4]))
		pm := &f.parts[p]
		pm.recs = int64(binary.LittleEndian.Uint64(rest[4:12]))
		pm.rawPayload = int64(binary.LittleEndian.Uint64(rest[12:20]))
		rest = rest[segPartMetaLen:]
		if nframes < 0 || nframes > len(rest)/segFrameMeta {
			return bad("partition %d: implausible frame count %d", p, nframes)
		}
		if pm.recs < 0 || pm.rawPayload < 0 {
			return bad("partition %d: negative totals", p)
		}
		pm.frames = make([]frameInfo, nframes)
		for i := 0; i < nframes; i++ {
			fi := frameInfo{
				off:       int64(binary.LittleEndian.Uint64(rest[0:8])),
				storedLen: binary.LittleEndian.Uint32(rest[8:12]),
				rawLen:    binary.LittleEndian.Uint32(rest[12:16]),
				crc:       binary.LittleEndian.Uint32(rest[16:20]),
				codec:     rest[20],
			}
			rest = rest[segFrameMeta:]
			if fi.storedLen > maxFrameStored || fi.rawLen > maxFrameStored {
				return bad("partition %d frame %d: implausible lengths %d/%d", p, i, fi.storedLen, fi.rawLen)
			}
			if fi.off < 0 || fi.off+int64(fi.storedLen) > indexOff {
				return bad("partition %d frame %d: [%d,+%d) outside frame region [0,%d)",
					p, i, fi.off, fi.storedLen, indexOff)
			}
			pm.frames[i] = fi
			f.storedBytes += int64(fi.storedLen)
		}
	}
	if len(rest) != 0 {
		return bad("%d trailing bytes", len(rest))
	}
	return nil
}

// frameScratch is the frame-sized working memory of one spill writer or one
// disk cursor. A writer accumulates the open frame's records in the arena and
// encodes the frame's header and record lengths into hdr; a cursor reads a
// stored frame into the arena's data and decodes its record metadata into the
// arena's meta. A job opens dozens of writers and hundreds of cursors, each
// for a handful of frames, so the scratch is recycled through framePool:
// taken on open, handed back on finish, abort or Close — after which nothing
// may alias it (segments from a cursor's next are valid only until the
// following next, and never past Close).
type frameScratch struct {
	arena
	hdr []byte
}

var framePool = sync.Pool{New: func() interface{} { return new(frameScratch) }}

// recycleScratch hands *s back to the pool and clears the holder's pointer,
// so a second finish, abort or Close finds nothing to hand back: a scratch
// pooled twice would serve two owners at once.
func recycleScratch(s **frameScratch) {
	if *s != nil {
		(*s).reset()
		framePool.Put(*s)
		*s = nil
	}
}

// room makes the data buffer hold n bytes. When it has to allocate it takes a
// whole frame's worth at least (the target plus slack for the record that
// crosses it and the length table), so pooled scratch is one size: whoever
// gets it next, writer or cursor, small partition or full frames, does not
// grow it again.
func (s *frameScratch) room(n int) {
	if cap(s.data) < n {
		s.data = make([]byte, 0, max(n, spillFrameRaw+spillFrameRaw/8))
	}
}

// spillWriter streams records into a new segment file: frames are
// accumulated in an arena and written at spillFrameRaw, and the index is
// written behind them at finish. Usage:
//
//	w, _ := newSpillWriter(path)
//	for each partition { w.beginPartition(); ...append/appendSegment...; w.endPartition() }
//	sf, err := w.finish()
//
// Any error from a method poisons the writer; callers bail out and call
// abort, which removes the partial file.
type spillWriter struct {
	path  string
	f     *os.File
	bw    *bufio.Writer
	off   int64
	parts []segPartMeta
	open  bool // a partition is begun and not ended

	frameCap int           // maxFrameStored; tests lower it
	buf      *frameScratch // open frame's records + header scratch; nil once recycled
}

// newSpillWriter creates the file, truncating any previous content at the
// same path.
func newSpillWriter(path string) (*spillWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spillWriter{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<16),
		frameCap: maxFrameStored, buf: framePool.Get().(*frameScratch)}, nil
}

// beginPartition starts the next partition.
func (w *spillWriter) beginPartition() {
	w.parts = append(w.parts, segPartMeta{})
	w.open = true
}

// append adds one record to the open partition, flushing a frame when the
// accumulated payload reaches the frame target. The caller keeps ownership
// of key and value.
func (w *spillWriter) append(key, value []byte) error {
	if len(w.buf.data) == 0 {
		w.buf.room(len(key) + len(value))
	}
	w.buf.appendBytes(key, value)
	if len(w.buf.data) >= spillFrameRaw {
		return w.flushFrame()
	}
	return nil
}

// appendSegment writes a whole in-memory sorted run into the open
// partition, slicing it into target-sized frames written straight from the
// source segment (no intermediate record copy). Callers must append whole
// runs in sorted order relative to other appends to the same partition.
func (w *spillWriter) appendSegment(s Segment) error {
	// Drain any partial frame first so frame boundaries stay record-aligned
	// and in record order.
	if err := w.flushFrame(); err != nil {
		return err
	}
	for i, n := 0, s.Len(); i < n; {
		j, payload := i, 0
		for j < n && payload < spillFrameRaw {
			m := s.meta[j]
			payload += int(m.keyLen + m.valLen)
			j++
		}
		if err := w.writeFrame(s, i, j); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// endPartition flushes the open partition's trailing partial frame.
func (w *spillWriter) endPartition() error {
	w.open = false
	return w.flushFrame()
}

// flushFrame writes the accumulated frame arena, if it holds any record.
func (w *spillWriter) flushFrame() error {
	if len(w.buf.meta) == 0 {
		return nil
	}
	err := w.writeFrame(w.buf.seg(), 0, len(w.buf.meta))
	w.buf.reset()
	return err
}

// writeFrame writes records [i, j) of s as one frame of the open partition
// — the segment wire form of that range, verbatim — and records its index
// entry. Only the header and the record lengths are encoded into scratch; the
// payload goes out straight from s, in as few writes as its records are
// contiguous in s.data (one, for every segment the engine builds), with the
// frame CRC carried across the pieces.
func (w *spillWriter) writeFrame(s Segment, i, j int) error {
	hdr := append(w.buf.hdr[:0], make([]byte, segHeaderSize)...)
	payload := 0
	for _, m := range s.meta[i:j] {
		hdr = binary.LittleEndian.AppendUint32(hdr, m.keyLen)
		hdr = binary.LittleEndian.AppendUint32(hdr, m.valLen)
		payload += int(m.keyLen + m.valLen)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(j-i))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(payload))
	w.buf.hdr = hdr
	size := len(hdr) + payload
	if size > w.frameCap {
		largest := uint32(0) // frames close at the 1 MB target, so one record did this
		for _, m := range s.meta[i:j] {
			largest = max(largest, m.keyLen+m.valLen)
		}
		return fmt.Errorf("mapreduce: segment file %s: a %d-byte record makes a %d-byte frame, over the %d-byte frame cap",
			w.path, largest, size, w.frameCap)
	}
	crc := crc32.ChecksumIEEE(hdr)
	if _, err := w.bw.Write(hdr); err != nil {
		return err
	}
	for k := i; k < j; {
		lo := s.meta[k].off
		hi := lo
		for ; k < j && s.meta[k].off == hi; k++ {
			hi += s.meta[k].keyLen + s.meta[k].valLen
		}
		crc = crc32.Update(crc, crc32.IEEETable, s.data[lo:hi])
		if _, err := w.bw.Write(s.data[lo:hi]); err != nil {
			return err
		}
	}
	pm := &w.parts[len(w.parts)-1]
	pm.recs += int64(j - i)
	pm.rawPayload += int64(payload)
	pm.frames = append(pm.frames, frameInfo{off: w.off, storedLen: uint32(size), rawLen: uint32(size), crc: crc, codec: codecRaw})
	w.off += int64(size)
	return nil
}

// finish writes the index and trailer and closes the file, returning the
// validated handle.
func (w *spillWriter) finish() (*SegmentFile, error) {
	if w.open {
		if err := w.endPartition(); err != nil {
			return nil, err
		}
	}
	recycleScratch(&w.buf)
	var idx []byte
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(w.parts)))
	stored := int64(0)
	for i := range w.parts {
		pm := &w.parts[i]
		idx = binary.LittleEndian.AppendUint32(idx, uint32(len(pm.frames)))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(pm.recs))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(pm.rawPayload))
		for _, fi := range pm.frames {
			idx = binary.LittleEndian.AppendUint64(idx, uint64(fi.off))
			idx = binary.LittleEndian.AppendUint32(idx, fi.storedLen)
			idx = binary.LittleEndian.AppendUint32(idx, fi.rawLen)
			idx = binary.LittleEndian.AppendUint32(idx, fi.crc)
			idx = append(idx, fi.codec)
			stored += int64(fi.storedLen)
		}
	}
	if _, err := w.bw.Write(idx); err != nil {
		return nil, err
	}
	var tr [segTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(w.off))
	binary.LittleEndian.PutUint32(tr[8:12], uint32(len(idx)))
	binary.LittleEndian.PutUint32(tr[12:16], crc32.ChecksumIEEE(idx))
	binary.LittleEndian.PutUint32(tr[20:24], segFileVersion)
	binary.LittleEndian.PutUint32(tr[24:28], segFileMagic)
	if _, err := w.bw.Write(tr[:]); err != nil {
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		return nil, err
	}
	return &SegmentFile{path: w.path, parts: w.parts, storedBytes: stored}, nil
}

// abort closes and removes the partial file; for error paths.
func (w *spillWriter) abort() {
	recycleScratch(&w.buf)
	w.f.Close()
	os.Remove(w.path)
}

// WriteSegmentsFile writes one in-memory segment per partition to a new
// segment file at path — the dist worker's path for serving a map task's
// shuffle output from disk instead of resident blobs.
func WriteSegmentsFile(path string, parts []Segment) (*SegmentFile, error) {
	w, err := newSpillWriter(path)
	if err != nil {
		return nil, err
	}
	for _, s := range parts {
		w.beginPartition()
		if err := w.appendSegment(s); err != nil {
			w.abort()
			return nil, err
		}
		if err := w.endPartition(); err != nil {
			w.abort()
			return nil, err
		}
	}
	sf, err := w.finish()
	if err != nil {
		w.abort()
		return nil, err
	}
	return sf, nil
}

// frameSource is sequential access to one run's decoded frames, implemented
// by frameReader for a run on disk and by a resident run's one-frame
// residentSource (extmerge.go). Segments returned by next may alias
// source-owned scratch: they are invalidated by the following next call and
// by close.
type frameSource interface {
	next() (Segment, error)
	storedBytesRead() int64
	close() error
}

// frameReader is the one cursor over a partition on disk: it loads one frame
// at a time — ReadAt, CRC, decode — into recycled scratch. Nothing overlaps
// the read with the consumer: there is nothing to inflate, and the kernel
// already reads ahead on sequential ReadAt.
type frameReader struct {
	fh        *os.File
	frames    []frameInfo
	i         int           // next frame index
	buf       *frameScratch // current frame's bytes and metadata; nil once closed
	bytesRead int64         // stored bytes consumed, for spill-read accounting
}

// openPart returns a cursor over partition p. The cursor owns its file
// handle and its scratch; callers must close it.
func (f *SegmentFile) openPart(p int) (*frameReader, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	return &frameReader{fh: fh, frames: f.parts[p].frames, buf: framePool.Get().(*frameScratch)}, nil
}

// next returns the next frame as a decoded Segment, or io.EOF after the
// last frame. The segment aliases the reader's scratch.
func (r *frameReader) next() (Segment, error) {
	if r.i >= len(r.frames) {
		return Segment{}, io.EOF
	}
	fi := r.frames[r.i]
	r.i++
	r.buf.room(int(fi.storedLen))
	raw, err := readFrame(r.fh, fi, r.buf.data)
	if err != nil {
		return Segment{}, err
	}
	r.bytesRead += int64(fi.storedLen)
	seg, err := decodeSegment(raw, r.buf.meta)
	if err != nil {
		return Segment{}, fmt.Errorf("%w: frame at offset %d: %v", ErrSegmentCorrupt, fi.off, err)
	}
	if seg.meta != nil {
		r.buf.meta = seg.meta
	}
	return seg, nil
}

func (r *frameReader) storedBytesRead() int64 { return r.bytesRead }
func (r *frameReader) close() error           { return r.Close() }

// Close hands the scratch back to the pool — once, however often it is
// called — and releases the file handle.
func (r *frameReader) Close() error {
	recycleScratch(&r.buf)
	return r.fh.Close()
}

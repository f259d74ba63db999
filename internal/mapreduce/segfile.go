package mapreduce

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"heterohadoop/internal/units"
)

// segfile.go is the on-disk form of spilled segments: the out-of-core
// counterpart of the in-memory arena Segment. A segment file holds one or
// more partitions, each a sorted run of records chunked into independently
// compressed, CRC-checksummed frames whose raw content is exactly the
// wire.go segment encoding — so a frame read back from disk decodes with
// the same DecodeSegment the shuffle wire path uses, and any contiguous
// frame sequence of a partition is itself a valid sorted run (frames chunk
// the record stream, never split a record).
//
// Layout, little-endian throughout:
//
//	frame bytes            stored (possibly compressed) frames, partition
//	                       by partition in frame order
//	index                  u32 nparts, then per partition:
//	                         u32 nframes, u64 recs, u64 rawPayload
//	                         nframes × (u64 off, u32 storedLen, u32 rawLen,
//	                                    u32 crc32(stored), u8 codec)
//	trailer (28 bytes)     u64 indexOff, u32 indexLen, u32 crc32(index),
//	                       u32 version, u32 magic "GSHH"
//
// The index and trailer sit at the end so the writer streams frames
// sequentially without knowing partition shapes upfront. Readers validate
// the trailer magic/version, the index CRC, and every frame's CRC before
// decompressing; all failure modes surface as ErrSegmentCorrupt or
// ErrSegmentTruncated, never a panic — a serving worker maps them to a
// failed fetch so the master re-runs the owning map.

// Typed failure classes for on-disk segment files, matchable with
// errors.Is. Truncated means the file ends before the bytes the trailer or
// index promised; corrupt means the bytes are there but fail validation
// (bad magic, CRC mismatch, codec/decode errors, implausible lengths).
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

	codecRaw   = 0 // frame stored verbatim
	codecFlate = 1 // frame stored DEFLATE-compressed (flate.BestSpeed)

	// spillFrameRaw is the target raw (uncompressed) frame size. Frames
	// bound both the writer's buffering and a reader cursor's resident
	// memory, and are the unit of the dist shuffle's offset cursor.
	spillFrameRaw = 1 << 20

	// maxFrameStored caps a single frame's stored and raw lengths so a
	// corrupt index cannot make a reader allocate unbounded memory before
	// CRC validation catches it.
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

// StoredBytes returns the total on-disk frame payload (compressed bytes),
// the quantity spill-write counters account.
func (f *SegmentFile) StoredBytes() units.Bytes { return units.Bytes(f.storedBytes) }

// Remove deletes the file from disk. The handle must not be read after.
func (f *SegmentFile) Remove() error { return os.Remove(f.path) }

// ReadFrame returns partition p's frame i as a freshly allocated,
// CRC-verified, decompressed wire-format segment blob (decodable with
// DecodeSegment) — the dist worker's random-access path for serving one
// shuffle frame per fetch.
func (f *SegmentFile) ReadFrame(p, i int) ([]byte, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	raw, err := readFrame(fh, f.parts[p].frames[i], nil, nil)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out, nil
}

// readFrame reads and validates one stored frame, returning the raw wire
// bytes. storedBuf and rawBuf are reusable scratch (grown as needed); the
// result aliases one of them, valid until the next call with the same
// scratch.
func readFrame(fh *os.File, fi frameInfo, storedBuf, rawBuf []byte) ([]byte, error) {
	stored := storedBuf
	if cap(stored) < int(fi.storedLen) {
		stored = make([]byte, fi.storedLen)
	}
	stored = stored[:fi.storedLen]
	if _, err := fh.ReadAt(stored, fi.off); err != nil {
		return nil, fmt.Errorf("%w: frame at offset %d: %v", ErrSegmentTruncated, fi.off, err)
	}
	if crc := crc32.ChecksumIEEE(stored); crc != fi.crc {
		return nil, fmt.Errorf("%w: frame at offset %d: crc %08x, want %08x", ErrSegmentCorrupt, fi.off, crc, fi.crc)
	}
	switch fi.codec {
	case codecRaw:
		if int(fi.rawLen) != len(stored) {
			return nil, fmt.Errorf("%w: raw frame at offset %d: stored %d bytes, index says %d",
				ErrSegmentCorrupt, fi.off, len(stored), fi.rawLen)
		}
		return stored, nil
	case codecFlate:
		raw := rawBuf
		if cap(raw) < int(fi.rawLen) {
			raw = make([]byte, fi.rawLen)
		}
		raw = raw[:fi.rawLen]
		fr := flate.NewReader(bytes.NewReader(stored))
		if _, err := io.ReadFull(fr, raw); err != nil {
			return nil, fmt.Errorf("%w: frame at offset %d: inflate: %v", ErrSegmentCorrupt, fi.off, err)
		}
		// One extra read distinguishes "exactly rawLen" from "more".
		var one [1]byte
		if n, _ := fr.Read(one[:]); n != 0 {
			return nil, fmt.Errorf("%w: frame at offset %d: inflates past index rawLen %d",
				ErrSegmentCorrupt, fi.off, fi.rawLen)
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("%w: frame at offset %d: unknown codec %d", ErrSegmentCorrupt, fi.off, fi.codec)
	}
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

// spillWriter streams records into a new segment file: frames are
// accumulated in an arena, compressed and flushed at spillFrameRaw, and
// the index is written behind them at finish. Usage:
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

	frame arena        // records of the frame being accumulated
	enc   []byte       // wire-encode scratch
	comp  bytes.Buffer // compressed-frame scratch
	fw    *flate.Writer
}

// newSpillWriter creates the file (truncating any previous content at the
// same path — re-run attempts overwrite their predecessor).
func newSpillWriter(path string) (*spillWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spillWriter{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

// beginPartition starts the next partition.
func (w *spillWriter) beginPartition() {
	w.parts = append(w.parts, segPartMeta{})
	w.open = true
}

// append adds one record to the open partition, flushing a frame when the
// accumulated raw payload reaches the frame target. The caller keeps
// ownership of key and value.
func (w *spillWriter) append(key, value []byte) error {
	w.frame.appendBytes(key, value)
	if len(w.frame.data) >= spillFrameRaw {
		return w.flushFrame()
	}
	return nil
}

// appendSegment writes a whole in-memory sorted run into the open
// partition, slicing it into target-sized frames encoded straight from the
// source segment (no intermediate record copy). Callers must append whole
// runs in sorted order relative to other appends to the same partition.
func (w *spillWriter) appendSegment(s Segment) error {
	// Drain any partial frame first so frame boundaries stay record-aligned
	// and in record order.
	if w.frame.seg().Len() > 0 {
		if err := w.flushFrame(); err != nil {
			return err
		}
	}
	for i, n := 0, s.Len(); i < n; {
		j, payload := i, 0
		for j < n && (payload == 0 || payload < spillFrameRaw) {
			m := s.meta[j]
			payload += int(m.keyLen + m.valLen)
			j++
		}
		w.enc = appendWireRange(w.enc[:0], s, i, j)
		pm := &w.parts[len(w.parts)-1]
		pm.recs += int64(j - i)
		pm.rawPayload += int64(payload)
		if err := w.writeFrame(w.enc); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// endPartition flushes the open partition's trailing partial frame.
func (w *spillWriter) endPartition() error {
	w.open = false
	if w.frame.seg().Len() == 0 {
		w.frame.reset()
		return nil
	}
	return w.flushFrame()
}

// flushFrame encodes, compresses and writes the accumulated frame arena.
func (w *spillWriter) flushFrame() error {
	s := w.frame.seg()
	w.enc = s.AppendEncoded(w.enc[:0])
	pm := &w.parts[len(w.parts)-1]
	pm.recs += int64(s.Len())
	pm.rawPayload += int64(len(s.data))
	w.frame.reset()
	return w.writeFrame(w.enc)
}

// writeFrame compresses raw (keeping it verbatim when DEFLATE does not
// shrink it), checksums the stored form, writes it and records the index
// entry.
func (w *spillWriter) writeFrame(raw []byte) error {
	stored, codec := raw, uint8(codecRaw)
	w.comp.Reset()
	if w.fw == nil {
		fw, err := flate.NewWriter(&w.comp, flate.BestSpeed)
		if err != nil {
			return err
		}
		w.fw = fw
	} else {
		w.fw.Reset(&w.comp)
	}
	if _, err := w.fw.Write(raw); err != nil {
		return err
	}
	if err := w.fw.Close(); err != nil {
		return err
	}
	if w.comp.Len() < len(raw) {
		stored, codec = w.comp.Bytes(), codecFlate
	}
	fi := frameInfo{
		off:       w.off,
		storedLen: uint32(len(stored)),
		rawLen:    uint32(len(raw)),
		crc:       crc32.ChecksumIEEE(stored),
		codec:     codec,
	}
	if _, err := w.bw.Write(stored); err != nil {
		return err
	}
	w.off += int64(len(stored))
	pm := &w.parts[len(w.parts)-1]
	pm.frames = append(pm.frames, fi)
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
	var idx []byte
	var u4 [4]byte
	var u8 [8]byte
	put32 := func(v uint32) { binary.LittleEndian.PutUint32(u4[:], v); idx = append(idx, u4[:]...) }
	put64 := func(v uint64) { binary.LittleEndian.PutUint64(u8[:], v); idx = append(idx, u8[:]...) }
	put32(uint32(len(w.parts)))
	stored := int64(0)
	for i := range w.parts {
		pm := &w.parts[i]
		put32(uint32(len(pm.frames)))
		put64(uint64(pm.recs))
		put64(uint64(pm.rawPayload))
		for _, fi := range pm.frames {
			put64(uint64(fi.off))
			put32(fi.storedLen)
			put32(fi.rawLen)
			put32(fi.crc)
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
	w.f.Close()
	os.Remove(w.path)
}

// appendWireRange appends records [i, j) of s in segment wire form — the
// range-restricted AppendEncoded, used to frame a large run without
// copying it through an intermediate arena.
func appendWireRange(dst []byte, s Segment, i, j int) []byte {
	var u [4]byte
	payload := 0
	for k := i; k < j; k++ {
		m := s.meta[k]
		payload += int(m.keyLen + m.valLen)
	}
	binary.LittleEndian.PutUint32(u[:], uint32(j-i))
	dst = append(dst, u[:]...)
	binary.LittleEndian.PutUint32(u[:], uint32(payload))
	dst = append(dst, u[:]...)
	for k := i; k < j; k++ {
		m := s.meta[k]
		binary.LittleEndian.PutUint32(u[:], m.keyLen)
		dst = append(dst, u[:]...)
		binary.LittleEndian.PutUint32(u[:], m.valLen)
		dst = append(dst, u[:]...)
	}
	for k := i; k < j; k++ {
		dst = append(dst, s.key(k)...)
		dst = append(dst, s.val(k)...)
	}
	return dst
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

// frameReader is a sequential cursor over one partition's frames: it loads
// one decompressed frame at a time into reused scratch. Segments returned
// by next alias that scratch and are invalidated by the following call.
type frameReader struct {
	fh        *os.File
	sf        *SegmentFile
	part      int
	i         int // next frame index
	stored    []byte
	raw       []byte
	bytesRead int64 // stored bytes consumed, for spill-read accounting
}

// openPart returns a cursor over partition p. The cursor owns its file
// handle; callers must Close it.
func (f *SegmentFile) openPart(p int) (*frameReader, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	return &frameReader{fh: fh, sf: f, part: p}, nil
}

// next returns the next frame as a decoded Segment, or io.EOF after the
// last frame. The segment aliases the reader's scratch.
func (r *frameReader) next() (Segment, error) {
	frames := r.sf.parts[r.part].frames
	if r.i >= len(frames) {
		return Segment{}, io.EOF
	}
	fi := frames[r.i]
	r.i++
	if cap(r.stored) < int(fi.storedLen) {
		r.stored = make([]byte, fi.storedLen)
	}
	if cap(r.raw) < int(fi.rawLen) {
		r.raw = make([]byte, fi.rawLen)
	}
	raw, err := readFrame(r.fh, fi, r.stored[:0], r.raw[:0])
	if err != nil {
		return Segment{}, err
	}
	r.bytesRead += int64(fi.storedLen)
	seg, err := DecodeSegment(raw)
	if err != nil {
		return Segment{}, fmt.Errorf("%w: frame at offset %d: %v", ErrSegmentCorrupt, fi.off, err)
	}
	return seg, nil
}

// Close releases the cursor's file handle.
func (r *frameReader) Close() error { return r.fh.Close() }

// frameSource is sequential access to one run's decoded frames, implemented
// by the plain frameReader, by the readahead reader that validates and
// inflates frame k+1 while the consumer drains frame k, and by a resident
// run's one-frame residentSource (extmerge.go). Segments returned by next may
// alias source-owned scratch and are invalidated by the following next call.
type frameSource interface {
	next() (Segment, error)
	storedBytesRead() int64
	close() error
}

func (r *frameReader) storedBytesRead() int64 { return r.bytesRead }
func (r *frameReader) close() error           { return r.Close() }

// openFrameSource returns the best frame source for partition p: the
// readahead-pipelined reader when the partition has at least two frames to
// overlap, the plain sequential reader otherwise (a single-frame run has
// nothing to pipeline, so it skips the goroutine).
func (f *SegmentFile) openFrameSource(p int) (frameSource, error) {
	if len(f.parts[p].frames) >= 2 {
		return f.openReadahead(p)
	}
	return f.openPart(p)
}

// readaheadSlots is the pipelined reader's scratch-ring depth: one frame
// held by the consumer, one in the hand-off channel, one being read and
// inflated — so the reader keeps at most three decompressed frames
// resident, a bounded constant the SpillMemory accounting tolerates the
// same way it tolerates the single-frame scratch of the plain reader.
const readaheadSlots = 3

// readaheadFrame is one decoded frame handed from the readahead goroutine
// to its consumer. read carries the cumulative stored bytes through this
// frame so the consumer's accounting counts only frames actually consumed,
// matching the sequential reader's semantics exactly.
type readaheadFrame struct {
	seg  Segment
	slot int
	read int64
	err  error
}

// readaheadReader is the pipelined frameSource: a goroutine reads,
// CRC-validates, inflates and decodes frames into a fixed ring of scratch
// slots and hands them over a one-deep channel, overlapping the next
// frame's disk read and decompression with the consumer's merge work.
type readaheadReader struct {
	fh     *os.File
	frames chan readaheadFrame
	free   chan int
	stop   chan struct{}
	done   chan struct{}

	cur      int   // slot the consumer currently holds, -1 when none
	consumed int64 // stored bytes of frames delivered to the consumer
	stopped  bool
}

// openReadahead starts a pipelined reader over partition p.
func (f *SegmentFile) openReadahead(p int) (*readaheadReader, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	r := &readaheadReader{
		fh:     fh,
		frames: make(chan readaheadFrame, 1),
		free:   make(chan int, readaheadSlots),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		cur:    -1,
	}
	for i := 0; i < readaheadSlots; i++ {
		r.free <- i
	}
	go r.run(f, p)
	return r, nil
}

// run is the readahead goroutine: it claims a free scratch slot, loads the
// next frame into it and hands it over, until the partition is exhausted,
// an error occurs (sent to the consumer, then the channel closes) or the
// consumer closes the reader.
func (r *readaheadReader) run(sf *SegmentFile, part int) {
	defer close(r.done)
	defer close(r.frames)
	var slots [readaheadSlots]struct{ stored, raw []byte }
	var read int64
	for _, fi := range sf.parts[part].frames {
		var slot int
		select {
		case slot = <-r.free:
		case <-r.stop:
			return
		}
		s := &slots[slot]
		if cap(s.stored) < int(fi.storedLen) {
			s.stored = make([]byte, fi.storedLen)
		}
		if cap(s.raw) < int(fi.rawLen) {
			s.raw = make([]byte, fi.rawLen)
		}
		raw, err := readFrame(r.fh, fi, s.stored[:0], s.raw[:0])
		var seg Segment
		if err == nil {
			read += int64(fi.storedLen)
			seg, err = DecodeSegment(raw)
			if err != nil {
				err = fmt.Errorf("%w: frame at offset %d: %v", ErrSegmentCorrupt, fi.off, err)
			}
		}
		select {
		case r.frames <- readaheadFrame{seg: seg, slot: slot, read: read, err: err}:
		case <-r.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// next returns the next decoded frame, or io.EOF after the last one. The
// segment aliases ring scratch owned by the frame's slot; the slot is not
// recycled until the following next call, so the segment stays valid
// exactly as long as the sequential reader's would.
func (r *readaheadReader) next() (Segment, error) {
	if r.cur >= 0 {
		r.free <- r.cur
		r.cur = -1
	}
	f, ok := <-r.frames
	if !ok {
		return Segment{}, io.EOF
	}
	if f.err != nil {
		return Segment{}, f.err
	}
	r.cur = f.slot
	r.consumed = f.read
	return f.seg, nil
}

func (r *readaheadReader) storedBytesRead() int64 { return r.consumed }

// close stops the readahead goroutine, waits for it to exit and releases
// the file handle. Safe to call more than once.
func (r *readaheadReader) close() error {
	if !r.stopped {
		r.stopped = true
		close(r.stop)
		// Drain the hand-off channel so a goroutine blocked on send observes
		// the stop and exits; the loop ends when it closes the channel.
		for range r.frames {
		}
		<-r.done
	}
	return r.fh.Close()
}

package mapreduce

import (
	"bytes"

	"heterohadoop/internal/units"
)

// arena.go implements the engine's flat record representation, mirroring
// Hadoop's MapOutputBuffer (the structure behind io.sort.mb): records live
// key-then-value in one contiguous byte buffer, and per-record metadata —
// offset plus key/value lengths — lives in a parallel slice. Sorting a run
// (sortbuf.go) reorders only the 12-byte metadata entries, reading key
// bytes in place; no per-record KV object, string header or interface
// value is ever allocated on the hot path. Go compares strings byte-wise,
// so ordering by bytes.Compare over key bytes is exactly the ordering the
// legacy []KV path produced with sorted[i].Key < sorted[j].Key.

// recordOverhead is the per-record framing charge Hadoop adds in its
// buffers (key/value lengths and partition metadata); KV.Bytes and the
// arena path must agree on it so counters stay byte-identical.
const recordOverhead = 8

// recMeta locates one record inside a segment's data buffer: the key
// starts at off, the value immediately follows it. Offsets are uint32, so
// a single arena is bounded at 4 GiB; Config.Validate refuses a sort
// buffer that would let one grow past that before it spills.
type recMeta struct {
	off    uint32
	keyLen uint32
	valLen uint32
}

// Segment is an immutable sorted run of records in flat form: one
// contiguous data buffer plus per-record metadata. It is the unit the
// spill, merge, shuffle and wire layers all carry — where the legacy
// engine passed []KV, the arena engine passes Segment.
//
// Invariant: data holds exactly the records' payload bytes, in metadata
// order for freshly built segments (len(data) == Σ keyLen+valLen), so
// accounting is O(1).
type Segment struct {
	data []byte
	meta []recMeta
}

// Len returns the record count.
func (s Segment) Len() int { return len(s.meta) }

// key returns record i's key bytes, aliasing the segment's buffer.
func (s Segment) key(i int) []byte {
	m := s.meta[i]
	return s.data[m.off : m.off+m.keyLen : m.off+m.keyLen]
}

// val returns record i's value bytes, aliasing the segment's buffer.
func (s Segment) val(i int) []byte {
	m := s.meta[i]
	start := m.off + m.keyLen
	return s.data[start : start+m.valLen : start+m.valLen]
}

// groupEnd returns the end of the run of records whose key equals record
// i's: the index of the first record after i with a different key, or Len.
func (s Segment) groupEnd(i int) int {
	k := s.key(i)
	j := i + 1
	for j < len(s.meta) && bytes.Equal(s.key(j), k) {
		j++
	}
	return j
}

// Bytes returns the run's accounting size — the sum of KV.Bytes over its
// records — in O(1) via the payload-exactness invariant.
func (s Segment) Bytes() units.Bytes {
	return units.Bytes(len(s.data) + recordOverhead*len(s.meta))
}

// KVs materializes the run as []KV (string records) — the boundary back
// into the public Result/string world, paid once per final output.
func (s Segment) KVs() []KV {
	if len(s.meta) == 0 {
		return nil
	}
	out := make([]KV, len(s.meta))
	for i := range s.meta {
		out[i] = KV{Key: string(s.key(i)), Value: string(s.val(i))}
	}
	return out
}

// clone copies the segment into exactly-sized fresh buffers, detaching it
// from any pooled arena it aliases. Cost: two allocations regardless of
// record count.
func (s Segment) clone() Segment {
	if len(s.meta) == 0 {
		return Segment{}
	}
	data := make([]byte, len(s.data))
	copy(data, s.data)
	meta := make([]recMeta, len(s.meta))
	copy(meta, s.meta)
	return Segment{data: data, meta: meta}
}

// SegmentFromKVs builds a flat segment from string records — the boundary
// from the public []KV world into the arena engine (tests, wire compat).
func SegmentFromKVs(kvs []KV) Segment {
	var a arena
	size := 0
	for _, kv := range kvs {
		size += len(kv.Key) + len(kv.Value)
	}
	a.grow(size, len(kvs))
	for _, kv := range kvs {
		a.append(kv.Key, kv.Value)
	}
	return a.seg()
}

// arena is the mutable builder behind Segment: an append-only record
// buffer, reused across tasks through the slot's taskBufs.
type arena struct {
	data []byte
	meta []recMeta
}

// grow pre-sizes the arena for the given payload bytes and record count.
func (a *arena) grow(dataBytes, nrecs int) {
	if cap(a.data)-len(a.data) < dataBytes {
		grown := make([]byte, len(a.data), len(a.data)+dataBytes)
		copy(grown, a.data)
		a.data = grown
	}
	if cap(a.meta)-len(a.meta) < nrecs {
		grown := make([]recMeta, len(a.meta), len(a.meta)+nrecs)
		copy(grown, a.meta)
		a.meta = grown
	}
}

// append copies one string record into the arena.
func (a *arena) append(key, value string) {
	off := uint32(len(a.data))
	a.data = append(a.data, key...)
	a.data = append(a.data, value...)
	a.meta = append(a.meta, recMeta{off: off, keyLen: uint32(len(key)), valLen: uint32(len(value))})
}

// appendBytes copies one byte record into the arena. The caller keeps
// ownership of key and value and may reuse them immediately.
func (a *arena) appendBytes(key, value []byte) {
	off := uint32(len(a.data))
	a.data = append(a.data, key...)
	a.data = append(a.data, value...)
	a.meta = append(a.meta, recMeta{off: off, keyLen: uint32(len(key)), valLen: uint32(len(value))})
}

// sink is appendBytes in the shape the merge and the reduce loop emit into.
func (a *arena) sink(key, value []byte) error {
	a.appendBytes(key, value)
	return nil
}

// reset empties the arena, keeping its capacity.
func (a *arena) reset() {
	a.data = a.data[:0]
	a.meta = a.meta[:0]
}

// seg returns the arena's current contents as a Segment view. The view
// aliases the arena's buffers and is invalidated by reset or further
// appends.
func (a *arena) seg() Segment { return Segment{data: a.data, meta: a.meta} }

// ValueIter streams one key group's values to a Reducer. The iterator is
// only valid during the ReduceStream call it is passed to, and the byte
// slices it yields alias the engine's buffers: copy anything that must
// outlive the call.
type ValueIter struct {
	seg  Segment
	i, j int // remaining records: [i, j)
}

// Next returns the next value's bytes, or false when the group is
// exhausted.
func (it *ValueIter) Next() ([]byte, bool) {
	if it.i >= it.j {
		return nil, false
	}
	v := it.seg.val(it.i)
	it.i++
	return v, true
}

package mapreduce

import (
	"encoding/binary"
	"fmt"
)

// wire.go is the binary wire format for shuffle segments. The distributed
// runtime used to ship segments as []KV through gob, which reflects over
// every record and allocates two string headers per KV on decode; the
// binary form is a single length-prefixed blob that encodes in one
// sequential write and decodes zero-copy (the record payload aliases the
// received buffer, only the metadata slice is built).
//
// Layout, little-endian throughout:
//
//	u32  record count n
//	u32  payload length (Σ keyLen+valLen)
//	n ×  (u32 keyLen, u32 valLen)
//	payload bytes, records in order, key then value
const segHeaderSize = 8

// EncodedSize returns the segment's exact wire size in bytes.
func (s Segment) EncodedSize() int {
	return segHeaderSize + 8*len(s.meta) + len(s.data)
}

// AppendEncoded appends the segment's wire form to dst and returns the
// extended slice.
func (s Segment) AppendEncoded(dst []byte) []byte {
	return append(s.AppendHeader(dst), s.data...)
}

// AppendHeader appends the segment's wire form up to its payload — the
// record count, the payload length and the length table — to dst. Writing
// it and then Payload produces the wire form without copying the payload.
func (s Segment) AppendHeader(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.meta)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.data)))
	for _, m := range s.meta {
		dst = binary.LittleEndian.AppendUint32(dst, m.keyLen)
		dst = binary.LittleEndian.AppendUint32(dst, m.valLen)
	}
	return dst
}

// Payload returns the segment's record bytes, the tail of its wire form. It
// aliases the segment and must not be modified.
func (s Segment) Payload() []byte { return s.data }

// EncodeSegment returns the segment's wire form as a fresh, exactly-sized
// buffer.
func EncodeSegment(s Segment) []byte {
	return s.AppendEncoded(make([]byte, 0, s.EncodedSize()))
}

// DecodeSegment parses a wire-form segment. The returned segment's record
// payload aliases buf — no copy — so buf must stay immutable for the
// segment's lifetime; only the metadata slice is allocated.
func DecodeSegment(buf []byte) (Segment, error) { return decodeSegment(buf, nil) }

// decodeSegment is DecodeSegment building the metadata in scratch's backing
// array when it is large enough (a disk cursor decodes frame after frame into
// the same one).
func decodeSegment(buf []byte, scratch []recMeta) (Segment, error) {
	if len(buf) < segHeaderSize {
		return Segment{}, fmt.Errorf("mapreduce: segment blob too short: %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	payloadLen := int(binary.LittleEndian.Uint32(buf[4:8]))
	want := segHeaderSize + 8*n + payloadLen
	if len(buf) != want {
		return Segment{}, fmt.Errorf("mapreduce: segment blob is %d bytes, header says %d (%d records, %d payload)",
			len(buf), want, n, payloadLen)
	}
	if n == 0 {
		if payloadLen != 0 {
			return Segment{}, fmt.Errorf("mapreduce: segment has no records but %d payload bytes", payloadLen)
		}
		return Segment{}, nil
	}
	meta := scratch
	if cap(meta) < n {
		meta = make([]recMeta, n)
	}
	meta = meta[:n]
	// The sum runs in int: record lengths that wrap a uint32 around must not
	// add up to the header's payload length.
	off := 0
	lens := buf[segHeaderSize:]
	for i := 0; i < n; i++ {
		kl := binary.LittleEndian.Uint32(lens[8*i:])
		vl := binary.LittleEndian.Uint32(lens[8*i+4:])
		meta[i] = recMeta{off: uint32(off), keyLen: kl, valLen: vl}
		off += int(kl) + int(vl)
	}
	if off != payloadLen {
		return Segment{}, fmt.Errorf("mapreduce: segment record lengths sum to %d, header says %d payload", off, payloadLen)
	}
	payload := buf[segHeaderSize+8*n:]
	return Segment{data: payload[:payloadLen:payloadLen], meta: meta}, nil
}

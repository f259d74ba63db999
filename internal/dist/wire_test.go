package dist

// wire_test.go pins the binary segment wire format the byte endpoint's
// replies carry (map output to reducers, reduce output to the master):
// every record shape must round-trip exactly (including the zero-record
// blob of an empty partition), the segment's accounting bytes must equal
// the sum of its records' KV.Bytes, and corrupt blobs and replies must be
// rejected rather than mis-framed. BenchmarkSegmentEncode measures the
// format against the gob []KV encoding it replaced.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

func TestSegmentWireRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		kvs  []mapreduce.KV
	}{
		{"empty partition", nil},
		{"single record", []mapreduce.KV{{Key: "k", Value: "v"}}},
		{"empty key", []mapreduce.KV{{Key: "", Value: "v"}}},
		{"empty value", []mapreduce.KV{{Key: "k", Value: ""}}},
		{"empty key and value", []mapreduce.KV{{Key: "", Value: ""}}},
		{"multi-KB key", []mapreduce.KV{{Key: strings.Repeat("K", 64*1024), Value: "v"}}},
		{"non-UTF8 bytes", []mapreduce.KV{{Key: "\xff\xfe\x80", Value: "\x00\xc3\x28"}}},
		{"duplicate keys", []mapreduce.KV{{Key: "d", Value: "1"}, {Key: "d", Value: "2"}, {Key: "d", Value: "3"}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seg := mapreduce.SegmentFromKVs(tc.kvs)
			blob := mapreduce.EncodeSegment(seg)
			if got := seg.EncodedSize(); got != len(blob) {
				t.Fatalf("EncodedSize = %d, encoded blob is %d bytes", got, len(blob))
			}

			var kvBytes units.Bytes
			for _, kv := range tc.kvs {
				kvBytes += kv.Bytes()
			}
			if seg.Bytes() != kvBytes {
				t.Fatalf("Segment.Bytes = %d, sum of KV.Bytes = %d", seg.Bytes(), kvBytes)
			}

			dec, err := mapreduce.DecodeSegment(blob)
			if err != nil {
				t.Fatalf("DecodeSegment: %v", err)
			}
			if dec.Len() != len(tc.kvs) {
				t.Fatalf("decoded Len = %d, want %d", dec.Len(), len(tc.kvs))
			}
			got := dec.KVs()
			if len(tc.kvs) == 0 {
				if got != nil {
					t.Fatalf("decoded empty segment yields %d records", len(got))
				}
				return
			}
			if !reflect.DeepEqual(got, tc.kvs) {
				t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, tc.kvs)
			}
		})
	}
}

// TestSegmentWireEmptyPartitionMarker pins the coverage-marker contract:
// an empty partition's blob is exactly the 8-byte header and decodes to the
// zero segment.
func TestSegmentWireEmptyPartitionMarker(t *testing.T) {
	blob := mapreduce.EncodeSegment(mapreduce.Segment{})
	if len(blob) != 8 {
		t.Fatalf("empty segment encodes to %d bytes, want the 8-byte header", len(blob))
	}
	seg, err := mapreduce.DecodeSegment(blob)
	if err != nil || seg.Len() != 0 {
		t.Fatalf("DecodeSegment(empty) = (Len %d, %v), want the zero segment", seg.Len(), err)
	}
}

// TestSegmentWireRejectsCorruptBlobs checks that framing damage surfaces
// as a decode error instead of silently mis-parsed records.
func TestSegmentWireRejectsCorruptBlobs(t *testing.T) {
	good := mapreduce.EncodeSegment(mapreduce.SegmentFromKVs([]mapreduce.KV{
		{Key: "alpha", Value: "1"}, {Key: "beta", Value: "2"},
	}))
	corrupt := map[string][]byte{
		"truncated header":        good[:4],
		"truncated meta":          good[:10],
		"truncated payload":       good[:len(good)-3],
		"trailing garbage":        append(append([]byte(nil), good...), 0xEE),
		"payload without records": {0, 0, 0, 0, 1, 0, 0, 0, 'x'},
		"length mismatch": func() []byte {
			b := append([]byte(nil), good...)
			b[8]++ // first record's key length no longer sums to the payload length
			return b
		}(),
	}
	for name, blob := range corrupt {
		if _, err := mapreduce.DecodeSegment(blob); err == nil {
			t.Errorf("%s: DecodeSegment accepted a corrupt blob", name)
		}
	}
}

// FuzzFrameReader treats a reply stream as untrusted input: arbitrary bytes
// parse or fail with an error, never a panic or a hang, and a parsed frame
// is a valid segment whose wire form is exactly the frame. A short frame, a
// frame longer than the limit, and a frame whose segment header disagrees
// with its length are errors.
func FuzzFrameReader(f *testing.F) {
	seg := mapreduce.SegmentFromKVs([]mapreduce.KV{{Key: "alpha", Value: "1"}, {Key: "beta", Value: "2"}})
	for _, fr := range []struct {
		seg  mapreduce.Segment
		blob []byte
		more bool
	}{{seg: seg}, {seg: seg, more: true}, {}, {blob: mapreduce.EncodeSegment(seg)}} {
		var buf bytes.Buffer
		if err := writeReply(&buf, fr.seg, fr.blob, fr.more, true); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(make([]byte, replyHeaderSize))
	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		got, blob, _, err := readReply(bytes.NewReader(data), limit)
		if err != nil {
			return
		}
		if len(blob) > limit || !bytes.Equal(mapreduce.EncodeSegment(got), blob) {
			t.Fatalf("accepted a %d-byte frame that is not its segment's wire form", len(blob))
		}
		got.KVs()
		n := replyHeaderSize + len(blob)
		if _, _, _, err := readReply(bytes.NewReader(data[:n-1]), limit); err == nil {
			t.Error("a short frame parses")
		}
		if len(blob) > 0 {
			if _, _, _, err := readReply(bytes.NewReader(data[:n]), len(blob)-1); err == nil {
				t.Error("a frame over the limit parses")
			}
		}
		longer := append(append([]byte(nil), data[:n]...), 0)
		binary.LittleEndian.PutUint32(longer[2:], uint32(len(blob)+1))
		if _, _, _, err := readReply(bytes.NewReader(longer), limit); err == nil {
			t.Error("a frame longer than its segment header says parses")
		}
	})
}

// benchKVs builds a realistic shuffle partition: wordcount records over
// Zipf text.
func benchKVs(b *testing.B) []mapreduce.KV {
	b.Helper()
	var kvs []mapreduce.KV
	for _, line := range strings.Split(string(workloads.GenerateText(256*units.KB, 11)), "\n") {
		for _, w := range strings.Fields(line) {
			kvs = append(kvs, mapreduce.KV{Key: w, Value: "1"})
		}
	}
	if len(kvs) == 0 {
		b.Fatal("no benchmark records generated")
	}
	return kvs
}

// BenchmarkSegmentEncode compares a shuffle segment's round trip through
// the binary wire format against the gob []KV encoding the runtime used
// before: gob reflects over every record and allocates two string headers
// per KV on decode, the binary form decodes zero-copy.
func BenchmarkSegmentEncode(b *testing.B) {
	kvs := benchKVs(b)
	seg := mapreduce.SegmentFromKVs(kvs)

	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(seg.EncodedSize()))
		for i := 0; i < b.N; i++ {
			blob := mapreduce.EncodeSegment(seg)
			dec, err := mapreduce.DecodeSegment(blob)
			if err != nil {
				b.Fatal(err)
			}
			if dec.Len() != len(kvs) {
				b.Fatalf("decoded %d records, want %d", dec.Len(), len(kvs))
			}
		}
	})

	b.Run("gob", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(seg.EncodedSize()))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(kvs); err != nil {
				b.Fatal(err)
			}
			var dec []mapreduce.KV
			if err := gob.NewDecoder(&buf).Decode(&dec); err != nil {
				b.Fatal(err)
			}
			if len(dec) != len(kvs) {
				b.Fatalf("decoded %d records, want %d", len(dec), len(kvs))
			}
		}
	})
}

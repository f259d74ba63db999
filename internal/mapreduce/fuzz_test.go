package mapreduce

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSplitRecords fuzzes the LineRecordReader invariant: for any input
// bytes and any block size, splitting the data into block-aligned ranges
// and reading each range's records yields every non-empty line exactly
// once, in order.
func FuzzSplitRecords(f *testing.F) {
	f.Add([]byte("hello\nworld\n"), uint8(4))
	f.Add([]byte("\n\n\n"), uint8(1))
	f.Add([]byte("no trailing newline"), uint8(7))
	f.Add([]byte("a\nbb\nccc\ndddd\neeeee\n"), uint8(3))
	f.Add([]byte{}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, bsRaw uint8) {
		// Normalize NUL to newline so arbitrary bytes form lines too.
		data = bytes.ReplaceAll(data, []byte{0}, []byte{'\n'})
		bs := int(bsRaw%64) + 1
		var got []string
		for start := 0; start < len(data); start += bs {
			end := start + bs
			if end > len(data) {
				end = len(data)
			}
			got = append(got, windowLines(data, start, end)...)
		}
		var want []string
		for _, l := range strings.Split(string(data), "\n") {
			if l != "" {
				want = append(want, l)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("bs=%d: %d records, want %d (%q)", bs, len(got), len(want), data)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bs=%d: record %d = %q, want %q", bs, i, got[i], want[i])
			}
		}
	})
}

// FuzzSplitInput fuzzes the chunking helper used by the distributed
// runtime: chunks must cover the input exactly and each non-final chunk
// must end on a record boundary.
func FuzzSplitInput(f *testing.F) {
	f.Add([]byte("a\nbb\nccc\n"), uint8(2))
	f.Add([]byte("one long line without newline"), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, bsRaw uint8) {
		bs := int(bsRaw%32) + 1
		chunks := SplitInput(data, bs)
		var rejoined []byte
		for i, c := range chunks {
			if len(c) == 0 {
				t.Fatal("empty chunk")
			}
			if i < len(chunks)-1 && c[len(c)-1] != '\n' {
				t.Fatalf("chunk %d not newline-terminated", i)
			}
			rejoined = append(rejoined, c...)
		}
		if !bytes.Equal(rejoined, data) {
			t.Fatal("chunks do not re-join to the input")
		}
	})
}

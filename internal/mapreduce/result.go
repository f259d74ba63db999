package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// result.go is the public face of a finished job. Since the output path
// went arena-backed, a Result carries its records as flat per-partition
// runs — in memory for ordinary jobs, or as single-partition segment files
// for out-of-core runs (Config.SpillDir) — and only materializes string
// records when a caller actually asks for them. The engine itself never
// builds a KV on the hot path; the []KV world starts here, on demand.

// Result is the outcome of a job run. Output records are held as flat
// per-partition runs (one per reduce partition); Output and SortedOutput
// materialize string records on demand, so jobs whose callers consume
// counters, segments or materialized bytes never pay a per-record
// allocation.
//
// Out-of-core runs leave their reduce outputs on disk: stream them with
// MaterializeOutputTo, or let Partition materialize (and cache) them. Call
// Close when done with such a result to remove its spill directory;
// in-memory results make Close a no-op.
type Result struct {
	// Counters are the aggregated job statistics.
	Counters Counters

	parts []partRun
	// spillRoot is the run's spill directory when the reduce outputs are
	// file-backed; removed by Close.
	spillRoot string
	closed    bool
}

// NewResult builds a Result from per-partition flat segments — the
// constructor distributed runtimes use after decoding wire-form reduce
// outputs. The segments are retained, not copied.
func NewResult(partitions []Segment, c Counters) *Result {
	return &Result{Counters: c, parts: memRuns(partitions)}
}

// ResultFromKVs builds a Result from string records, one slice per
// partition — the boundary from the legacy []KV world, kept for tests and
// synthetic results.
func ResultFromKVs(output [][]KV, c Counters) *Result {
	parts := make([]Segment, len(output))
	for i, p := range output {
		parts[i] = SegmentFromKVs(p)
	}
	return NewResult(parts, c)
}

// OutOfCore reports whether the result's partitions are backed by spill
// files on disk rather than resident memory.
func (r *Result) OutOfCore() bool { return r.spillRoot != "" }

// Close removes an out-of-core result's spill directory (reduce-output
// segment files included); reading file-backed partitions afterwards
// fails. Idempotent; a no-op for in-memory results.
func (r *Result) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.spillRoot == "" {
		return nil
	}
	return os.RemoveAll(r.spillRoot)
}

// Partition returns partition p's records as a flat segment, without
// materializing strings. File-backed partitions are materialized into
// memory on first access and cached; a read failure (e.g. using the
// result after Close) panics — use PartitionSeg where the error should be
// handled, or MaterializeOutputTo to stream without residency.
func (r *Result) Partition(p int) Segment {
	seg, err := r.PartitionSeg(p)
	if err != nil {
		panic(fmt.Sprintf("mapreduce: reading result partition %d: %v", p, err))
	}
	return seg
}

// PartitionSeg is Partition with the read error surfaced instead of
// panicking.
func (r *Result) PartitionSeg(p int) (Segment, error) {
	return r.parts[p].materialize()
}

// MaterializeOutputTo renders the result as "key<TAB>value" lines (the tab
// omitted for empty values), partitions in order, streaming file-backed
// partitions frame by frame — the bounded-memory way to consume an
// out-of-core result.
func (r *Result) MaterializeOutputTo(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<18)
	for _, run := range r.parts {
		src, err := run.open()
		if err != nil {
			return err
		}
		for {
			seg, err := src.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				src.close()
				return err
			}
			writeSegLines(bw, seg)
		}
		src.close()
	}
	return bw.Flush()
}

// writeSegLines appends one segment's records in output-line form.
func writeSegLines(bw *bufio.Writer, seg Segment) {
	for i, n := 0, seg.Len(); i < n; i++ {
		bw.Write(seg.key(i))
		if v := seg.val(i); len(v) > 0 {
			bw.WriteByte('\t')
			bw.Write(v)
		}
		bw.WriteByte('\n')
	}
}

// Output materializes the job output as string records, one sorted slice
// per reduce partition. Each call builds
// fresh slices; callers that only need bytes should use Partition or
// MaterializeOutputTo instead.
func (r *Result) Output() [][]KV {
	if r.parts == nil {
		return nil
	}
	out := make([][]KV, len(r.parts))
	for i := range r.parts {
		out[i] = r.Partition(i).KVs()
	}
	return out
}

// SortedOutput returns all output records globally sorted by key — a
// convenience for assertions and small outputs. Partitions are already
// sorted for the studied workloads, so the common case is the engine's k-way
// merge over them (O(n log k) byte comparisons); a partition whose
// reducer emitted out-of-order keys falls back to a global stable sort,
// preserving the legacy concatenate-then-sort semantics exactly.
func (r *Result) SortedOutput() []KV {
	parts := make([]Segment, len(r.parts))
	for i := range r.parts {
		parts[i] = r.Partition(i)
	}
	sorted := true
	for _, p := range parts {
		if !segmentSorted(p) {
			sorted = false
			break
		}
	}
	if sorted {
		// Stable merge with ties broken by run slot = partition order,
		// exactly what a stable sort over the concatenation produces.
		merged, err := mergeToSegment(r.parts)
		if err != nil {
			panic(fmt.Sprintf("mapreduce: merging result partitions: %v", err))
		}
		return merged.KVs()
	}
	var out []KV
	for _, p := range parts {
		out = append(out, p.KVs()...)
	}
	slices.SortStableFunc(out, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// segmentSorted reports whether the segment's keys are non-decreasing.
func segmentSorted(s Segment) bool {
	for i := 1; i < s.Len(); i++ {
		if bytes.Compare(s.key(i-1), s.key(i)) > 0 {
			return false
		}
	}
	return true
}

// GobEncode implements gob.GobEncoder. A result crosses a process boundary
// (net/rpc job submission) as one exactly sized buffer, little-endian:
//
//	u32  counters length, CountersSize
//	     the counters in AppendCounters' fixed form
//	u32  partition count
//	     each partition in the binary segment wire format
//
// so the string records are never materialized in transit, the payload is
// copied once and no gob coder is built per result. File-backed partitions
// are materialized for encoding.
func (r *Result) GobEncode() ([]byte, error) {
	parts := make([]Segment, len(r.parts))
	size := 4 + CountersSize + 4
	for i := range r.parts {
		p, err := r.PartitionSeg(i)
		if err != nil {
			return nil, err
		}
		parts[i] = p
		size += p.EncodedSize()
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, CountersSize)
	buf = AppendCounters(buf, r.Counters)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(parts)))
	for _, p := range parts {
		buf = p.AppendEncoded(buf)
	}
	return buf, nil
}

// GobDecode implements gob.GobDecoder, the inverse of GobEncode. gob keeps
// ownership of data, so the partitions region is copied once and every
// decoded partition aliases that copy. Truncation, trailing bytes and a
// partition whose header disagrees with its length are errors.
func (r *Result) GobDecode(data []byte) error {
	cn, rest, err := takeU32(data, "counters length")
	if err != nil {
		return err
	}
	if cn != CountersSize {
		return fmt.Errorf("mapreduce: result counters claim %d bytes, want %d", cn, CountersSize)
	}
	c, rest, err := DecodeCounters(rest)
	if err != nil {
		return fmt.Errorf("mapreduce: result counters: %w", err)
	}
	n, rest, err := takeU32(rest, "partition count")
	if err != nil {
		return err
	}
	if n > len(rest)/segHeaderSize {
		return fmt.Errorf("mapreduce: result claims %d partitions in %d bytes", n, len(rest))
	}
	var parts []partRun
	if n > 0 {
		parts = make([]partRun, n)
		rest = bytes.Clone(rest)
	}
	for i := range parts {
		if len(rest) < segHeaderSize {
			return fmt.Errorf("mapreduce: result partition %d: truncated header", i)
		}
		recs := int(binary.LittleEndian.Uint32(rest[0:4]))
		size := segHeaderSize + 8*recs + int(binary.LittleEndian.Uint32(rest[4:8]))
		if size > len(rest) {
			return fmt.Errorf("mapreduce: result partition %d: header says %d bytes, %d remain", i, size, len(rest))
		}
		seg, err := DecodeSegment(rest[:size])
		if err != nil {
			return fmt.Errorf("mapreduce: result partition %d: %w", i, err)
		}
		parts[i] = memRun(seg)
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("mapreduce: result has %d trailing bytes", len(rest))
	}
	*r = Result{Counters: c, parts: parts}
	return nil
}

// takeU32 splits a little-endian u32 (what names it, for the error) off buf.
func takeU32(buf []byte, what string) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("mapreduce: result truncated before its %s", what)
	}
	return int(binary.LittleEndian.Uint32(buf)), buf[4:], nil
}

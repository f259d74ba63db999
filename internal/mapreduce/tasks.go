package mapreduce

import (
	"fmt"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
)

// ExecuteMapSplit is ExecuteMapTask over one standalone record-aligned
// chunk as its input's only split, returning the resident output's
// per-partition sorted runs as flat segments.
func ExecuteMapSplit(job Job, chunk []byte, nparts int) ([]Segment, Counters, error) {
	out, c, err := ExecuteMapTask(job, chunk, 0, len(chunk), nparts, "", 0, obs.TaskRef{}, nil)
	if err != nil {
		return nil, c, err
	}
	segs := make([]Segment, len(out.runs))
	for i, r := range out.runs {
		segs[i] = r.seg
	}
	return segs, c, nil
}

// ExecuteMapTask is the engine's map task for a distributed runtime: split
// [start, end) of an input whose window win holds the bytes from absolute
// offset start that hdfs.ReadWindow returns, so the mapper sees absolute
// offsets. With spillDir "" the output stays resident; otherwise the sort
// buffer bounds the task's memory: every spill is a segment file in
// spillDir named for attempt (unique per directory), several merge into
// one, and a failed task leaves no file. Phase intervals are attributed to
// ref and emitted on o (nil costs nothing).
func ExecuteMapTask(job Job, win []byte, start, end, nparts int, spillDir string, attempt int, ref obs.TaskRef, o obs.Observer) (*MapOutput, Counters, error) {
	if err := job.Validate(); err != nil {
		return nil, Counters{}, err
	}
	if nparts < 1 {
		return nil, Counters{}, fmt.Errorf("mapreduce: %s: need at least one partition", job.Config.Name)
	}
	if job.Partitioner == nil {
		job.Partitioner = HashPartitioner()
	}
	var js *jobSpill
	if spillDir != "" {
		js = &jobSpill{dir: spillDir} // a budget of 0: no spill stays resident
	}
	bufs := bufsPool.Get().(*taskBufs)
	defer bufsPool.Put(bufs)
	runs, c, err := runMapTask(job, win, start, splitRange{start: start, end: end}, nparts, newPhaseClock(o, ref), bufs, js, attempt)
	if err != nil {
		return nil, c, err
	}
	return &MapOutput{runs: runs}, c, nil
}

// MapOutput is one map task's output as a distributed runtime serves it:
// one sorted run per partition, all resident or the partitions of one
// segment file. A finished reduce's output is served the same way.
type MapOutput struct{ runs []partRun }

// ResidentOutput wraps resident segments, one per partition.
func ResidentOutput(segs ...Segment) *MapOutput { return &MapOutput{runs: memRuns(segs)} }

// NumPartitions returns the partition count.
func (o *MapOutput) NumPartitions() int { return len(o.runs) }

// Records returns partition p's record count.
func (o *MapOutput) Records(p int) int64 { return o.runs[p].recs() }

// Bytes returns partition p's accounting size, Segment.Bytes of the
// partition in memory.
func (o *MapOutput) Bytes(p int) units.Bytes { return o.runs[p].accountBytes() }

// Frame returns frame i of partition p, the unit a shuffle serves: a
// resident or empty partition is one frame, its segment; a file partition's
// frames are read back CRC-checked, and blob is the frame's wire form, which
// seg aliases and the caller owns. more reports whether frames follow. A
// frame out of range or failing validation is an error.
func (o *MapOutput) Frame(p, i int) (seg Segment, blob []byte, more bool, err error) {
	if p < 0 || p >= len(o.runs) {
		return seg, nil, false, fmt.Errorf("mapreduce: no partition %d of %d", p, len(o.runs))
	}
	r := o.runs[p]
	frames := 0
	if r.file != nil {
		frames = r.file.Frames(r.part)
	}
	if i < 0 || i >= max(frames, 1) {
		return seg, nil, false, fmt.Errorf("mapreduce: partition %d has no frame %d", p, i)
	}
	if frames == 0 {
		return r.seg, nil, false, nil
	}
	if blob, err = r.file.ReadFrame(r.part, i); err == nil {
		seg, err = DecodeSegment(blob)
	}
	return seg, blob, i+1 < frames, err
}

// Remove deletes the output's segment file, if it has one; the output must
// not be served after.
func (o *MapOutput) Remove() {
	if len(o.runs) > 0 && o.runs[0].file != nil {
		o.runs[0].file.Remove()
	}
}

// ExecuteReduceSeg runs the job's reducer over the sorted shuffle segments
// of one partition — the distributed runtime's reduce-task entry point.
// Segments must be in map-task order; empty segments are skipped. The
// partition's output is returned as a flat arena-backed segment — ready for
// EncodeSegment — without ever materializing string records.
func ExecuteReduceSeg(job Job, segments []Segment) (Segment, Counters, error) {
	return ExecuteReduceSegObs(job, segments, obs.TaskRef{}, nil)
}

// ExecuteReduceSegObs is ExecuteReduceSeg with task-phase telemetry: the
// reduce interval (the merge is folded into it) is attributed to ref and
// emitted on o. A nil or disabled observer costs nothing.
func ExecuteReduceSegObs(job Job, segments []Segment, ref obs.TaskRef, o obs.Observer) (Segment, Counters, error) {
	if err := job.Validate(); err != nil {
		return Segment{}, Counters{}, err
	}
	return reduceToSegment(job, memRuns(segments), newPhaseClock(o, ref))
}

// SplitInput cuts data into record-aligned chunks of roughly blockSize
// bytes: every chunk starts at a record boundary and holds whole lines. A
// chunk runs blockSize bytes from its start, then on through the end of the
// line holding its last byte; the next chunk starts there. So a line that
// starts exactly at a cut opens the later chunk, where the engine's
// LineRecordReader splits (forEachRecordWindow) give it to the earlier one.
// Only the benchmark's staged layers (bench/layers.go) still call it.
func SplitInput(data []byte, blockSize int) [][]byte {
	if blockSize < 1 {
		blockSize = 1
	}
	var chunks [][]byte
	start := 0
	for start < len(data) {
		end := start + blockSize
		if end >= len(data) {
			chunks = append(chunks, data[start:])
			break
		}
		// Extend to the end of the record containing byte end-1.
		for end < len(data) && data[end-1] != '\n' {
			end++
		}
		chunks = append(chunks, data[start:end])
		start = end
	}
	return chunks
}

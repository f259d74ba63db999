package mapreduce

import (
	"fmt"

	"heterohadoop/internal/obs"
)

// ExecuteMapSplit runs the job's mapper over one standalone record-aligned
// chunk and returns per-partition sorted intermediate runs as flat
// segments (ready for the binary wire encoding). It is the task-granular
// entry point used by distributed runtimes (internal/dist), which ship
// chunks to workers; the chunk is treated as a complete split (no
// neighbouring-block stitching).
func ExecuteMapSplit(job Job, chunk []byte, nparts int) ([]Segment, Counters, error) {
	return ExecuteMapSplitObs(job, chunk, nparts, obs.TaskRef{}, nil)
}

// ExecuteMapSplitObs is ExecuteMapSplit with task-phase telemetry: phase
// intervals (map, sort, spill, merge-fetch) are attributed to ref and
// emitted on o. A nil or disabled observer costs nothing.
func ExecuteMapSplitObs(job Job, chunk []byte, nparts int, ref obs.TaskRef, o obs.Observer) ([]Segment, Counters, error) {
	if err := job.Validate(); err != nil {
		return nil, Counters{}, err
	}
	if nparts < 1 {
		return nil, Counters{}, fmt.Errorf("mapreduce: %s: need at least one partition", job.Config.Name)
	}
	if job.Partitioner == nil {
		job.Partitioner = HashPartitioner()
	}
	bufs := bufsPool.Get().(*taskBufs)
	defer bufsPool.Put(bufs)
	runs, c, err := runMapTask(job, chunk, 0, splitRange{start: 0, end: len(chunk)}, nparts, newPhaseClock(o, ref), bufs, nil, 0)
	if err != nil {
		return nil, c, err
	}
	segs := make([]Segment, len(runs))
	for i, r := range runs {
		segs[i] = r.seg // no spill context: every run is resident
	}
	return segs, c, nil
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
// bytes, for shipping splits over the wire: every chunk starts at a record
// boundary and holds whole lines, so chunks can be processed independently.
// A chunk runs blockSize bytes from its start, then on through the end of
// the line holding its last byte; the next chunk starts there. So a line
// that starts exactly at a cut opens the later chunk, where the engine's
// LineRecordReader splits (forEachRecordWindow) give it to the earlier one.
// A restored dist master re-splits with this function and checks the task
// count against its snapshot, so the cut must not change.
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

package mapreduce

import (
	"encoding/binary"
	"fmt"

	"heterohadoop/internal/units"
)

// Counters aggregates the job-level statistics Hadoop reports, which the
// trace profiler turns into resource profiles and the simulator uses to
// cost data movement. Counters is a plain value; the engine serializes
// concurrent aggregation itself.
type Counters struct {
	MapTasks    int
	ReduceTasks int

	MapInputRecords  int64
	MapInputBytes    units.Bytes
	MapOutputRecords int64
	MapOutputBytes   units.Bytes

	CombineInputRecords  int64
	CombineOutputRecords int64

	Spills          int
	SpilledRecords  int64
	SpilledBytes    units.Bytes
	MergePasses     int
	MergeBytes      units.Bytes // bytes re-read and re-written by merges
	ShuffleBytes    units.Bytes
	ShuffleSegments int
	// ReduceMergePasses counts reduce-side disk merge passes: collector
	// pressure folds that merged two or more runs into a spill file, plus
	// the MergeFactor consolidation rounds ahead of a reduce task's final
	// external merge. Always 0 without SpillDir; under SpillDir the fold
	// count depends on run arrival order, so it is reported, not compared.
	ReduceMergePasses int

	// SpillFilesWritten counts on-disk segment files written by the
	// out-of-core path (map spills, collector pressure folds, worker
	// shuffle files); zero for in-memory runs.
	SpillFilesWritten int
	// SpillFileBytesWritten is the stored size of those files' frames
	// (raw wire bytes; nothing is compressed) — the actual disk traffic, as
	// opposed to SpilledBytes' accounting size.
	SpillFileBytesWritten units.Bytes
	// SpillFileBytesRead is the stored bytes read back from segment files
	// by external merges and streaming reduces.
	SpillFileBytesRead units.Bytes

	ReduceInputGroups   int64
	ReduceInputRecords  int64
	ReduceOutputRecords int64
	ReduceOutputBytes   units.Bytes
}

// CountersSize is the length of Counters' binary form: each field, in
// declaration order, as a little-endian 64-bit integer.
const CountersSize = 23 * 8

// walk passes every field, in declaration order, through f and stores
// what f returns: the one field list the binary codec reads and writes.
func (c *Counters) walk(f func(int64) int64) {
	c.MapTasks = int(f(int64(c.MapTasks)))
	c.ReduceTasks = int(f(int64(c.ReduceTasks)))
	c.MapInputRecords = f(c.MapInputRecords)
	c.MapInputBytes = units.Bytes(f(int64(c.MapInputBytes)))
	c.MapOutputRecords = f(c.MapOutputRecords)
	c.MapOutputBytes = units.Bytes(f(int64(c.MapOutputBytes)))
	c.CombineInputRecords = f(c.CombineInputRecords)
	c.CombineOutputRecords = f(c.CombineOutputRecords)
	c.Spills = int(f(int64(c.Spills)))
	c.SpilledRecords = f(c.SpilledRecords)
	c.SpilledBytes = units.Bytes(f(int64(c.SpilledBytes)))
	c.MergePasses = int(f(int64(c.MergePasses)))
	c.MergeBytes = units.Bytes(f(int64(c.MergeBytes)))
	c.ShuffleBytes = units.Bytes(f(int64(c.ShuffleBytes)))
	c.ShuffleSegments = int(f(int64(c.ShuffleSegments)))
	c.ReduceMergePasses = int(f(int64(c.ReduceMergePasses)))
	c.SpillFilesWritten = int(f(int64(c.SpillFilesWritten)))
	c.SpillFileBytesWritten = units.Bytes(f(int64(c.SpillFileBytesWritten)))
	c.SpillFileBytesRead = units.Bytes(f(int64(c.SpillFileBytesRead)))
	c.ReduceInputGroups = f(c.ReduceInputGroups)
	c.ReduceInputRecords = f(c.ReduceInputRecords)
	c.ReduceOutputRecords = f(c.ReduceOutputRecords)
	c.ReduceOutputBytes = units.Bytes(f(int64(c.ReduceOutputBytes)))
}

// AppendCounters appends c's CountersSize-byte binary form to b.
func AppendCounters(b []byte, c Counters) []byte {
	c.walk(func(v int64) int64 {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
		return v
	})
	return b
}

// DecodeCounters reads Counters from the first CountersSize bytes of b
// and returns them with the rest of b.
func DecodeCounters(b []byte) (Counters, []byte, error) {
	var c Counters
	if len(b) < CountersSize {
		return c, nil, fmt.Errorf("mapreduce: counters need %d bytes, %d remain", CountersSize, len(b))
	}
	c.walk(func(int64) int64 {
		v := int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v
	})
	return c, b, nil
}

// Add merges o into c. The caller is responsible for synchronization.
func (c *Counters) Add(o Counters) {
	c.MapTasks += o.MapTasks
	c.ReduceTasks += o.ReduceTasks
	c.MapInputRecords += o.MapInputRecords
	c.MapInputBytes += o.MapInputBytes
	c.MapOutputRecords += o.MapOutputRecords
	c.MapOutputBytes += o.MapOutputBytes
	c.CombineInputRecords += o.CombineInputRecords
	c.CombineOutputRecords += o.CombineOutputRecords
	c.Spills += o.Spills
	c.SpilledRecords += o.SpilledRecords
	c.SpilledBytes += o.SpilledBytes
	c.MergePasses += o.MergePasses
	c.MergeBytes += o.MergeBytes
	c.ShuffleBytes += o.ShuffleBytes
	c.ShuffleSegments += o.ShuffleSegments
	c.ReduceMergePasses += o.ReduceMergePasses
	c.SpillFilesWritten += o.SpillFilesWritten
	c.SpillFileBytesWritten += o.SpillFileBytesWritten
	c.SpillFileBytesRead += o.SpillFileBytesRead
	c.ReduceInputGroups += o.ReduceInputGroups
	c.ReduceInputRecords += o.ReduceInputRecords
	c.ReduceOutputRecords += o.ReduceOutputRecords
	c.ReduceOutputBytes += o.ReduceOutputBytes
}

// MapOutputRatio returns map output bytes per map input byte — the data
// expansion/contraction factor that decides spill pressure.
func (c Counters) MapOutputRatio() float64 {
	if c.MapInputBytes == 0 {
		return 0
	}
	return float64(c.MapOutputBytes) / float64(c.MapInputBytes)
}

// CombinerReduction returns the record-count reduction factor achieved by
// the combiner (1 = none).
func (c Counters) CombinerReduction() float64 {
	if c.CombineOutputRecords == 0 {
		return 1
	}
	return float64(c.CombineInputRecords) / float64(c.CombineOutputRecords)
}

// String summarizes the counters.
func (c Counters) String() string {
	return fmt.Sprintf(
		"counters{maps=%d reduces=%d in=%v/%d out=%v/%d spills=%d shuffle=%v reduceMerges=%d spillFiles=%d/%v/%v groups=%d reduceOut=%v/%d}",
		c.MapTasks, c.ReduceTasks,
		c.MapInputBytes, c.MapInputRecords,
		c.MapOutputBytes, c.MapOutputRecords,
		c.Spills, c.ShuffleBytes,
		c.ReduceMergePasses,
		c.SpillFilesWritten, c.SpillFileBytesWritten, c.SpillFileBytesRead,
		c.ReduceInputGroups, c.ReduceOutputBytes, c.ReduceOutputRecords)
}

// Package mapreduce implements the Hadoop-style MapReduce execution engine
// the paper's workloads run on: jobs split into one map task per HDFS block,
// an in-memory sort buffer with spill/merge behaviour (the io.sort.mb
// mechanism behind the paper's large-block slowdowns), combiners, hash or
// custom partitioning, a shuffle, k-way merge sort on the reduce side, and
// per-phase counters that feed the trace profiler and the cluster simulator.
//
// The engine really executes the user code over real data; it is not a cost
// model. Timing and energy are layered on top by internal/sim.
package mapreduce

import (
	"fmt"
	"math"

	"heterohadoop/internal/units"
)

// KV is one key/value record.
type KV struct {
	Key   string
	Value string
}

// Bytes returns the record's accounting size: payload plus the per-record
// framing overhead Hadoop charges in its buffers (key/value lengths and
// partition metadata).
func (kv KV) Bytes() units.Bytes {
	return units.Bytes(len(kv.Key) + len(kv.Value) + recordOverhead)
}

// ByteEmitter receives the records mappers, combiners and reducers produce.
// The engine copies both slices into its flat buffer before returning, so
// the caller may reuse them immediately.
type ByteEmitter func(key, value []byte)

// Mapper transforms one input line into zero or more intermediate records.
// line aliases the input split and is valid only during the call; offset is
// the line's byte offset in the file (the record key MapperFunc renders in
// decimal).
type Mapper interface {
	MapBytes(offset int, line []byte, emit ByteEmitter) error
}

// Reducer folds all values of one key into zero or more output records.
// The key group's values arrive through a ValueIter; key and values alias
// the engine's merge buffer and are valid only during the call. Combiners
// satisfy the same contract and run on map-side spill batches.
type Reducer interface {
	ReduceStream(key []byte, values *ValueIter, emit ByteEmitter) error
}

// PassthroughReducer marks a reducer as an identity pass-through: for every
// key group it emits exactly its input records, unchanged and in order.
// The engine detects the marker by type assertion and skips reduce-side
// record processing entirely — the partition's output IS its merged
// shuffle stream, zero copies (terasort and sort, whose reducers are
// pass-throughs, pay no per-record reduce cost at all). Passthrough must return a constant; implementations
// returning false run the ordinary reduce loop.
type PassthroughReducer interface {
	Reducer
	Passthrough() bool
}

// IdentityMapper emits its input line unchanged as the key, with an empty
// value (the classic Hadoop sort mapper).
func IdentityMapper() Mapper { return identityMapper{} }

type identityMapper struct{}

func (identityMapper) MapBytes(_ int, line []byte, emit ByteEmitter) error {
	emit(line, nil)
	return nil
}

// IdentityReducer emits each value of each key unchanged. The returned
// reducer implements PassthroughReducer, so identity jobs (sort, terasort)
// skip reduce-side record processing entirely.
func IdentityReducer() Reducer { return identityReducer{} }

type identityReducer struct{}

// Passthrough marks the identity reducer for the engine's zero-copy
// reduce path.
func (identityReducer) Passthrough() bool { return true }

func (identityReducer) ReduceStream(key []byte, values *ValueIter, emit ByteEmitter) error {
	for {
		v, ok := values.Next()
		if !ok {
			return nil
		}
		emit(key, v)
	}
}

// Partitioner routes an intermediate key to one of n reduce partitions.
type Partitioner interface {
	PartitionBytes(key []byte, n int) int
}

// HashPartitioner routes keys by FNV-32a hash, Hadoop's default.
func HashPartitioner() Partitioner { return hashPartitioner{} }

type hashPartitioner struct{}

func (hashPartitioner) PartitionBytes(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range key {
		h ^= uint32(b)
		h *= prime32
	}
	return int(h % uint32(n))
}

// RangePartitioner routes keys into contiguous sorted ranges delimited by
// n-1 sampled cut keys, as TeraSort's sampler builds: partition i receives
// keys in [cuts[i-1], cuts[i]), compared byte-wise (Go's string ordering).
func RangePartitioner(cuts []string) Partitioner { return rangePartitioner{cuts: cuts} }

type rangePartitioner struct{ cuts []string }

func (r rangePartitioner) PartitionBytes(key []byte, n int) int {
	if n <= 1 || len(r.cuts) == 0 {
		return 0
	}
	// Binary search for the first cut greater than key.
	lo, hi := 0, len(r.cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytesLessString(key, r.cuts[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= n {
		lo = n - 1
	}
	return lo
}

// bytesLessString reports string(b) < s without materializing the string.
func bytesLessString(b []byte, s string) bool {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			return b[i] < s[i]
		}
	}
	return len(b) < len(s)
}

// Config configures a job run. The engine runs each task once: a task
// error fails the run. Re-execution is the distributed runtime's job
// (internal/dist reissues tasks on timeout, failure report or lost output).
type Config struct {
	// Name identifies the job in errors and reports.
	Name string
	// NumReducers is the reduce-task count; every job has at least one.
	NumReducers int
	// SortBuffer is the map-side output buffer capacity before a spill is
	// forced — Hadoop's io.sort.mb. The paper's large-block experiments
	// hinge on map outputs overflowing this buffer.
	SortBuffer units.Bytes
	// MergeFactor is the fan-in of each merge pass (Hadoop's io.sort.factor).
	MergeFactor int
	// Parallelism is the number of concurrent task slots. Zero means one
	// slot per schedulable CPU (runtime.GOMAXPROCS); set 1 explicitly for a
	// serial run.
	Parallelism int
	// SpillDir, when non-empty, enables the out-of-core path: spills that
	// overflow SpillMemory are written as checksummed segment files (raw
	// frames, CRC-32 each) under a per-run temp directory inside SpillDir, merged with a
	// streaming external k-way merge, and reduce outputs are disk-backed
	// (release them with Result.Close). Empty keeps every segment in
	// memory.
	SpillDir string
	// SpillMemory bounds how many spilled bytes a map task (and each reduce
	// partition's shuffle collectors, together) may keep buffered in memory
	// before further runs go to disk — the out-of-core budget alongside
	// SortBuffer. Zero defaults to SortBuffer. Ignored unless SpillDir is
	// set.
	SpillMemory units.Bytes

	// beforeTask, if set, is called once before each task body runs, with
	// the task's ID ("<name>/map-3"). Tests use it to cancel mid-run.
	beforeTask func(task string)
}

// DefaultConfig returns a configuration with Hadoop-flavoured defaults:
// 100 MB sort buffer, merge factor 10, one reducer, one task slot per
// schedulable CPU.
func DefaultConfig(name string) Config {
	return Config{
		Name:        name,
		NumReducers: 1,
		SortBuffer:  100 * units.MB,
		MergeFactor: 10,
		Parallelism: 0, // auto: runtime.GOMAXPROCS
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("mapreduce: job has no name")
	}
	if c.NumReducers < 1 {
		return fmt.Errorf("mapreduce: %s: need at least one reducer", c.Name)
	}
	if c.SortBuffer <= 0 {
		return fmt.Errorf("mapreduce: %s: sort buffer must be positive", c.Name)
	}
	if c.SortBuffer > math.MaxUint32 {
		return fmt.Errorf("mapreduce: %s: sort buffer of %d bytes is beyond the 4 GiB the arena's 32-bit record offsets reach", c.Name, int64(c.SortBuffer))
	}
	if c.MergeFactor < 2 {
		return fmt.Errorf("mapreduce: %s: merge factor must be >= 2", c.Name)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("mapreduce: %s: negative parallelism", c.Name)
	}
	if c.SpillMemory < 0 {
		return fmt.Errorf("mapreduce: %s: negative spill memory", c.Name)
	}
	return nil
}

// Job couples user code with a configuration.
type Job struct {
	Config      Config
	Mapper      Mapper
	Combiner    Reducer // optional
	Reducer     Reducer
	Partitioner Partitioner
}

// Validate checks that the job is runnable.
func (j Job) Validate() error {
	if err := j.Config.Validate(); err != nil {
		return err
	}
	if j.Mapper == nil {
		return fmt.Errorf("mapreduce: %s: no mapper", j.Config.Name)
	}
	if j.Reducer == nil {
		return fmt.Errorf("mapreduce: %s: no reducer", j.Config.Name)
	}
	return nil
}

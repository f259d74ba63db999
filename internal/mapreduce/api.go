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
	"hash/fnv"

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

// Emitter receives records produced by mappers, combiners and reducers.
type Emitter func(key, value string)

// ByteEmitter receives byte-level records on the arena fast path. The
// engine copies both slices into its flat buffer before returning, so the
// caller may reuse them immediately.
type ByteEmitter func(key, value []byte)

// Mapper transforms one input record into zero or more intermediate records.
type Mapper interface {
	Map(key, value string, emit Emitter) error
}

// ByteMapper is the optional allocation-free mapper fast path: the engine
// detects it by type assertion and, when present, feeds raw line bytes
// (aliasing the input split — valid only during the call) instead of
// materializing a string per line. offset is the line's byte offset in the
// file, the value the string API renders with strconv.Itoa as the record
// key. Implementations must emit exactly what their string Map would.
type ByteMapper interface {
	Mapper
	MapBytes(offset int, line []byte, emit ByteEmitter) error
}

// Reducer folds all values of one key into zero or more output records.
// Combiners satisfy the same contract and run on map-side spill batches.
type Reducer interface {
	Reduce(key string, values []string, emit Emitter) error
}

// StreamReducer is the optional allocation-free reducer/combiner fast
// path: instead of a materialized []string, the key group's values arrive
// through a ValueIter that yields byte slices aliasing the engine's merge
// buffer (valid only during the call). Implementations must emit exactly
// what their string Reduce would for the same group.
type StreamReducer interface {
	Reducer
	ReduceStream(key []byte, values *ValueIter, emit ByteEmitter) error
}

// PassthroughReducer marks a reducer as an identity pass-through: for every
// key group it emits exactly its input records, unchanged and in order.
// The engine detects the marker by type assertion and skips reduce-side
// record processing entirely when no Grouping comparator is installed —
// the partition's output IS its merged shuffle stream, zero copies
// (terasort and sort, whose reducers are pass-throughs, pay no per-record
// reduce cost at all). Passthrough must return a constant; implementations
// returning false run the ordinary reduce loop.
type PassthroughReducer interface {
	Reducer
	Passthrough() bool
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(key, value string, emit Emitter) error

// Map calls f.
func (f MapperFunc) Map(key, value string, emit Emitter) error { return f(key, value, emit) }

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values []string, emit Emitter) error

// Reduce calls f.
func (f ReducerFunc) Reduce(key string, values []string, emit Emitter) error {
	return f(key, values, emit)
}

// IdentityMapper emits its input record unchanged, keyed by value (the
// classic Hadoop sort mapper). The returned mapper implements ByteMapper,
// so identity jobs (Sort) ride the arena fast path.
func IdentityMapper() Mapper { return identityMapper{} }

type identityMapper struct{}

func (identityMapper) Map(_ string, value string, emit Emitter) error {
	emit(value, "")
	return nil
}

func (identityMapper) MapBytes(_ int, line []byte, emit ByteEmitter) error {
	emit(line, nil)
	return nil
}

// IdentityReducer emits each value of each key unchanged. The returned
// reducer implements StreamReducer and PassthroughReducer, so identity
// jobs (sort, terasort) ride the arena fast path and skip reduce-side
// record processing entirely.
func IdentityReducer() Reducer { return identityReducer{} }

type identityReducer struct{}

// Passthrough marks the identity reducer for the engine's zero-copy
// reduce path.
func (identityReducer) Passthrough() bool { return true }

func (identityReducer) Reduce(key string, values []string, emit Emitter) error {
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

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
	Partition(key string, n int) int
}

// BytePartitioner is the optional byte-level partitioner fast path,
// detected by type assertion like ByteMapper. PartitionBytes must return
// the same partition Partition would for the equivalent string key.
type BytePartitioner interface {
	Partitioner
	PartitionBytes(key []byte, n int) int
}

// PartitionerFunc adapts a function to the Partitioner interface.
type PartitionerFunc func(key string, n int) int

// Partition calls f.
func (f PartitionerFunc) Partition(key string, n int) int { return f(key, n) }

// HashPartitioner routes keys by FNV hash, Hadoop's default. The returned
// partitioner implements BytePartitioner (the inlined FNV-32a loop matches
// hash/fnv bit for bit).
func HashPartitioner() Partitioner { return hashPartitioner{} }

type hashPartitioner struct{}

func (hashPartitioner) Partition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

func (hashPartitioner) PartitionBytes(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	// FNV-32a, identical to hash/fnv without the hasher allocation.
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
// keys in [cuts[i-1], cuts[i]). The returned partitioner implements
// BytePartitioner (byte-wise comparison is exactly Go's string ordering).
func RangePartitioner(cuts []string) Partitioner { return rangePartitioner{cuts: cuts} }

type rangePartitioner struct{ cuts []string }

func (r rangePartitioner) Partition(key string, n int) int {
	if n <= 1 || len(r.cuts) == 0 {
		return 0
	}
	// Binary search for the first cut greater than key.
	lo, hi := 0, len(r.cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if key < r.cuts[mid] {
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

func (r rangePartitioner) PartitionBytes(key []byte, n int) int {
	if n <= 1 || len(r.cuts) == 0 {
		return 0
	}
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

// Config configures a job run.
type Config struct {
	// Name identifies the job in errors and reports.
	Name string
	// NumReducers is the reduce-task count. Zero means a map-only job.
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
	// overflow SpillMemory are written as compressed, checksummed segment
	// files under a per-run temp directory inside SpillDir, merged with a
	// streaming external k-way merge, and reduce outputs are disk-backed
	// (release them with Result.Close). Empty keeps every segment in
	// memory. Map-only jobs ignore it (their outputs must outlive the
	// run's spill directory).
	SpillDir string
	// SpillMemory bounds how many spilled bytes a map task (and each reduce
	// partition's shuffle collectors, together) may keep buffered in memory
	// before further runs go to disk — the out-of-core budget alongside
	// SortBuffer. Zero defaults to SortBuffer. Ignored unless SpillDir is
	// set.
	SpillMemory units.Bytes
	// MaxAttempts is how many times a failed task is retried before the
	// job aborts. Zero means 1 attempt (no retries).
	MaxAttempts int
	// FailureInjector, if set, is consulted before each task attempt and
	// may return an error to simulate a task failure. Used by tests.
	FailureInjector func(task string, attempt int) error
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
		MaxAttempts: 1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("mapreduce: job has no name")
	}
	if c.NumReducers < 0 {
		return fmt.Errorf("mapreduce: %s: negative reducer count", c.Name)
	}
	if c.SortBuffer <= 0 {
		return fmt.Errorf("mapreduce: %s: sort buffer must be positive", c.Name)
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
	if c.MaxAttempts < 0 {
		return fmt.Errorf("mapreduce: %s: negative max attempts", c.Name)
	}
	return nil
}

// GroupComparator decides whether two intermediate keys belong to the same
// reduce group. Hadoop's secondary-sort pattern uses composite keys
// ("user#timestamp") sorted fully but grouped on a prefix, so the reducer
// sees each user's values in timestamp order. Nil means exact key equality.
type GroupComparator func(a, b string) bool

// Job couples user code with a configuration.
type Job struct {
	Config      Config
	Mapper      Mapper
	Combiner    Reducer // optional
	Reducer     Reducer // required unless NumReducers == 0
	Partitioner Partitioner
	// Grouping, when set, merges consecutive sorted keys into one reduce
	// group (secondary sort). The reducer receives the group's first key.
	Grouping GroupComparator
}

// Validate checks that the job is runnable.
func (j Job) Validate() error {
	if err := j.Config.Validate(); err != nil {
		return err
	}
	if j.Mapper == nil {
		return fmt.Errorf("mapreduce: %s: no mapper", j.Config.Name)
	}
	if j.Config.NumReducers > 0 && j.Reducer == nil {
		return fmt.Errorf("mapreduce: %s: %d reducers configured but no reducer", j.Config.Name, j.Config.NumReducers)
	}
	return nil
}

// Package dist is a distributed MapReduce runtime: a master coordinates map
// and reduce tasks across workers over TCP, the way the paper's 3-node
// Hadoop clusters run a JobTracker over slaves. Control messages travel on
// net/rpc; bulk bytes — shuffle frames to reducers, reduce outputs to the
// master — are pulled in fixed binary frames from each worker's one raw byte
// endpoint (endpoint.go), the way Hadoop moves shuffle data outside its RPC
// layer. Workers poll for tasks (the heartbeat, held by the master while
// idle), execute them with the engine's task-granular entry points, and the
// master reassigns tasks whose workers go silent — speculative re-execution
// included. Jobs are referenced by registered workload names (shipping class
// names, not code), with sampler/f-list auxiliary data computed master-side
// and sent alongside.
//
// The master is multi-tenant: Submit is asynchronous and returns a
// JobHandle, many jobs run concurrently under a fair/capacity scheduler,
// workers that stop polling are evicted (their in-flight tasks requeued
// and their served map output re-executed), and an optional snapshot file
// lets a restarted master resume in-flight jobs.
package dist

import (
	"time"

	"heterohadoop/internal/mapreduce"
)

// JobDescriptor names a job and carries everything a worker needs to
// reconstruct it locally. Scheduling is the master's alone (WithTaskTimeout
// and friends): every job on a master shares its timeouts and slowstart.
type JobDescriptor struct {
	// Workload is the registered job-factory name (e.g. "wordcount").
	Workload string
	// NumReducers is the reduce-partition count.
	NumReducers int
	// Cuts are range-partitioner cut keys (TeraSort/Sort), computed by the
	// master's sampler.
	Cuts []string
	// Aux is workload-specific auxiliary data (e.g. FP-Growth's f-list or
	// grep's pattern), encoded by the job factory's conventions.
	Aux []byte
}

// Task kinds.
const (
	TaskWait   = "wait"   // nothing pending for the whole hold; poll again
	TaskMap    = "map"    // run a map split
	TaskReduce = "reduce" // run a reduce partition
)

// Task is one unit of work handed to a worker.
type Task struct {
	// Kind is one of the Task* constants.
	Kind string
	// Epoch is the master's job generation the task belongs to — unique
	// per submitted job, even across a snapshot restart. Workers echo it
	// in completion and failure reports so results from a job that has
	// since been aborted or superseded are rejected instead of being
	// recorded against the wrong job, and the master routes reports from
	// concurrent jobs by it.
	Epoch uint64
	// Seq identifies the task's slot in the master's tables: the split
	// index of a map task, the partition of a reduce task. Reduce tasks
	// carry no shuffle data: the worker streams its partition's segment
	// references from the master with Master.FetchSegments while the map
	// wave is still running.
	Seq int
	// Job describes how to build the job; map output is split into
	// Job.NumReducers partitions.
	Job JobDescriptor
	// SplitData is the record-aligned input chunk (map tasks).
	SplitData []byte
	// ActiveEpochs lists the epochs of every job currently queued or
	// running, piggybacked on every GetTask reply so the worker can prune
	// stored map output belonging to finished jobs.
	ActiveEpochs []uint64
}

// GetTaskArgs is the worker's poll request (the heartbeat).
type GetTaskArgs struct {
	WorkerID string
	// Addr is the worker's shuffle-serve address. The master records it so
	// evictions can be attributed to served segments.
	Addr string
	// Class is the worker's declared core class ("big", "little", or a
	// custom profile name; "" when undeclared). The master records it in
	// the worker registry — the placement input for class-aware scheduling.
	Class string
	// Wait is the longest the master may hold the call; 0 answers at once.
	Wait time.Duration
}

// MapDone reports a completed map task. Epoch is copied from the Task.
//
// The output itself stays on the worker: Addr is the byte endpoint
// (endpoint.go) reducers pull it from, and PartStats carries the
// per-partition accounting from the worker's own segment headers. If the
// worker dies, the segments are gone and the master re-executes the map.
type MapDone struct {
	WorkerID string
	Epoch    uint64
	Seq      int
	// Addr is the producing worker's shuffle-serve address; a completion
	// without one is rejected.
	Addr string
	// PartStats is the per-partition record/byte accounting (one entry per
	// non-empty partition).
	PartStats []PartStat
	Counters  mapreduce.Counters
}

// PartStat is one non-empty partition's accounting in a MapDone.
type PartStat struct {
	Part  int
	Recs  int
	Bytes int64
}

// TaggedSegment references one map task's sorted output for one partition,
// tagged with the producing task's Seq so reducers can restore map-task
// order — the order the engine's stable merge is defined over — no matter
// the order segments were fetched in. The segment itself lives on the
// producing worker; the reducer pulls it from the byte endpoint at Addr.
//
// When the producer is unreachable the reducer reports the loss
// (Master.ReportLostSegments) and the master re-executes the map,
// publishing a replacement entry with the same MapSeq — consumers keep the
// latest entry per MapSeq.
type TaggedSegment struct {
	MapSeq int
	// Addr is the producing worker's shuffle-serve address.
	Addr string
	// Owner is the producing worker's ID, echoed in loss reports so a stale
	// report cannot invalidate a re-executed map.
	Owner string
}

// SegmentsLost reports shuffle segments a reducer could not fetch from
// their producing worker, so the master can re-execute the lost maps
// instead of letting the reduce wait forever.
type SegmentsLost struct {
	// WorkerID is the reporting reducer's worker.
	WorkerID string
	Epoch    uint64
	// Partition is the partition whose fetch failed (diagnostic).
	Partition int
	// MapSeqs are the map tasks whose segments are unreachable.
	MapSeqs []int
	// Owner is the worker the segments were served by; the master only
	// invalidates maps still owned by it (a map that already re-executed
	// elsewhere is left alone).
	Owner string
}

// FetchSegmentsArgs asks the master for one partition's shuffle segments,
// starting at Cursor (the count of segments already fetched). Epoch is
// copied from the reduce Task so a fetch for an aborted or superseded job
// is answered Stale instead of with the wrong job's data.
type FetchSegmentsArgs struct {
	WorkerID  string
	Epoch     uint64
	Partition int
	Cursor    int
	Wait      time.Duration // as in GetTaskArgs, while nothing new is published
}

// FetchSegmentsReply carries the segments published since the cursor.
// Complete is set once the map wave has drained and every segment has been
// handed out, so the fetching reducer can start its final merge. Stale
// tells the worker to abandon the task: the job it belongs to is gone.
type FetchSegmentsReply struct {
	Segments []TaggedSegment
	Cursor   int
	Complete bool
	Stale    bool
}

// ReduceDone reports a completed reduce task. Epoch and Seq (the
// partition) are copied from the Task. The output itself waits on the
// worker: Addr is the byte endpoint the master pulls it from while the
// call is in flight, as one wire-form segment it decodes at job completion.
// A completion without one is rejected.
type ReduceDone struct {
	WorkerID string
	Epoch    uint64
	Seq      int
	Addr     string
	Counters mapreduce.Counters
}

// Ack is the empty reply for one-way calls.
type Ack struct{}

// TaskFailed reports a task attempt the worker could not complete, so the
// master can requeue it immediately instead of waiting out the timeout.
type TaskFailed struct {
	WorkerID string
	Epoch    uint64
	Kind     string
	Seq      int
	Reason   string
}

// SubmitArgs is a remote job submission (cmd/hadoopd's client path).
type SubmitArgs struct {
	Desc      JobDescriptor
	Input     []byte
	BlockSize int
}

// Package dist is a distributed MapReduce runtime: a master coordinates map
// and reduce tasks across workers over TCP, the way the paper's 3-node
// Hadoop clusters run a JobTracker over slaves. Control messages travel on
// net/rpc; bulk bytes — shuffle frames to reducers, reduce outputs to the
// master — are pulled in fixed binary frames from each worker's one raw byte
// endpoint (endpoint.go), the way Hadoop moves shuffle data outside its RPC
// layer. A worker has one control call, the Heartbeat, the way a Hadoop 1
// TaskTracker has one heartbeat: each beat carries every task report since
// the last one and, when it polls, returns the next task (held by the
// master while there is none). A map task carries the engine's split and
// its window, and workers run the engine's task bodies; the master
// reassigns tasks whose workers go silent — speculative re-execution
// included. Jobs are referenced by registered workload names (shipping
// class names, not code), with the side data a workload computes from its
// whole input computed master-side by the workload and sent alongside.
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
	// Aux is the job's side data in the workload's encoding: what PrepareAux
	// computes from the whole input (the sorts' sampled cut keys,
	// FP-Growth's f-list), or the submitter's (grep's pattern).
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
	// Start and End are a map task's split of the job's input, cut as the
	// engine cuts it: [i·B, min((i+1)·B, n)) for block size B. Window is
	// what hdfs.ReadWindow returns for it, the input from Start through the
	// record straddling End.
	Start, End int
	Window     []byte
	// ActiveEpochs lists the epochs of every job currently queued or
	// running, piggybacked on every polling beat's reply so the worker can
	// prune stored map output belonging to finished jobs.
	ActiveEpochs []uint64
}

// Heartbeat is a worker's one control call: every task and segment-loss
// report since its last beat and, when Poll is set, the request for its
// next task, held up to Wait while there is none. A beat without Poll is
// answered at once with an empty Task.
type Heartbeat struct {
	WorkerID string
	// Addr is the worker's byte endpoint, where its reported outputs wait.
	Addr string
	// Class is the worker's declared core class ("big", "little", or a
	// custom profile name; "" when undeclared), recorded in the worker
	// registry — the placement input for class-aware scheduling.
	Class   string
	Poll    bool
	Wait    time.Duration
	Reports []TaskReport
	Lost    []SegmentsLost // one entry per unreachable owner
}

// TaskReport is one task attempt's outcome, a failure when Failure is set;
// Epoch, Kind and Seq are copied from the Task. A completion's output stays
// at the beat's Addr: reducers pull a map's segments from there, the master
// a reduce's output while the beat is in flight.
type TaskReport struct {
	Epoch   uint64
	Kind    string
	Seq     int
	Failure string
	// PartStats is a map completion's accounting, from the worker's own
	// segment headers.
	PartStats []PartStat
	Counters  mapreduce.Counters
}

// PartStat is one non-empty partition's accounting in a map completion.
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
// (Heartbeat.Lost) and the master re-executes the map,
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
	Epoch uint64
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
	Wait      time.Duration // as in Heartbeat, while nothing new is published
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

// SubmitArgs is a remote job submission (cmd/hadoopd's client path).
type SubmitArgs struct {
	Desc      JobDescriptor
	Input     []byte
	BlockSize int
}

// Package sim is the cluster-level performance and energy simulator: it
// takes a workload's calibrated Spec, a cluster of big- or little-core
// nodes, and the paper's tuning knobs (HDFS block size, DVFS frequency,
// input size per node, core count), and produces per-phase execution time
// and dynamic energy, from which every figure and table of the evaluation
// is regenerated.
//
// The simulator models the mechanisms the paper identifies rather than
// fitting curves: map-task counts from input/blockSize, per-task
// master-worker overhead (which punishes 32 MB blocks), sort-buffer spills
// and multi-pass merges (which punish 512 MB blocks for expansive map
// outputs), task waves over limited core slots, disk-bandwidth sharing
// among concurrent tasks, partially-overlapped compute and I/O, and
// frequency-invariant DRAM and disk time (which makes the big core less
// frequency-sensitive and inverts reduce-phase EDP trends).
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/isa"
	"heterohadoop/internal/obs"
	"heterohadoop/internal/power"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// Sentinel errors: callers branch with errors.Is instead of matching
// message strings. Validation failures wrap ErrInvalidCluster/ErrInvalidJob
// with the specific cause appended.
var (
	// ErrInvalidCluster marks a cluster or node configuration that fails
	// validation.
	ErrInvalidCluster = errors.New("sim: invalid cluster")
	// ErrInvalidJob marks a JobSpec that fails validation.
	ErrInvalidJob = errors.New("sim: invalid job")
	// ErrUnsupportedFrequency marks a DVFS point outside the core's table.
	ErrUnsupportedFrequency = errors.New("sim: unsupported frequency")
)

// Node is one server configuration: a core model, a node power model, a
// disk, and the number of cores enabled for the run.
type Node struct {
	Core        cpu.Core
	Power       power.Model
	Disk        hdfs.Disk
	ActiveCores int
}

// Validate checks the node configuration.
func (n Node) Validate() error {
	if err := n.Core.Validate(); err != nil {
		return err
	}
	if err := n.Power.Validate(); err != nil {
		return err
	}
	if err := n.Disk.Validate(); err != nil {
		return err
	}
	if n.ActiveCores < 1 || n.ActiveCores > n.Core.MaxCores {
		return fmt.Errorf("sim: active cores %d outside [1, %d]", n.ActiveCores, n.Core.MaxCores)
	}
	return nil
}

// AtomNode returns the little-core server with the given enabled core count.
func AtomNode(cores int) Node {
	return Node{Core: cpu.AtomC2758(), Power: power.AtomNode(), Disk: hdfs.ServerDisk(), ActiveCores: cores}
}

// XeonNode returns the big-core server with the given enabled core count.
func XeonNode(cores int) Node {
	return Node{Core: cpu.XeonE52420(), Power: power.XeonNode(), Disk: hdfs.ServerDisk(), ActiveCores: cores}
}

// Cluster is a homogeneous group of nodes, as in the paper's two 3-node
// testbeds.
type Cluster struct {
	Node  Node
	Nodes int
	// Network is the per-node network bandwidth (bytes/second).
	Network units.Bytes
}

// NewCluster returns a 3-node cluster with gigabit Ethernet, matching the
// paper's testbeds.
func NewCluster(node Node) Cluster {
	return Cluster{Node: node, Nodes: 3, Network: 125 * units.MB}
}

// Validate checks the cluster configuration; failures wrap
// ErrInvalidCluster.
func (c Cluster) Validate() error {
	if err := c.Node.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidCluster, err)
	}
	if c.Nodes < 1 {
		return fmt.Errorf("%w: needs at least one node", ErrInvalidCluster)
	}
	if c.Network <= 0 {
		return fmt.Errorf("%w: network bandwidth must be positive", ErrInvalidCluster)
	}
	return nil
}

// JobSpec is one simulated job run: a workload spec plus the tuning knobs
// the paper sweeps.
type JobSpec struct {
	// Name identifies the workload in reports.
	Name string
	// Spec is the workload's calibrated resource description.
	Spec workloads.Spec
	// DataPerNode is the input size per node (the paper uses 1/10/20 GB).
	DataPerNode units.Bytes
	// BlockSize is the HDFS block size (32–512 MB in the paper).
	BlockSize units.Bytes
	// Frequency is the DVFS operating point (1.2–1.8 GHz).
	Frequency units.Hertz
	// SortBuffer is io.sort.mb; zero means Hadoop's 100 MB.
	SortBuffer units.Bytes
	// MergeFactor is io.sort.factor; zero means 10.
	MergeFactor int
	// Reducers is the reduce-task count per node; zero means one per core.
	Reducers int
	// TaskFailureRate is the fraction of map tasks that fail once and are
	// re-executed (speculative/retry behaviour); stragglers extend the map
	// phase with extra task waves. Zero disables failures.
	TaskFailureRate float64
	// NonLocalFraction is the fraction of map tasks reading their block
	// over the network instead of from local disk (degraded HDFS
	// locality). Zero means fully node-local, Hadoop's goal state.
	NonLocalFraction float64
	// SlowstartOverlap models mapreduce.job.reduce.slowstart: the fraction
	// of shuffle time hidden under the still-running map phase because
	// reducers start fetching early. Zero (the calibrated default) keeps
	// the phases fully serialized.
	SlowstartOverlap float64
}

func (j *JobSpec) setDefaults(node Node) {
	if j.SortBuffer <= 0 {
		j.SortBuffer = 100 * units.MB
	}
	if j.MergeFactor < 2 {
		j.MergeFactor = 10
	}
	if j.Reducers <= 0 {
		j.Reducers = node.ActiveCores
	}
}

// Validate checks the job parameters; failures wrap ErrInvalidJob, so
// callers use errors.Is(err, sim.ErrInvalidJob) rather than matching
// message strings.
func (j JobSpec) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("%w: job has no name", ErrInvalidJob)
	}
	if err := j.Spec.Validate(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrInvalidJob, j.Name, err)
	}
	if j.DataPerNode <= 0 {
		return fmt.Errorf("%w: %s: data size must be positive", ErrInvalidJob, j.Name)
	}
	if j.BlockSize <= 0 {
		return fmt.Errorf("%w: %s: block size must be positive", ErrInvalidJob, j.Name)
	}
	if j.Frequency <= 0 {
		return fmt.Errorf("%w: %s: frequency must be positive", ErrInvalidJob, j.Name)
	}
	if j.TaskFailureRate < 0 || j.TaskFailureRate >= 1 {
		return fmt.Errorf("%w: %s: task failure rate %v out of [0,1)", ErrInvalidJob, j.Name, j.TaskFailureRate)
	}
	if j.NonLocalFraction < 0 || j.NonLocalFraction > 1 {
		return fmt.Errorf("%w: %s: non-local fraction %v out of [0,1]", ErrInvalidJob, j.Name, j.NonLocalFraction)
	}
	if j.SlowstartOverlap < 0 || j.SlowstartOverlap > 1 {
		return fmt.Errorf("%w: %s: slowstart overlap %v out of [0,1]", ErrInvalidJob, j.Name, j.SlowstartOverlap)
	}
	return nil
}

// PhaseStat is the simulated outcome of one phase on one node.
type PhaseStat struct {
	// Time is the phase wall-clock duration.
	Time units.Seconds
	// Energy is the node's dynamic (above-idle) energy over the phase.
	Energy units.Joules
	// AvgPower is Energy/Time.
	AvgPower units.Watts
	// CPUTime and IOTime decompose the phase critical path (diagnostics).
	CPUTime units.Seconds
	IOTime  units.Seconds
	// Draw is the load the power model integrated over the phase; it lets
	// callers decompose Energy into components (power.DynamicBreakdown).
	Draw power.Draw
}

// addSerial appends another stat executed after this one.
func (p PhaseStat) addSerial(o PhaseStat) PhaseStat {
	t := p.Time + o.Time
	e := p.Energy + o.Energy
	return PhaseStat{
		Time:     t,
		Energy:   e,
		AvgPower: units.Power(e, t),
		CPUTime:  p.CPUTime + o.CPUTime,
		IOTime:   p.IOTime + o.IOTime,
	}
}

// Report is the simulated outcome of a job on one node of the cluster
// (nodes are symmetric; cluster energy is Nodes x node energy over the same
// wall time).
type Report struct {
	// Workload names the simulated job.
	Workload string
	// Core and Frequency echo the platform.
	Core      string
	Frequency units.Hertz
	// Phases maps each MapReduce phase to its stats.
	Phases map[Phase]PhaseStat
	// Total aggregates all phases.
	Total PhaseStat
	// MapTasks, Waves and SpillsPerTask describe the map-phase structure.
	MapTasks      int
	Waves         int
	SpillsPerTask int
	// MapIPC is the map-phase achieved IPC on this core.
	MapIPC float64
	// ReduceIPC is the reduce-phase achieved IPC (0 if no reduce).
	ReduceIPC float64
}

// Others aggregates the non-map, non-reduce phases (setup, shuffle, sort,
// cleanup), matching the paper's execution-time breakdown category.
func (r Report) Others() PhaseStat {
	out := PhaseStat{}
	for _, ph := range Phases() {
		if ph == PhaseMap || ph == PhaseReduce {
			continue
		}
		out = out.addSerial(r.Phases[ph])
	}
	return out
}

// MapReduceOnly returns map-phase and reduce-phase stats.
func (r Report) MapReduceOnly() (PhaseStat, PhaseStat) {
	return r.Phases[PhaseMap], r.Phases[PhaseReduce]
}

// Fixed scheduling constants of the engine model.
const (
	// setupBase is the job submission/initialization cost (Hadoop job
	// startup is tens of seconds on the big core at nominal frequency).
	setupBase = units.Seconds(18.0)
	// setupPerTask is the master's per-task bookkeeping during setup.
	setupPerTask = units.Seconds(0.05)
	// taskOverhead is the per-task launch cost (container start, heartbeat
	// round-trips) — the term that punishes small HDFS blocks.
	taskOverhead = units.Seconds(2.5)
	// cleanupTime finalizes outputs and commits the job.
	cleanupTime = units.Seconds(7.0)
	// ioOverlap is the fraction of the shorter of (CPU, IO) hidden under
	// the longer within a task (record-streaming pipelining).
	ioOverlap = 0.75
	// avgRecordBytes converts shuffle volume to record counts for the
	// n·log n sort-cost scaling.
	avgRecordBytes = 100
	// sortRefLogRecords anchors the n·log n scaling: a job shuffling 2^20
	// records pays the profile's nominal per-byte cost.
	sortRefLogRecords = 20.0
	// pageCacheCapacity is the DRAM available to the OS page cache (both
	// testbeds carry 8 GB). Datasets below this are served mostly from
	// memory — the effect behind the paper's large Xeon advantage on Sort
	// at 1 GB/node and its erosion at 10-20 GB.
	pageCacheCapacity = 5 * units.GB
	// pageCacheHitDiscount is the fraction of disk time removed for the
	// cached portion of the working data.
	pageCacheHitDiscount = 0.92
	// writeAbsorbFloor is the fraction of write time that remains on the
	// critical path when the writeback cache has room; as the dataset
	// outgrows RAM, writes become synchronous (see writeFactor).
	writeAbsorbFloor = 0.35
)

// writeFactor returns the critical-path fraction of write time for a job of
// the given size: async writeback absorbs most writes while the page cache
// has room, and degrades to synchronous as data outgrows RAM.
func writeFactor(data units.Bytes) float64 {
	return writeAbsorbFloor + (1-writeAbsorbFloor)*diskDiscount(data)
}

// mergeIPB is the CPU cost of re-reading, comparing and re-writing a byte
// during a spill merge pass.
const mergeIPB = 12

// ioPathIPB is the CPU cost of pushing one byte through the I/O stack:
// kernel, CRC32 checksumming, (de)serialization. On microserver-class
// cores this, not the spindle, is often the real price of "I/O intensity".
const ioPathIPB = 14

// ioCPUWeight scales I/O-stack CPU by how much of the traffic actually
// reaches the device: page-cache hits skip most of the kernel block path.
func ioCPUWeight(data units.Bytes) float64 {
	return 0.4 + 0.6*diskDiscount(data)
}

// ioPathProfile is the compute behaviour of the I/O stack: streaming and
// prefetch-friendly.
func ioPathProfile() isa.Profile {
	return isa.Profile{
		Name:                 "engine/iopath",
		InstructionsPerByte:  ioPathIPB,
		Mix:                  isa.Mix{isa.IntALU: 0.40, isa.Load: 0.30, isa.Store: 0.16, isa.Branch: 0.14},
		Mem:                  isa.MemBehavior{WorkingSet: 4 * units.MB, Locality: 0.2, CompulsoryMissRatio: 0.02, Dependence: 0.1},
		BranchMispredictRate: 0.02,
		ILP:                  2.2,
	}
}

// mergeProfile is the compute behaviour of multi-pass spill merging:
// streaming, comparison-heavy, cache-unfriendly.
func mergeProfile() isa.Profile {
	return isa.Profile{
		Name:                 "engine/merge",
		InstructionsPerByte:  mergeIPB,
		Mix:                  isa.Mix{isa.IntALU: 0.34, isa.Load: 0.32, isa.Store: 0.18, isa.Branch: 0.16},
		Mem:                  isa.MemBehavior{WorkingSet: 64 * units.MB, Locality: 0.3, CompulsoryMissRatio: 0.02},
		BranchMispredictRate: 0.05,
		ILP:                  2.0,
	}
}

// diskDiscount returns the multiplier applied to disk times given how much
// of the job's data the page cache can hold.
func diskDiscount(data units.Bytes) float64 {
	if data <= 0 {
		return 1
	}
	cached := float64(pageCacheCapacity) / float64(data)
	if cached > 1 {
		cached = 1
	}
	return 1 - pageCacheHitDiscount*cached
}

// Run simulates the job on the cluster and reports per-phase time and
// energy for one node. A cancelled context aborts before the model runs
// with an error wrapping ctx.Err(); an Observer carried by the context
// (obs.NewContext) receives a "sim.run" span plus per-phase duration
// gauges. With no observer the instrumentation is allocation-free.
func Run(ctx context.Context, cluster Cluster, job JobSpec) (Report, error) {
	if err := ctx.Err(); err != nil {
		return Report{}, fmt.Errorf("sim: %s: cancelled: %w", job.Name, err)
	}
	ob := obs.FromContext(ctx)
	var sp obs.Span
	if ob.Enabled() {
		sp = obs.Start(ob, "sim.run",
			obs.Str("workload", job.Name),
			obs.Str("core", cluster.Node.Core.Name))
		defer sp.End()
	}
	rep, err := simulate(cluster, job)
	if err != nil {
		return Report{}, err
	}
	if ob.Enabled() {
		for _, ph := range Phases() {
			ob.Gauge("sim.phase."+ph.String()+".seconds", float64(rep.Phases[ph].Time))
		}
	}
	return rep, nil
}

// simulate is the analytic model itself.
func simulate(cluster Cluster, job JobSpec) (Report, error) {
	if err := cluster.Validate(); err != nil {
		return Report{}, err
	}
	job.setDefaults(cluster.Node)
	if err := job.Validate(); err != nil {
		return Report{}, err
	}
	node := cluster.Node
	if !node.Core.SupportsFrequency(job.Frequency) {
		return Report{}, fmt.Errorf("%w: %s: core %s does not support %v", ErrUnsupportedFrequency, job.Name, node.Core.Name, job.Frequency)
	}

	spec := job.Spec
	cores := node.ActiveCores
	f := job.Frequency

	// Framework overheads (JVM startup, heartbeats, job bookkeeping) are
	// mostly single-threaded CPU work: they scale with the core's scalar
	// speed and partially with frequency.
	ovScale := overheadScale(node.Core, f)
	// Per-task launch cost is dominated by heartbeat/polling waits, which
	// are wall-clock rather than CPU: it barely scales with frequency.
	taskOv := units.Seconds(float64(taskOverhead) * overheadScaleWith(node.Core, f, 0.25))
	setupOv := units.Seconds(float64(setupBase) * ovScale)
	cleanupOv := units.Seconds(float64(cleanupTime) * ovScale)

	// ---- Map phase structure.
	costs, err := computeMapTaskCosts(cluster, node, job, spec, f)
	if err != nil {
		return Report{}, err
	}
	mapTasks := costs.tasks
	waves := (mapTasks + cores - 1) / cores
	mapTiming := costs.timing
	spills := costs.spills
	taskIOSolo := costs.ioSolo
	taskCPU := costs.cpu

	// Failed tasks are re-executed after the regular waves (the retry
	// tail), so the effective task count grows with the failure rate.
	retries := 0
	if job.TaskFailureRate > 0 {
		retries = int(float64(mapTasks)*job.TaskFailureRate + 0.999)
	}

	// Wave timing with disk sharing: tasks in a wave divide disk bandwidth.
	var mapTime, mapCPUTime, mapIOTime units.Seconds
	remaining := mapTasks + retries
	for remaining > 0 {
		concurrent := cores
		if remaining < cores {
			concurrent = remaining
		}
		ioT := units.Seconds(float64(taskIOSolo) * float64(concurrent))
		cpuT := units.Seconds(float64(taskCPU) * memContentionFactor(node.Core, concurrent, mapTiming.MemStallFraction))
		waveTime := taskOv + combineCPUIO(cpuT, ioT)
		mapTime += waveTime
		mapCPUTime += cpuT
		mapIOTime += ioT
		remaining -= concurrent
	}

	// ---- Shuffle: cross-node transfer plus reduce-side materialization.
	discount := diskDiscount(job.DataPerNode)
	wf := writeFactor(job.DataPerNode)
	shuffleBytes := units.Bytes(float64(job.DataPerNode) * spec.ShuffleRatio)
	var shuffleTime units.Seconds
	if shuffleBytes > 0 {
		cross := units.Bytes(float64(shuffleBytes) * float64(cluster.Nodes-1) / float64(cluster.Nodes))
		netT := units.Seconds(float64(cross) / float64(cluster.Network))
		diskT := units.Seconds(float64(node.Disk.WriteTime(shuffleBytes, node.Disk.InterleavedStreams(shuffleBytes))) * discount * wf)
		shuffleTime = maxSeconds(netT, diskT)
		// Early-starting reducers hide part of the shuffle under the map
		// phase (bounded by both the overlap fraction and the map time).
		if job.SlowstartOverlap > 0 {
			hidden := units.Seconds(float64(shuffleTime) * job.SlowstartOverlap)
			if hidden > mapTime {
				hidden = mapTime
			}
			shuffleTime -= hidden
		}
	}

	// ---- Reduce-side sort: extra merge rounds when segments exceed the
	// merge factor, plus — for sort-flavoured workloads without a real
	// reduce function (the Sort benchmark) — the shuffle-sort compute
	// itself, which is where the big core's latency hiding pays off.
	var sortTime, sortCPU, sortIO units.Seconds
	if shuffleBytes > 0 {
		extraPasses := mergePasses(mapTasks*cluster.Nodes/max(1, job.Reducers), job.MergeFactor)
		if extraPasses > 1 {
			perPass := float64(node.Disk.ReadTime(shuffleBytes, node.Disk.InterleavedStreams(shuffleBytes))) +
				float64(node.Disk.WriteTime(shuffleBytes, 1))*wf
			sortIO = units.Seconds(perPass * float64(extraPasses-1) * discount)
		}
	}
	if spec.SortSpill && !spec.HasReduce && shuffleBytes > 0 {
		effective := scaleNLogN(shuffleBytes)
		st, err := node.Core.Run(spec.ReduceProfile, effective, f)
		if err != nil {
			return Report{}, err
		}
		sortCPU = units.Seconds(float64(st.Time) / float64(cores))
		// The sorted output is written back to HDFS.
		outBytes := units.Bytes(float64(job.DataPerNode) * spec.ReduceOutputRatio)
		sortIO += units.Seconds(float64(node.Disk.WriteTime(outBytes, node.Disk.InterleavedStreams(outBytes))) * discount * wf)
	}
	sortTime = combineCPUIO(sortCPU, sortIO)

	// ---- Reduce phase.
	var reduceTime, reduceCPU, reduceIO units.Seconds
	var reduceTiming cpu.Timing
	if spec.HasReduce && shuffleBytes >= 0 {
		effective := shuffleBytes
		if spec.SortSpill && shuffleBytes > 0 {
			effective = scaleNLogN(shuffleBytes)
		}
		reduceTiming, err = node.Core.Run(spec.ReduceProfile, effective, f)
		if err != nil {
			return Report{}, err
		}
		reducers := job.Reducers
		if reducers > cores {
			reducers = cores
		}
		outBytes := units.Bytes(float64(job.DataPerNode) * spec.ReduceOutputRatio)
		ioCPU, err := node.Core.Run(ioPathProfile(), units.Bytes(float64(shuffleBytes+outBytes)*ioCPUWeight(job.DataPerNode)), f)
		if err != nil {
			return Report{}, err
		}
		cpuShare := units.Seconds(float64(reduceTiming.Time+ioCPU.Time) / float64(max(1, reducers)) *
			memContentionFactor(node.Core, reducers, reduceTiming.MemStallFraction))
		ioT := units.Seconds((float64(node.Disk.ReadTime(shuffleBytes, node.Disk.InterleavedStreams(shuffleBytes))) +
			float64(node.Disk.WriteTime(outBytes, node.Disk.InterleavedStreams(outBytes)))*wf) * discount)
		reduceTime = taskOv + combineCPUIO(cpuShare, ioT)
		reduceCPU = cpuShare
		reduceIO = ioT
	}

	// ---- Setup / cleanup.
	setupTime := setupOv + units.Seconds(float64(setupPerTask)*float64(mapTasks)*ovScale)

	// ---- Energy per phase.
	phases := map[Phase]PhaseStat{
		PhaseSetup: phaseStat(node, f, setupTime, power.Draw{
			ActiveCores: 1, Activity: 0.2, MemPressure: 0.1, DiskPressure: 0.05, F: f,
		}, 0, 0),
		PhaseMap: phaseStat(node, f, mapTime, power.Draw{
			ActiveCores:  cores,
			Activity:     clamp01(float64(mapCPUTime) / math.Max(1e-12, float64(mapTime))),
			MemPressure:  clamp01(mapTiming.MemStallFraction * 2),
			DiskPressure: clamp01(float64(mapIOTime) / math.Max(1e-12, float64(mapTime))),
			F:            f,
		}, mapCPUTime, mapIOTime),
		PhaseShuffle: phaseStat(node, f, shuffleTime, power.Draw{
			ActiveCores: cores, Activity: 0.15, MemPressure: 0.3, DiskPressure: 0.8, F: f,
		}, 0, shuffleTime),
		PhaseSort: phaseStat(node, f, sortTime, power.Draw{
			ActiveCores: cores,
			Activity:    clamp01(0.25 + float64(sortCPU)/math.Max(1e-12, float64(sortTime))),
			MemPressure: 0.5, DiskPressure: clamp01(float64(sortIO) / math.Max(1e-12, float64(sortTime))), F: f,
		}, sortCPU, sortIO),
		PhaseReduce: phaseStat(node, f, reduceTime, power.Draw{
			ActiveCores:  minInt(cores, job.Reducers),
			Activity:     clamp01(float64(reduceCPU) / math.Max(1e-12, float64(reduceTime))),
			MemPressure:  clamp01(reduceTiming.MemStallFraction * 2),
			DiskPressure: clamp01(float64(reduceIO) / math.Max(1e-12, float64(reduceTime))),
			F:            f,
		}, reduceCPU, reduceIO),
		PhaseCleanup: phaseStat(node, f, cleanupOv, power.Draw{
			ActiveCores: 1, Activity: 0.15, MemPressure: 0.05, DiskPressure: 0.2, F: f,
		}, 0, 0),
	}

	total := PhaseStat{}
	for _, ph := range Phases() {
		total = total.addSerial(phases[ph])
	}

	return Report{
		Workload:      job.Name,
		Core:          node.Core.Name,
		Frequency:     f,
		Phases:        phases,
		Total:         total,
		MapTasks:      mapTasks,
		Waves:         waves,
		SpillsPerTask: spills,
		MapIPC:        mapTiming.IPC,
		ReduceIPC:     reduceTiming.IPC,
	}, nil
}

// overheadScale converts the nominal (big core, 1.8 GHz) framework
// overheads to the current platform: the little core runs the
// single-threaded framework code about 1.8x slower, and 70% of overhead
// time scales inversely with frequency.
func overheadScale(core cpu.Core, f units.Hertz) float64 {
	// The big server's overheads wait more on network/disk round-trips
	// (weak frequency dependence); the little SoC's are CPU-bound.
	fdep := 0.45
	if core.Kind == cpu.Little {
		fdep = 0.8
	}
	return overheadScaleWith(core, f, fdep)
}

// overheadScaleWith scales a nominal (big core, 1.8 GHz) overhead to the
// platform with an explicit frequency-dependence fraction.
func overheadScaleWith(core cpu.Core, f units.Hertz, fdep float64) float64 {
	scale := 1.0
	if core.Kind == cpu.Little {
		scale = 1.8
	}
	return scale * ((1 - fdep) + fdep*float64(core.NominalFrequency)/float64(f))
}

// blockChurnFactor penalizes small HDFS blocks on memory-sensitive cores:
// rapid task turnover re-warms caches and TLBs constantly, which the paper
// identifies as the little core's memory-subsystem bottleneck that large
// blocks relieve.
func blockChurnFactor(core cpu.Core, block units.Bytes, memStallFraction float64) float64 {
	kappa := 0.1
	if core.Kind == cpu.Little {
		kappa = 0.6
	}
	ref := math.Sqrt(float64(32*units.MB) / float64(block))
	return 1 + kappa*ref*memStallFraction
}

// memContentionFactor stretches memory-stalled execution when several cores
// hammer the memory controller at once.
func memContentionFactor(core cpu.Core, concurrent int, memStallFraction float64) float64 {
	if concurrent <= 1 {
		return 1
	}
	return 1 + core.MemContention*float64(concurrent-1)*memStallFraction
}

// mapTaskCosts carries the per-map-task cost decomposition shared by the
// algebraic wave model (Run) and the task-level discrete-event refinement
// (DESRun).
type mapTaskCosts struct {
	tasks  int
	input  units.Bytes
	spills int
	// cpu is the per-task compute time (map function, merge passes, I/O
	// stack) before memory-contention scaling.
	cpu units.Seconds
	// ioSolo is the per-task disk time with the disk to itself.
	ioSolo units.Seconds
	timing cpu.Timing
}

// computeMapTaskCosts evaluates one map task's compute and I/O costs under
// the job's knobs.
func computeMapTaskCosts(cluster Cluster, node Node, job JobSpec, spec workloads.Spec, f units.Hertz) (mapTaskCosts, error) {
	mapTasks := int((job.DataPerNode + job.BlockSize - 1) / job.BlockSize)
	if mapTasks < 1 {
		mapTasks = 1
	}
	taskInput := job.BlockSize
	if units.Bytes(mapTasks)*job.BlockSize > job.DataPerNode {
		// Average the tail block in.
		taskInput = job.DataPerNode / units.Bytes(mapTasks)
	}
	mapTiming, err := node.Core.Run(spec.MapProfile, taskInput, f)
	if err != nil {
		return mapTaskCosts{}, err
	}

	// Per-task I/O: block read, spill writes, multi-pass merge.
	mapOutput := units.Bytes(float64(taskInput) * spec.MapOutputRatio)
	spills := 1
	if mapOutput > 0 {
		spills = int((mapOutput + job.SortBuffer - 1) / job.SortBuffer)
		if spills < 1 {
			spills = 1
		}
	}
	spillBytes := units.Bytes(float64(mapOutput) / spec.SpillReduction)
	mergeRounds := mergePasses(spills, job.MergeFactor)
	discount := diskDiscount(job.DataPerNode)
	ioRead := node.Disk.ReadTime(taskInput, 1)
	// Non-local tasks pull their block across the network; the remote
	// datanode's disk overlaps the transfer, so the stream is bounded by
	// the slower of the two, approximated as network time plus a residual
	// disk share.
	if job.NonLocalFraction > 0 {
		netRead := units.Seconds(float64(taskInput) / float64(cluster.Network))
		remote := netRead + units.Seconds(0.2*float64(ioRead))
		ioRead = units.Seconds((1-job.NonLocalFraction)*float64(ioRead) + job.NonLocalFraction*float64(remote))
	}
	wf := writeFactor(job.DataPerNode)
	ioSpill := units.Seconds(float64(node.Disk.WriteTime(spillBytes, spills)) * wf)
	var ioMerge units.Seconds
	if mergeRounds > 0 {
		perPass := float64(node.Disk.ReadTime(spillBytes, spills)) +
			float64(node.Disk.WriteTime(spillBytes, 1))*wf
		ioMerge = units.Seconds(perPass * float64(mergeRounds))
	}
	taskIOSolo := units.Seconds(float64(ioRead+ioSpill+ioMerge) * discount)

	// Merge passes also re-process every spilled byte on the CPU.
	var mergeCPU units.Seconds
	if mergeRounds > 0 {
		mt, err := node.Core.Run(mergeProfile(), units.Bytes(float64(spillBytes)*float64(mergeRounds)), f)
		if err != nil {
			return mapTaskCosts{}, err
		}
		mergeCPU = mt.Time
	}
	// Every byte through the I/O stack costs CPU (kernel, CRC,
	// serialization); traffic that misses the page cache pays the full
	// block-layer path.
	taskIOBytes := units.Bytes(float64(taskInput+spillBytes+units.Bytes(float64(spillBytes)*float64(mergeRounds))) * ioCPUWeight(job.DataPerNode))
	ioCPUTiming, err := node.Core.Run(ioPathProfile(), taskIOBytes, f)
	if err != nil {
		return mapTaskCosts{}, err
	}
	taskCPU := units.Seconds(float64(mapTiming.Time)*blockChurnFactor(node.Core, job.BlockSize, mapTiming.MemStallFraction)) +
		mergeCPU + ioCPUTiming.Time

	return mapTaskCosts{
		tasks:  mapTasks,
		input:  taskInput,
		spills: spills,
		cpu:    taskCPU,
		ioSolo: taskIOSolo,
		timing: mapTiming,
	}, nil
}

// combineCPUIO merges compute and I/O durations with partial overlap.
func combineCPUIO(cpuT, ioT units.Seconds) units.Seconds {
	hi, lo := cpuT, ioT
	if lo > hi {
		hi, lo = lo, hi
	}
	return hi + units.Seconds(float64(lo)*(1-ioOverlap))
}

// phaseStat packages time and energy for one phase.
func phaseStat(node Node, f units.Hertz, t units.Seconds, d power.Draw, cpuT, ioT units.Seconds) PhaseStat {
	if t <= 0 {
		return PhaseStat{}
	}
	p := node.Power.Dynamic(d)
	return PhaseStat{
		Time:     t,
		Energy:   units.Energy(p, t),
		AvgPower: p,
		CPUTime:  cpuT,
		IOTime:   ioT,
		Draw:     d,
	}
}

// scaleNLogN inflates a shuffled byte volume by the n·log n sort-cost
// factor relative to the 2^20-record anchor.
func scaleNLogN(b units.Bytes) units.Bytes {
	records := float64(b) / avgRecordBytes
	if records < 2 {
		return b
	}
	factor := math.Log2(records) / sortRefLogRecords
	if factor <= 1 {
		return b
	}
	return units.Bytes(float64(b) * factor)
}

// mergePasses mirrors the engine's multi-pass merge round count.
func mergePasses(n, factor int) int {
	if n <= 1 {
		return 0
	}
	passes := 0
	for n > 1 {
		n = (n + factor - 1) / factor
		passes++
	}
	return passes
}

func maxSeconds(a, b units.Seconds) units.Seconds {
	if a > b {
		return a
	}
	return b
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

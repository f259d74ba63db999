package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"

	"heterohadoop/internal/units"
)

// DESOptions configures the task-level discrete-event refinement.
type DESOptions struct {
	// Seed drives the per-task duration jitter.
	Seed int64
	// Jitter is the half-width of the uniform multiplicative noise on task
	// durations (0.15 = tasks vary ±15%, the straggler spread real Hadoop
	// jobs show). Zero disables noise.
	Jitter float64
}

// Validate checks the options.
func (o DESOptions) Validate() error {
	if o.Jitter < 0 || o.Jitter >= 1 {
		return fmt.Errorf("sim: jitter %v out of [0,1)", o.Jitter)
	}
	return nil
}

// slotHeap is a min-heap of core-slot free times.
type slotHeap []units.Seconds

func (h slotHeap) Len() int            { return len(h) }
func (h slotHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h slotHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x interface{}) { *h = append(*h, x.(units.Seconds)) }
func (h *slotHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// DESRun refines the map phase at task granularity with an event-driven
// list scheduler: individual (jittered) tasks are placed on core slots as
// they free up, so wave boundaries blur and stragglers lengthen the tail —
// the behaviour the algebraic wave model in Run approximates. The other
// phases are taken from the algebraic run unchanged. DESRun exists to
// validate the wave approximation (the tests require agreement) and to
// study straggler tails.
func DESRun(ctx context.Context, cluster Cluster, job JobSpec, opts DESOptions) (Report, error) {
	if err := opts.Validate(); err != nil {
		return Report{}, err
	}
	base, err := Run(ctx, cluster, job)
	if err != nil {
		return Report{}, err
	}
	job.setDefaults(cluster.Node)
	node := cluster.Node
	cores := node.ActiveCores
	f := job.Frequency

	costs, err := computeMapTaskCosts(cluster, node, job, job.Spec, f)
	if err != nil {
		return Report{}, err
	}
	taskOv := units.Seconds(float64(taskOverhead) * overheadScaleWith(node.Core, f, 0.25))

	retries := 0
	if job.TaskFailureRate > 0 {
		retries = int(float64(costs.tasks)*job.TaskFailureRate + 0.999)
	}
	total := costs.tasks + retries

	rng := rand.New(rand.NewSource(opts.Seed))
	slots := make(slotHeap, cores)
	heap.Init(&slots)

	// busy returns the instantaneous concurrency implied by slot state: a
	// new task starting at time t contends with every slot still running.
	var makespan units.Seconds
	var cpuSum, ioSum units.Seconds
	for i := 0; i < total; i++ {
		start := heap.Pop(&slots).(units.Seconds)
		// Concurrency estimate: slots whose free time is beyond `start`
		// are running tasks that overlap this one.
		concurrent := 1
		for _, ft := range slots {
			if ft > start {
				concurrent++
			}
		}
		jit := 1.0
		if opts.Jitter > 0 {
			jit = 1 + opts.Jitter*(2*rng.Float64()-1)
		}
		cpuT := units.Seconds(float64(costs.cpu) * jit *
			memContentionFactor(node.Core, concurrent, costs.timing.MemStallFraction))
		ioT := units.Seconds(float64(costs.ioSolo) * jit * float64(concurrent))
		dur := taskOv + combineCPUIO(cpuT, ioT)
		finish := start + dur
		heap.Push(&slots, finish)
		if finish > makespan {
			makespan = finish
		}
		cpuSum += cpuT
		ioSum += ioT
	}

	// Replace the algebraic map phase with the DES one, keeping the same
	// power draw (the workload character is unchanged).
	mapStat := base.Phases[PhaseMap]
	ratio := 1.0
	if mapStat.Time > 0 {
		ratio = float64(makespan) / float64(mapStat.Time)
	}
	newMap := PhaseStat{
		Time:     makespan,
		Energy:   units.Joules(float64(mapStat.Energy) * ratio),
		AvgPower: mapStat.AvgPower,
		CPUTime:  cpuSum,
		IOTime:   ioSum,
	}
	base.Phases[PhaseMap] = newMap
	totalStat := PhaseStat{}
	for _, ph := range Phases() {
		totalStat = totalStat.addSerial(base.Phases[ph])
	}
	base.Total = totalStat
	return base, nil
}

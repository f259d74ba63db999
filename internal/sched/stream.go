package sched

import (
	"context"
	"fmt"
	"sort"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// StreamJob is one arrival in a job stream.
type StreamJob struct {
	// Workload is the application.
	Workload workloads.Workload
	// Arrival is the submission time in seconds.
	Arrival units.Seconds
	// Data is the per-node input size.
	Data units.Bytes
}

// Placement strategies for the stream simulation.
type Strategy int

// Strategies.
const (
	// PolicyStrategy uses the paper's class-based policy.
	PolicyStrategy Strategy = iota
	// BigOnlyStrategy runs everything on big cores.
	BigOnlyStrategy
	// LittleOnlyStrategy runs everything on little cores.
	LittleOnlyStrategy
	// OptimalStrategy exhaustively picks the per-job EDP optimum.
	OptimalStrategy
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case PolicyStrategy:
		return "paper-policy"
	case BigOnlyStrategy:
		return "big-only"
	case LittleOnlyStrategy:
		return "little-only"
	case OptimalStrategy:
		return "per-job-optimal"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// StreamOutcome summarizes one strategy's handling of a job stream.
type StreamOutcome struct {
	// Strategy echoes the policy used.
	Strategy Strategy
	// Makespan is the completion time of the last job.
	Makespan units.Seconds
	// TotalEnergy sums every job's dynamic energy.
	TotalEnergy units.Joules
	// MeanWait is the average queueing delay before a job starts.
	MeanWait units.Seconds
	// EDP is TotalEnergy x Makespan, the stream-level figure of merit.
	EDP float64
	// PerJob records each job's (start, finish, platform).
	PerJob []StreamJobOutcome
}

// StreamJobOutcome is one job's schedule in the stream.
type StreamJobOutcome struct {
	Job      string
	Kind     cpu.Kind
	Cores    int
	Start    units.Seconds
	Finish   units.Seconds
	Duration units.Seconds
	Energy   units.Joules
}

// SimulateStream runs the job stream against a pool of big and little cores
// using the given strategy. Jobs are served FCFS: a job waits until its
// preferred platform has enough free cores; allocations shrink to what is
// available (minimum two cores). Durations and energies come from the
// cluster simulator via Evaluate.
func SimulateStream(ctx context.Context, pool Pool, jobs []StreamJob, strategy Strategy, goal Goal, f units.Hertz) (StreamOutcome, error) {
	if len(jobs) == 0 {
		return StreamOutcome{}, fmt.Errorf("sched: empty job stream")
	}
	ordered := append([]StreamJob(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })

	// busyUntil tracks, per platform, the release times of allocated core
	// groups: a simple resource calendar.
	type lease struct {
		cores int
		until units.Seconds
	}
	leases := map[cpu.Kind][]lease{}
	capacity := map[cpu.Kind]int{cpu.Big: pool.BigCores, cpu.Little: pool.LittleCores}

	freeAt := func(kind cpu.Kind, t units.Seconds) int {
		used := 0
		for _, l := range leases[kind] {
			if l.until > t {
				used += l.cores
			}
		}
		return capacity[kind] - used
	}
	// nextRelease returns the earliest future release time for a platform.
	nextRelease := func(kind cpu.Kind, t units.Seconds) (units.Seconds, bool) {
		best := units.Seconds(0)
		found := false
		for _, l := range leases[kind] {
			if l.until > t && (!found || l.until < best) {
				best, found = l.until, true
			}
		}
		return best, found
	}

	out := StreamOutcome{Strategy: strategy}
	var totalWait units.Seconds
	for _, job := range ordered {
		d, err := decide(ctx, job.Workload, strategy, goal, job.Data, f)
		if err != nil {
			return StreamOutcome{}, err
		}
		if d.Cores > capacity[d.Kind] {
			d.Cores = capacity[d.Kind]
		}
		if d.Cores < 2 && capacity[d.Kind] >= 2 {
			d.Cores = 2
		}
		if d.Cores < 1 {
			return StreamOutcome{}, fmt.Errorf("sched: platform %v has no capacity", d.Kind)
		}
		// Wait until enough cores are free.
		start := job.Arrival
		for freeAt(d.Kind, start) < d.Cores {
			rel, ok := nextRelease(d.Kind, start)
			if !ok {
				return StreamOutcome{}, fmt.Errorf("sched: %s deadlocked waiting for %v cores", job.Workload.Name(), d.Kind)
			}
			start = rel
		}
		sample, err := Evaluate(ctx, job.Workload, d.Kind, d.Cores, job.Data, f)
		if err != nil {
			return StreamOutcome{}, err
		}
		finish := start + sample.Delay
		leases[d.Kind] = append(leases[d.Kind], lease{cores: d.Cores, until: finish})
		totalWait += start - job.Arrival
		out.TotalEnergy += sample.Energy
		if finish > out.Makespan {
			out.Makespan = finish
		}
		out.PerJob = append(out.PerJob, StreamJobOutcome{
			Job: job.Workload.Name(), Kind: d.Kind, Cores: d.Cores,
			Start: start, Finish: finish, Duration: sample.Delay, Energy: sample.Energy,
		})
	}
	out.MeanWait = units.Seconds(float64(totalWait) / float64(len(ordered)))
	out.EDP = float64(out.TotalEnergy) * float64(out.Makespan)
	return out, nil
}

// decide maps a strategy to a placement decision for one job.
func decide(ctx context.Context, w workloads.Workload, strategy Strategy, goal Goal, data units.Bytes, f units.Hertz) (Decision, error) {
	switch strategy {
	case PolicyStrategy:
		return Policy(w.Class(), goal), nil
	case BigOnlyStrategy:
		return Decision{Kind: cpu.Big, Cores: 8, Rationale: "big-only baseline"}, nil
	case LittleOnlyStrategy:
		return Decision{Kind: cpu.Little, Cores: 8, Rationale: "little-only baseline"}, nil
	case OptimalStrategy:
		d, _, err := Optimal(ctx, w, goal, data, f)
		return d, err
	default:
		return Decision{}, fmt.Errorf("sched: unknown strategy %v", strategy)
	}
}

// CompareStrategies runs the stream under every strategy and returns the
// outcomes keyed by strategy.
func CompareStrategies(ctx context.Context, pool Pool, jobs []StreamJob, goal Goal, f units.Hertz) (map[Strategy]StreamOutcome, error) {
	out := make(map[Strategy]StreamOutcome, 4)
	for _, s := range []Strategy{PolicyStrategy, BigOnlyStrategy, LittleOnlyStrategy, OptimalStrategy} {
		o, err := SimulateStream(ctx, pool, jobs, s, goal, f)
		if err != nil {
			return nil, fmt.Errorf("sched: strategy %v: %w", s, err)
		}
		out[s] = o
	}
	return out, nil
}

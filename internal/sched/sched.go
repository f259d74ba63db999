// Package sched implements the paper's §3.5 scheduling of big-data
// applications onto heterogeneous big+little server pools. It contains the
// paper's published policy (pseudo-code reproduced verbatim in Policy), an
// exhaustive simulator-backed search (Optimal) used to validate the policy,
// and a greedy allocator for job streams over a mixed core pool.
package sched

import (
	"context"
	"fmt"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/metrics"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// Goal is the cost function being minimized.
type Goal int

// Goals: operational cost (EDP family) and combined operational+capital
// cost (EDAP family), each with a near-real-time variant.
const (
	MinEDP Goal = iota
	MinED2P
	MinEDAP
	MinED2AP
)

// String names the goal.
func (g Goal) String() string {
	switch g {
	case MinEDP:
		return "EDP"
	case MinED2P:
		return "ED2P"
	case MinEDAP:
		return "EDAP"
	case MinED2AP:
		return "ED2AP"
	default:
		return fmt.Sprintf("Goal(%d)", int(g))
	}
}

// score evaluates the goal on a sample.
func (g Goal) score(s metrics.Sample) float64 {
	switch g {
	case MinEDP:
		return s.EDP()
	case MinED2P:
		return s.ED2P()
	case MinEDAP:
		return s.EDAP()
	default:
		return s.ED2AP()
	}
}

// Decision is a scheduling outcome: which core class and how many cores.
type Decision struct {
	// Kind is the chosen core class.
	Kind cpu.Kind
	// Cores is the number of cores (and mappers) to allocate.
	Cores int
	// Rationale explains the choice.
	Rationale string
}

// CoreCounts is the paper's swept allocation set.
var CoreCounts = []int{2, 4, 6, 8}

// Policy is the paper's published pseudo-code, reproduced directly:
//
//	If App = C (compute-bound):
//	    assign a large number of Atom cores (A = 8);
//	    fine-tune configuration parameters to reduce the number of cores.
//	If App = I (I/O-bound):
//	    assign a small number of Xeon cores (X = 4).
//	If App = H (hybrid):
//	    for min ED2AP assign a small number of Xeon cores (X = 2);
//	    otherwise assign a large number of Atom cores (A = 8).
func Policy(class workloads.Class, goal Goal) Decision {
	switch class {
	case workloads.Compute:
		return Decision{
			Kind:      cpu.Little,
			Cores:     8,
			Rationale: "compute-bound: many little cores minimize operational and capital cost",
		}
	case workloads.IO:
		return Decision{
			Kind:      cpu.Big,
			Cores:     4,
			Rationale: "I/O-bound: few big cores; the big core's latency hiding wins on I/O-intensive work",
		}
	default: // Hybrid
		if goal == MinED2AP {
			return Decision{
				Kind:      cpu.Big,
				Cores:     2,
				Rationale: "hybrid under real-time cost constraints: two big cores beat many little ones on ED2AP",
			}
		}
		return Decision{
			Kind:      cpu.Little,
			Cores:     8,
			Rationale: "hybrid: many little cores minimize operational cost",
		}
	}
}

// Evaluate simulates the workload on the given core class and count and
// returns the cost-metric sample (energy, delay, chip area). The context
// flows into the simulator run, so an Observer carried by it sees the
// sim.run span, and cancellation aborts the cell.
func Evaluate(ctx context.Context, w workloads.Workload, kind cpu.Kind, cores int, data units.Bytes, f units.Hertz) (metrics.Sample, error) {
	node := sim.AtomNode(cores)
	if kind == cpu.Big {
		node = sim.XeonNode(cores)
	}
	// Table 3 sets the number of mappers equal to the number of cores, so
	// the split size follows the allocation (capped at the paper's tuned
	// 512 MB block). Ceiling division keeps the task count at exactly the
	// core count instead of spilling a tiny straggler task.
	block := (data + units.Bytes(cores) - 1) / units.Bytes(cores)
	if block > 512*units.MB {
		block = 512 * units.MB
	}
	if block < units.MB {
		block = units.MB
	}
	r, err := sim.Run(ctx, sim.NewCluster(node), sim.JobSpec{
		Name:        w.Name(),
		Spec:        w.Spec(),
		DataPerNode: data,
		BlockSize:   block,
		Frequency:   f,
		Reducers:    cores,
	})
	if err != nil {
		return metrics.Sample{}, err
	}
	// Capital cost is charged for the silicon actually allocated: the
	// chip's per-core area times the core count (this is the accounting
	// under which the paper's Table 3 EDAP rises with core count while
	// EDP falls).
	area := units.SquareMM(float64(node.Core.Area) * float64(cores) / float64(node.Core.MaxCores))
	return metrics.Sample{
		Energy: r.Total.Energy,
		Delay:  r.Total.Time,
		Area:   area,
	}, nil
}

// Optimal exhaustively searches both core classes and all core counts for
// the allocation minimizing the goal, using the simulator. A cancelled
// context stops the search with an error wrapping ctx.Err(). Ties go to
// the first cell in (Little, Big) × CoreCounts order.
func Optimal(ctx context.Context, w workloads.Workload, goal Goal, data units.Bytes, f units.Hertz) (Decision, metrics.Sample, error) {
	var (
		best       Decision
		bestSample metrics.Sample
		bestScore  = -1.0
	)
	for _, kind := range []cpu.Kind{cpu.Little, cpu.Big} {
		for _, m := range CoreCounts {
			s, err := Evaluate(ctx, w, kind, m, data, f)
			if err != nil {
				return Decision{}, metrics.Sample{}, err
			}
			if score := goal.score(s); bestScore < 0 || score < bestScore {
				bestScore = score
				bestSample = s
				best = Decision{Kind: kind, Cores: m, Rationale: fmt.Sprintf("exhaustive argmin of %v", goal)}
			}
		}
	}
	return best, bestSample, nil
}

// Assignment pairs a job with its scheduled platform.
type Assignment struct {
	Job      string
	Decision Decision
}

// Pool is the available heterogeneous capacity.
type Pool struct {
	BigCores    int
	LittleCores int
}

// Allocate schedules a stream of jobs over a heterogeneous pool using the
// paper's policy, shrinking allocations when capacity runs short. It
// returns the assignments in input order; a job that cannot get at least
// two cores of its preferred class falls back to the other class.
func Allocate(pool Pool, jobs []workloads.Workload, goal Goal) []Assignment {
	free := map[cpu.Kind]int{cpu.Big: pool.BigCores, cpu.Little: pool.LittleCores}
	out := make([]Assignment, 0, len(jobs))
	for _, job := range jobs {
		d := Policy(job.Class(), goal)
		if free[d.Kind] < d.Cores {
			d.Cores = free[d.Kind]
		}
		if d.Cores < 2 {
			other := cpu.Big
			if d.Kind == cpu.Big {
				other = cpu.Little
			}
			if free[other] >= 2 {
				d = Decision{Kind: other, Cores: minInt(free[other], 8), Rationale: d.Rationale + " (fallback: preferred class exhausted)"}
			} else {
				d = Decision{Kind: d.Kind, Cores: 0, Rationale: "pool exhausted"}
			}
		}
		free[d.Kind] -= d.Cores
		out = append(out, Assignment{Job: job.Name(), Decision: d})
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package sim

import "fmt"

// Phase is one stage of a MapReduce job's execution, mirroring the paper's
// breakdown (map, reduce, and "others" = setup + shuffle/sort + cleanup).
type Phase int

// Execution phases.
const (
	PhaseSetup Phase = iota
	PhaseMap
	PhaseShuffle
	PhaseSort
	PhaseReduce
	PhaseCleanup
)

// Phases lists all phases in execution order.
func Phases() []Phase {
	return []Phase{PhaseSetup, PhaseMap, PhaseShuffle, PhaseSort, PhaseReduce, PhaseCleanup}
}

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseSetup:
		return "setup"
	case PhaseMap:
		return "map"
	case PhaseShuffle:
		return "shuffle"
	case PhaseSort:
		return "sort"
	case PhaseReduce:
		return "reduce"
	case PhaseCleanup:
		return "cleanup"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

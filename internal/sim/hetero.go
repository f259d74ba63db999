package sim

import (
	"context"
	"fmt"

	"heterohadoop/internal/units"
)

// PhaseSplitReport is the outcome of running one job across a heterogeneous
// pair of clusters: the map phase on one platform and the shuffle/sort/
// reduce pipeline on the other — the phase-level scheduling the paper's
// characterization motivates for future heterogeneous clouds ("map prefers
// little, memory-intensive reduce prefers big").
type PhaseSplitReport struct {
	// MapOn and ReduceOn name the platforms used per side.
	MapOn    string
	ReduceOn string
	// Phases carries each phase's stats, taken from the platform that
	// executed it (setup on the map platform, cleanup on the reduce one).
	Phases map[Phase]PhaseStat
	// Total aggregates all phases plus the cross-platform handoff.
	Total PhaseStat
	// Handoff is the extra transfer cost of moving the shuffle across the
	// platform boundary instead of within one cluster.
	Handoff PhaseStat
}

// RunPhaseSplit simulates the job with its map phase on mapCluster and the
// shuffle/sort/reduce phases on reduceCluster. The intermediate data
// crosses the network between the two platforms, which costs an extra
// serialized transfer at the slower of the two clusters' link speeds.
func RunPhaseSplit(ctx context.Context, mapCluster, reduceCluster Cluster, job JobSpec) (PhaseSplitReport, error) {
	mapRep, err := Run(ctx, mapCluster, job)
	if err != nil {
		return PhaseSplitReport{}, fmt.Errorf("sim: phase-split map side: %w", err)
	}
	redRep, err := Run(ctx, reduceCluster, job)
	if err != nil {
		return PhaseSplitReport{}, fmt.Errorf("sim: phase-split reduce side: %w", err)
	}

	phases := map[Phase]PhaseStat{
		PhaseSetup:   mapRep.Phases[PhaseSetup],
		PhaseMap:     mapRep.Phases[PhaseMap],
		PhaseShuffle: redRep.Phases[PhaseShuffle],
		PhaseSort:    redRep.Phases[PhaseSort],
		PhaseReduce:  redRep.Phases[PhaseReduce],
		PhaseCleanup: redRep.Phases[PhaseCleanup],
	}

	// Cross-platform handoff: the full shuffle volume crosses the wire
	// (no node-local fraction), bounded by the slower link. Both sides
	// burn transfer power for its duration.
	shuffleBytes := units.Bytes(float64(job.DataPerNode) * job.Spec.ShuffleRatio)
	var handoff PhaseStat
	if shuffleBytes > 0 {
		link := mapCluster.Network
		if reduceCluster.Network < link {
			link = reduceCluster.Network
		}
		t := units.Seconds(float64(shuffleBytes) / float64(link))
		// Transfer power: the sending map platform's shuffle draw plus the
		// receiving side's; approximate with both phases' average powers.
		p := mapRep.Phases[PhaseShuffle].AvgPower + redRep.Phases[PhaseShuffle].AvgPower
		if p == 0 {
			p = mapRep.Phases[PhaseMap].AvgPower * 0.3
		}
		handoff = PhaseStat{Time: t, Energy: units.Energy(p, t), AvgPower: p, IOTime: t}
	}

	total := handoff
	for _, ph := range Phases() {
		total = total.addSerial(phases[ph])
	}
	return PhaseSplitReport{
		MapOn:    mapRep.Core,
		ReduceOn: redRep.Core,
		Phases:   phases,
		Total:    total,
		Handoff:  handoff,
	}, nil
}

// EDP returns the report's energy-delay product.
func (r PhaseSplitReport) EDP() float64 {
	return float64(r.Total.Energy) * float64(r.Total.Time)
}

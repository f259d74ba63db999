package sim

import (
	"context"
	"fmt"

	"heterohadoop/internal/units"
)

// PerPhaseDVFSReport is the outcome of running one job with different DVFS
// points per phase — a phase-aware governor built on the paper's
// characterization (compute-bound map phases reward high frequency; I/O- and
// memory-bound phases barely notice it, so they can run slow and cool).
type PerPhaseDVFSReport struct {
	// MapFrequency and ReduceFrequency echo the chosen operating points
	// (the reduce frequency also covers shuffle and sort).
	MapFrequency    float64
	ReduceFrequency float64
	// Phases and Total follow the usual report conventions.
	Phases map[Phase]PhaseStat
	Total  PhaseStat
}

// EDP returns the run's energy-delay product.
func (r PerPhaseDVFSReport) EDP() float64 {
	return float64(r.Total.Energy) * float64(r.Total.Time)
}

// RunPerPhaseDVFS simulates the job with the map phase (and setup) at mapF
// and the shuffle/sort/reduce pipeline (and cleanup) at reduceF on the same
// cluster. DVFS transitions are effectively free at MapReduce phase
// granularity (microseconds against seconds).
func RunPerPhaseDVFS(ctx context.Context, cluster Cluster, job JobSpec, mapF, reduceF float64) (PerPhaseDVFSReport, error) {
	mapJob := job
	mapJob.Frequency = ghz(mapF)
	mapRep, err := Run(ctx, cluster, mapJob)
	if err != nil {
		return PerPhaseDVFSReport{}, fmt.Errorf("sim: per-phase DVFS map side: %w", err)
	}
	redJob := job
	redJob.Frequency = ghz(reduceF)
	redRep, err := Run(ctx, cluster, redJob)
	if err != nil {
		return PerPhaseDVFSReport{}, fmt.Errorf("sim: per-phase DVFS reduce side: %w", err)
	}
	phases := map[Phase]PhaseStat{
		PhaseSetup:   mapRep.Phases[PhaseSetup],
		PhaseMap:     mapRep.Phases[PhaseMap],
		PhaseShuffle: redRep.Phases[PhaseShuffle],
		PhaseSort:    redRep.Phases[PhaseSort],
		PhaseReduce:  redRep.Phases[PhaseReduce],
		PhaseCleanup: redRep.Phases[PhaseCleanup],
	}
	total := PhaseStat{}
	for _, ph := range Phases() {
		total = total.addSerial(phases[ph])
	}
	return PerPhaseDVFSReport{
		MapFrequency:    mapF,
		ReduceFrequency: reduceF,
		Phases:          phases,
		Total:           total,
	}, nil
}

// BestPerPhaseDVFS sweeps all (mapF, reduceF) combinations over the paper's
// DVFS points and returns the EDP-optimal assignment.
func BestPerPhaseDVFS(ctx context.Context, cluster Cluster, job JobSpec) (PerPhaseDVFSReport, error) {
	points := []float64{1.2, 1.4, 1.6, 1.8}
	var best PerPhaseDVFSReport
	bestScore := -1.0
	for _, mf := range points {
		for _, rf := range points {
			r, err := RunPerPhaseDVFS(ctx, cluster, job, mf, rf)
			if err != nil {
				return PerPhaseDVFSReport{}, err
			}
			if score := r.EDP(); bestScore < 0 || score < bestScore {
				bestScore = score
				best = r
			}
		}
	}
	return best, nil
}

// ghz converts a GHz float into the units type.
func ghz(f float64) units.Hertz { return units.Hertz(f) * units.GHz }

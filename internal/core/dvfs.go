package core

import (
	"context"
	"fmt"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// DVFSAdvice is the outcome of the frequency/block-size co-tuning study the
// paper motivates in §3.1.1: "instead of operating the core at a higher
// frequency, we can operate it at a lower frequency while selecting an HDFS
// block size that is sufficiently large, which reduces the performance
// sensitivity to frequency and therefore reduces the power as well."
type DVFSAdvice struct {
	// Frequency is the recommended (lowest admissible) DVFS point.
	Frequency units.Hertz
	// BlockSize is the co-tuned HDFS block size at that frequency.
	BlockSize units.Bytes
	// Time is the predicted execution time at the recommendation.
	Time units.Seconds
	// Baseline is the execution time at nominal frequency with the
	// baseline block size.
	Baseline units.Seconds
	// EnergySaving is the fractional dynamic-energy reduction relative to
	// the baseline configuration.
	EnergySaving float64
}

// paperBlockSizes is the tuning grid.
var paperBlockSizes = []units.Bytes{
	32 * units.MB, 64 * units.MB, 128 * units.MB, 256 * units.MB, 512 * units.MB,
}

// AdviseDVFS finds the lowest DVFS point that, with a co-tuned block size,
// keeps execution time within the slowdown budget (e.g. 1.1 = 10%) of the
// nominal-frequency run at the baseline block size, and reports the energy
// saved. It returns an error if even nominal frequency cannot meet the
// budget (impossible for budgets >= 1).
func AdviseDVFS(ctx context.Context, w workloads.Workload, data units.Bytes, p Platform, baselineBlock units.Bytes, budget float64) (DVFSAdvice, error) {
	if budget < 1 {
		return DVFSAdvice{}, fmt.Errorf("core: slowdown budget must be >= 1, got %v", budget)
	}
	nominal := p
	nominal.Frequency = 1.8 * units.GHz
	base, err := Characterize(ctx, Config{Workload: w, DataPerNode: data, BlockSize: baselineBlock, Platform: nominal})
	if err != nil {
		return DVFSAdvice{}, err
	}
	limit := units.Seconds(float64(base.Sim.Total.Time) * budget)

	for _, fg := range []float64{1.2, 1.4, 1.6, 1.8} {
		f := units.Hertz(fg) * units.GHz
		plat := p
		plat.Frequency = f
		var bestBlock units.Bytes
		var bestTime units.Seconds
		var bestEnergy units.Joules
		for _, bs := range paperBlockSizes {
			r, err := Characterize(ctx, Config{Workload: w, DataPerNode: data, BlockSize: bs, Platform: plat})
			if err != nil {
				return DVFSAdvice{}, err
			}
			if bestBlock == 0 || r.Sim.Total.Time < bestTime {
				bestBlock, bestTime, bestEnergy = bs, r.Sim.Total.Time, r.Sim.Total.Energy
			}
		}
		if bestTime <= limit {
			saving := 1 - float64(bestEnergy)/float64(base.Sim.Total.Energy)
			return DVFSAdvice{
				Frequency:    f,
				BlockSize:    bestBlock,
				Time:         bestTime,
				Baseline:     base.Sim.Total.Time,
				EnergySaving: saving,
			}, nil
		}
	}
	return DVFSAdvice{}, fmt.Errorf("core: no DVFS point meets a %.2fx budget", budget)
}

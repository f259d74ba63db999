package expt

import (
	"context"
	"fmt"

	"heterohadoop/internal/dse"
	"heterohadoop/internal/power"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// The ext* artefacts go beyond the paper's evaluation: they exercise the
// extensions DESIGN.md §6 lists (design-space exploration, phase-split
// heterogeneous scheduling, per-phase DVFS) with the same table machinery
// as the reproduced figures.

// ExtDSE scores the default candidate space on the paper mix and reports
// the Pareto frontier.
func ExtDSE(ctx context.Context) (Table, error) {
	results, err := dse.Explore(ctx, dse.DefaultSpace(), dse.PaperMix(), 256*units.MB, 1.8*units.GHz, 8)
	if err != nil {
		return Table{}, err
	}
	var rows [][]string
	for _, r := range results {
		mark := ""
		if r.Pareto {
			mark = "*"
		}
		rows = append(rows, []string{
			r.Candidate.Name,
			f1(float64(r.Delay)),
			f1(float64(r.Energy)),
			f1(float64(r.Area)),
			sci(r.EDP()),
			sci(r.EDAP()),
			mark,
		})
	}
	return Table{
		ID:     "ext-dse",
		Title:  "Design-space exploration over hypothetical big/little chips (paper mix)",
		Header: []string{"Candidate", "Delay[s]", "Energy[J]", "Area[mm2]", "EDP", "EDAP", "Pareto"},
		Rows:   rows,
	}, nil
}

// ExtPhaseSplit compares homogeneous deployments against the little-map/
// big-reduce split for every workload.
func ExtPhaseSplit(ctx context.Context) (Table, error) {
	little := sim.NewCluster(sim.AtomNode(8))
	big := sim.NewCluster(sim.XeonNode(8))
	var rows [][]string
	for _, w := range workloads.All() {
		job := sim.JobSpec{
			Name: w.Name(), Spec: w.Spec(), DataPerNode: paperDataSize(w.Name()),
			BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz,
		}
		homoL, err := sim.Run(ctx, little, job)
		if err != nil {
			return Table{}, err
		}
		homoB, err := sim.Run(ctx, big, job)
		if err != nil {
			return Table{}, err
		}
		split, err := sim.RunPhaseSplit(ctx, little, big, job)
		if err != nil {
			return Table{}, err
		}
		rows = append(rows, []string{
			shortName(w.Name()),
			f1(float64(homoL.Total.Time)), sci(edpOf(homoL.Total)),
			f1(float64(homoB.Total.Time)), sci(edpOf(homoB.Total)),
			f1(float64(split.Total.Time)), sci(split.EDP()),
			f1(float64(split.Handoff.Time)),
		})
	}
	return Table{
		ID:    "ext-phasesplit",
		Title: "Phase-split heterogeneous scheduling vs homogeneous deployments",
		Header: []string{"Workload", "Little[s]", "Little-EDP", "Big[s]", "Big-EDP",
			"Split[s]", "Split-EDP", "Handoff[s]"},
		Rows: rows,
	}, nil
}

// ExtPerPhaseDVFS reports the EDP-optimal per-phase DVFS assignment for
// every workload on the little cluster.
func ExtPerPhaseDVFS(ctx context.Context) (Table, error) {
	cluster := sim.NewCluster(sim.AtomNode(8))
	var rows [][]string
	for _, w := range workloads.All() {
		job := sim.JobSpec{
			Name: w.Name(), Spec: w.Spec(), DataPerNode: paperDataSize(w.Name()),
			BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz,
		}
		uniform, err := sim.RunPerPhaseDVFS(ctx, cluster, job, 1.8, 1.8)
		if err != nil {
			return Table{}, err
		}
		best, err := sim.BestPerPhaseDVFS(ctx, cluster, job)
		if err != nil {
			return Table{}, err
		}
		saving := 1 - best.EDP()/uniform.EDP()
		rows = append(rows, []string{
			shortName(w.Name()),
			fmt.Sprintf("%.1f/%.1f", best.MapFrequency, best.ReduceFrequency),
			sci(uniform.EDP()),
			sci(best.EDP()),
			fmt.Sprintf("%.1f%%", 100*saving),
		})
	}
	return Table{
		ID:     "ext-dvfs",
		Title:  "EDP-optimal per-phase DVFS on the little cluster (map-GHz/reduce-GHz)",
		Header: []string{"Workload", "Best map/reduce", "Uniform-1.8 EDP", "Best EDP", "Saving"},
		Rows:   rows,
	}, nil
}

// ExtPowerBreakdown decomposes each workload's map-phase dynamic power
// into components (cores, uncore, DRAM, disk) on both platforms — the
// constituents the paper's wall meter aggregates.
func ExtPowerBreakdown(ctx context.Context) (Table, error) {
	plats := []struct {
		label string
		node  sim.Node
		model power.Model
	}{
		{"Atom", sim.AtomNode(8), power.AtomNode()},
		{"Xeon", sim.XeonNode(8), power.XeonNode()},
	}
	var rows [][]string
	for _, w := range workloads.All() {
		for _, p := range plats {
			r, err := sim.Run(ctx, sim.NewCluster(p.node), sim.JobSpec{
				Name: w.Name(), Spec: w.Spec(), DataPerNode: paperDataSize(w.Name()),
				BlockSize: 512 * units.MB, Frequency: 1.8 * units.GHz,
			})
			if err != nil {
				return Table{}, err
			}
			m, _ := r.MapReduceOnly()
			b := p.model.DynamicBreakdown(m.Draw)
			rows = append(rows, []string{
				shortName(w.Name()), p.label,
				f1(float64(m.AvgPower)),
				f1(float64(b.Cores)), f1(float64(b.Uncore)),
				f1(float64(b.DRAM)), f1(float64(b.Disk)),
			})
		}
	}
	return Table{
		ID:     "ext-power",
		Title:  "Map-phase dynamic power breakdown by component [W]",
		Header: []string{"Workload", "Platform", "Total", "Cores", "Uncore", "DRAM", "Disk"},
		Rows:   rows,
	}, nil
}

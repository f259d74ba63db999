package expt

import (
	"context"
	"fmt"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/metrics"
	"heterohadoop/internal/sched"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// costSamples evaluates all (platform, core count) cells of Table 3 for one
// workload, keyed "A2".."A8" (Atom) and "X2".."X8" (Xeon).
func costSamples(ctx context.Context, w workloads.Workload) (map[string]metrics.Sample, error) {
	data := paperDataSize(w.Name())
	out := make(map[string]metrics.Sample, 2*len(sched.CoreCounts))
	for _, kind := range []cpu.Kind{cpu.Little, cpu.Big} {
		label := "A"
		if kind == cpu.Big {
			label = "X"
		}
		for _, m := range sched.CoreCounts {
			s, err := sched.Evaluate(ctx, w, kind, m, data, 1.8*units.GHz)
			if err != nil {
				return nil, err
			}
			out[fmt.Sprintf("%s%d", label, m)] = s
		}
	}
	return out, nil
}

// allCostSamples evaluates costSamples for every workload, returned in
// workloads.All() order.
func allCostSamples(ctx context.Context) ([]map[string]metrics.Sample, error) {
	var out []map[string]metrics.Sample
	for _, w := range workloads.All() {
		s, err := costSamples(ctx, w)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Table3 reproduces the operational and capital cost table: EDP, ED2P,
// EDAP and ED2AP for 2/4/6/8 cores (mappers = cores) on both platforms.
func Table3(ctx context.Context) (Table, error) {
	header := []string{"Metric", "Workload", "Atom-M2", "Atom-M4", "Atom-M6", "Atom-M8", "Xeon-M2", "Xeon-M4", "Xeon-M6", "Xeon-M8"}
	metricsList := []struct {
		name  string
		score func(metrics.Sample) float64
	}{
		{"EDP (J s)", func(s metrics.Sample) float64 { return s.EDP() }},
		{"ED2P (J s2)", func(s metrics.Sample) float64 { return s.ED2P() }},
		{"EDAP (J mm2 s)", func(s metrics.Sample) float64 { return s.EDAP() }},
		{"ED2AP (J mm2 s2)", func(s metrics.Sample) float64 { return s.ED2AP() }},
	}
	bySample, err := allCostSamples(ctx)
	if err != nil {
		return Table{}, err
	}
	var rows [][]string
	cells := []string{"A2", "A4", "A6", "A8", "X2", "X4", "X6", "X8"}
	for _, mt := range metricsList {
		for wi, w := range workloads.All() {
			samples := bySample[wi]
			row := []string{mt.name, shortName(w.Name())}
			for _, c := range cells {
				row = append(row, sci(mt.score(samples[c])))
			}
			rows = append(rows, row)
		}
	}
	return Table{
		ID:     "table3",
		Title:  "Operational and capital cost of Hadoop applications (512MB-capped splits, 1.8GHz)",
		Header: header,
		Rows:   rows,
	}, nil
}

// Fig17 reproduces the spider-graph data: the four cost metrics for every
// (platform, core count), normalized to the 8-Xeon-core configuration.
func Fig17(ctx context.Context) (Table, error) {
	header := []string{"Workload", "Config", "EDP", "ED2P", "EDAP", "ED2AP"}
	bySample, err := allCostSamples(ctx)
	if err != nil {
		return Table{}, err
	}
	var rows [][]string
	for wi, w := range workloads.All() {
		samples := bySample[wi]
		ref := samples["X8"]
		for _, c := range []string{"A2", "A4", "A6", "A8", "X2", "X4", "X6", "X8"} {
			s := samples[c]
			rows = append(rows, []string{
				shortName(w.Name()), c,
				f2(metrics.Ratio(s.EDP(), ref.EDP())),
				f2(metrics.Ratio(s.ED2P(), ref.ED2P())),
				f2(metrics.Ratio(s.EDAP(), ref.EDAP())),
				f2(metrics.Ratio(s.ED2AP(), ref.ED2AP())),
			})
		}
	}
	return Table{
		ID:     "fig17",
		Title:  "Cost metrics normalized to 8 Xeon cores (spider-graph data)",
		Header: header,
		Rows:   rows,
	}, nil
}

// SchedulingCase reproduces the §3.5 case study: the policy decision and
// the exhaustive-search optimum for each workload under each goal.
func SchedulingCase(ctx context.Context) (Table, error) {
	header := []string{"Workload", "Class", "Goal", "Policy", "Optimal", "Optimal score"}
	var rows [][]string
	for _, w := range workloads.All() {
		for _, goal := range []sched.Goal{sched.MinEDP, sched.MinED2P, sched.MinEDAP, sched.MinED2AP} {
			policy := sched.Policy(w.Class(), goal)
			opt, sample, err := sched.Optimal(ctx, w, goal, paperDataSize(w.Name()), 1.8*units.GHz)
			if err != nil {
				return Table{}, err
			}
			score := map[sched.Goal]func() float64{
				sched.MinEDP:   sample.EDP,
				sched.MinED2P:  sample.ED2P,
				sched.MinEDAP:  sample.EDAP,
				sched.MinED2AP: sample.ED2AP,
			}[goal]()
			rows = append(rows, []string{
				shortName(w.Name()), w.Class().String(), goal.String(),
				fmt.Sprintf("%v/%d", policy.Kind, policy.Cores),
				fmt.Sprintf("%v/%d", opt.Kind, opt.Cores),
				sci(score),
			})
		}
	}
	return Table{
		ID:     "sched",
		Title:  "Scheduling case study: paper policy vs exhaustive optimum",
		Header: header,
		Rows:   rows,
	}, nil
}

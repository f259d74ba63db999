package expt

import (
	"context"
	"fmt"

	"heterohadoop/internal/cpu"
	"heterohadoop/internal/power"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/traditional"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// Table1 echoes the paper's architectural parameters (Table 1) from the
// shipped core models.
func Table1(_ context.Context) (Table, error) {
	atom, xeon := cpu.AtomC2758(), cpu.XeonE52420()
	row := func(name string, a, x string) []string { return []string{name, a, x} }
	cacheRow := func(core cpu.Core, i int) string {
		if i >= len(core.Hierarchy.Levels) {
			return "-"
		}
		return core.Hierarchy.Levels[i].Size.String()
	}
	return Table{
		ID:     "table1",
		Title:  "Architectural parameters",
		Header: []string{"Parameter", "Intel Atom C2758", "Intel Xeon E5-2420"},
		Rows: [][]string{
			row("Operating frequency", atom.NominalFrequency.String(), xeon.NominalFrequency.String()),
			row("Micro-architecture", "Silvermont (2-wide)", "Sandy Bridge (4-wide OoO)"),
			row("L1d cache", cacheRow(atom, 0), cacheRow(xeon, 0)),
			row("L2 cache", cacheRow(atom, 1), cacheRow(xeon, 1)),
			row("L3 cache", cacheRow(atom, 2), cacheRow(xeon, 2)),
			row("Cores", fmt.Sprintf("%d", atom.MaxCores), fmt.Sprintf("%d", xeon.MaxCores)),
			row("Chip area", atom.Area.String(), xeon.Area.String()),
			row("DVFS points", fmt.Sprintf("%v", atom.Frequencies), fmt.Sprintf("%v", xeon.Frequencies)),
		},
	}, nil
}

// Table2 lists the studied applications (Table 2).
func Table2(_ context.Context) (Table, error) {
	rows := [][]string{}
	for _, w := range workloads.MicroBenchmarks() {
		rows = append(rows, []string{"Hadoop micro-benchmark", w.Name(), shortName(w.Name()), w.Class().String()})
	}
	for _, w := range workloads.RealWorld() {
		rows = append(rows, []string{"Real-world application", w.Name(), shortName(w.Name()), w.Class().String()})
	}
	rows = append(rows,
		[]string{"Traditional CPU suite", "spec2006", "SPEC", "-"},
		[]string{"Traditional parallel suite", "parsec2.1", "PARSEC", "-"},
	)
	return Table{
		ID:     "table2",
		Title:  "Studied applications",
		Header: []string{"Type", "Workload", "Code", "Class"},
		Rows:   rows,
	}, nil
}

// Fig1 reproduces the IPC comparison: suite-average IPC of SPEC, PARSEC
// and Hadoop on both cores at 1.8 GHz.
func Fig1(ctx context.Context) (Table, error) {
	if err := ctx.Err(); err != nil {
		return Table{}, fmt.Errorf("expt: fig1: cancelled: %w", err)
	}
	atomCore, xeonCore := cpu.AtomC2758(), cpu.XeonE52420()
	atomPM, xeonPM := power.AtomNode(), power.XeonNode()
	f := 1.8 * units.GHz

	suiteIPC := func(core cpu.Core, pm power.Model, s traditional.Suite) (float64, error) {
		m, err := traditional.Measure(core, pm, s, f)
		if err != nil {
			return 0, err
		}
		return m.IPC, nil
	}
	hadoopIPC := func(core cpu.Core) (float64, error) {
		sum := 0.0
		for _, w := range workloads.All() {
			t, err := core.Run(w.Spec().MapProfile, 64*units.MB, f)
			if err != nil {
				return 0, err
			}
			sum += t.IPC
		}
		return sum / float64(len(workloads.All())), nil
	}

	specA, err := suiteIPC(atomCore, atomPM, traditional.SPEC)
	if err != nil {
		return Table{}, err
	}
	specX, err := suiteIPC(xeonCore, xeonPM, traditional.SPEC)
	if err != nil {
		return Table{}, err
	}
	parsecA, err := suiteIPC(atomCore, atomPM, traditional.PARSEC)
	if err != nil {
		return Table{}, err
	}
	parsecX, err := suiteIPC(xeonCore, xeonPM, traditional.PARSEC)
	if err != nil {
		return Table{}, err
	}
	hadoopA, err := hadoopIPC(atomCore)
	if err != nil {
		return Table{}, err
	}
	hadoopX, err := hadoopIPC(xeonCore)
	if err != nil {
		return Table{}, err
	}

	return Table{
		ID:     "fig1",
		Title:  "Average IPC on little (Atom) and big (Xeon) cores",
		Header: []string{"Suite", "Atom IPC", "Xeon IPC", "Xeon/Atom"},
		Rows: [][]string{
			{"Avg_Spec", f2(specA), f2(specX), f2(specX / specA)},
			{"Avg_Parsec", f2(parsecA), f2(parsecX), f2(parsecX / parsecA)},
			{"Avg_Hadoop", f2(hadoopA), f2(hadoopX), f2(hadoopX / hadoopA)},
		},
	}, nil
}

// Fig2 reproduces the EDxP ratio comparison between suites: Atom-to-Xeon
// EDP, ED2P and ED3P ratios for SPEC, PARSEC and the Hadoop average.
func Fig2(ctx context.Context) (Table, error) {
	f := 1.8 * units.GHz
	ratioRow := func(label string, edp, ed2p, ed3p float64) []string {
		return []string{label, f2(edp), f2(ed2p), f2(ed3p)}
	}
	var rows [][]string
	for _, s := range []traditional.Suite{traditional.SPEC, traditional.PARSEC} {
		a, err := traditional.Measure(cpu.AtomC2758(), power.AtomNode(), s, f)
		if err != nil {
			return Table{}, err
		}
		x, err := traditional.Measure(cpu.XeonE52420(), power.XeonNode(), s, f)
		if err != nil {
			return Table{}, err
		}
		label := "Avg_Spec"
		if s == traditional.PARSEC {
			label = "Avg_Parsec"
		}
		rows = append(rows, ratioRow(label,
			a.Sample.EDP()/x.Sample.EDP(),
			a.Sample.ED2P()/x.Sample.ED2P(),
			a.Sample.ED3P()/x.Sample.ED3P()))
	}
	// Hadoop average over the six workloads at the paper configuration.
	var sumEDP, sumED2P, sumED3P float64
	for _, w := range workloads.All() {
		a, err := run(ctx, w, sim.AtomNode(8), paperDataSize(w.Name()), 512, 1.8)
		if err != nil {
			return Table{}, err
		}
		x, err := run(ctx, w, sim.XeonNode(8), paperDataSize(w.Name()), 512, 1.8)
		if err != nil {
			return Table{}, err
		}
		ae := float64(a.Total.Energy)
		xe := float64(x.Total.Energy)
		at := float64(a.Total.Time)
		xt := float64(x.Total.Time)
		sumEDP += (ae * at) / (xe * xt)
		sumED2P += (ae * at * at) / (xe * xt * xt)
		sumED3P += (ae * at * at * at) / (xe * xt * xt * xt)
	}
	n := float64(len(workloads.All()))
	rows = append(rows, ratioRow("Avg_Hadoop", sumEDP/n, sumED2P/n, sumED3P/n))
	return Table{
		ID:     "fig2",
		Title:  "EDP, ED2P and ED3P ratio (Atom vs Xeon) per suite",
		Header: []string{"Suite", "EDP", "ED2P", "ED3P"},
		Rows:   rows,
	}, nil
}

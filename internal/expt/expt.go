// Package expt regenerates every table and figure of the paper's
// evaluation: each generator returns the same rows/series the paper
// reports, produced by the calibrated simulator (and, for the baselines,
// the traditional-suite models). cmd/experiments prints them; bench_test.go
// wraps each one in a benchmark.
package expt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// ErrUnknownArtefact is wrapped by ByID for ids no generator claims;
// callers branch with errors.Is instead of matching the message.
var ErrUnknownArtefact = errors.New("expt: unknown artefact")

// Table is one reproduced table or figure, as printable rows.
type Table struct {
	// ID is the paper artefact identifier, e.g. "fig3" or "table3".
	ID string
	// Title describes the artefact.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data rows.
	Rows [][]string
}

// Fprint renders the table as aligned text.
func (t Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Generator produces one artefact.
type Generator struct {
	ID   string
	Name string
	fn   func(context.Context) (Table, error)
}

// Run produces the artefact. A cancelled context aborts at the next
// simulation with an error wrapping ctx.Err(). An Observer carried by ctx
// receives an "expt.artefact" span
// with the artefact id, plus everything the layers below emit.
func (g Generator) Run(ctx context.Context) (Table, error) {
	if g.fn == nil {
		return Table{}, fmt.Errorf("expt: generator %q has no implementation", g.ID)
	}
	if err := ctx.Err(); err != nil {
		return Table{}, fmt.Errorf("expt: %s: cancelled: %w", g.ID, err)
	}
	ob := obs.FromContext(ctx)
	var sp obs.Span
	if ob.Enabled() {
		sp = obs.Start(ob, "expt.artefact", obs.Str("id", g.ID))
		defer sp.End()
	}
	return g.fn(ctx)
}

// All returns every artefact generator in the paper's order.
func All() []Generator {
	return []Generator{
		{"table1", "Architectural parameters", Table1},
		{"table2", "Studied applications", Table2},
		{"fig1", "IPC of SPEC, PARSEC and Hadoop on little and big cores", Fig1},
		{"fig2", "EDP/ED2P/ED3P ratios per suite", Fig2},
		{"fig3", "Execution time of micro-benchmarks vs block size and frequency", Fig3},
		{"fig4", "Execution time of real-world applications vs block size and frequency", Fig4},
		{"fig5", "EDP of real-world applications vs frequency", Fig5},
		{"fig6", "EDP of micro-benchmarks vs frequency", Fig6},
		{"fig7", "Map/Reduce phase EDP of micro-benchmarks", Fig7},
		{"fig8", "Map/Reduce phase EDP of real-world applications", Fig8},
		{"fig9", "Xeon:Atom EDP ratio vs block size", Fig9},
		{"fig10", "Execution time breakdown vs data size (micro)", Fig10},
		{"fig11", "Execution time breakdown vs data size (real-world)", Fig11},
		{"fig12", "EDP of entire applications vs data size", Fig12},
		{"fig13", "Map/Reduce phase EDP vs data size", Fig13},
		{"fig14", "Post-acceleration speedup ratio vs acceleration rate", Fig14},
		{"fig15", "Post-acceleration speedup ratio vs frequency", Fig15},
		{"fig16", "Post-acceleration speedup ratio vs block size", Fig16},
		{"table3", "Operational and capital cost across core counts", Table3},
		{"fig17", "Cost metrics normalized to 8 Xeon cores (spider-graph data)", Fig17},
		{"sched", "Scheduling case study (paper §3.5)", SchedulingCase},
		{"ext-dse", "Extension: design-space exploration", ExtDSE},
		{"ext-phasesplit", "Extension: phase-split heterogeneous scheduling", ExtPhaseSplit},
		{"ext-dvfs", "Extension: per-phase DVFS governor", ExtPerPhaseDVFS},
		{"ext-power", "Extension: map-phase power breakdown by component", ExtPowerBreakdown},
	}
}

// ByID returns the generator for an artefact id; failures wrap
// ErrUnknownArtefact.
func ByID(id string) (Generator, error) {
	for _, g := range All() {
		if g.ID == id {
			return g, nil
		}
	}
	var ids []string
	for _, g := range All() {
		ids = append(ids, g.ID)
	}
	sort.Strings(ids)
	return Generator{}, fmt.Errorf("%w: %q (known: %s)", ErrUnknownArtefact, id, strings.Join(ids, ", "))
}

// ---- shared helpers ----

// paperFrequencies are the swept DVFS points in GHz.
var paperFrequencies = []float64{1.2, 1.4, 1.6, 1.8}

// microBlockSizes and realBlockSizes are the swept block sizes in MB
// (real-world applications start at 64 MB per §3.1.1).
var (
	microBlockSizes = []int{32, 64, 128, 256, 512}
	realBlockSizes  = []int{64, 128, 256, 512}
)

// paperDataSize returns the per-node input used in the main sweeps:
// 1 GB for micro-benchmarks, 10 GB for real-world applications.
func paperDataSize(name string) units.Bytes {
	if name == "naivebayes" || name == "fpgrowth" {
		return 10 * units.GB
	}
	return units.GB
}

// shortName maps workload names to the paper's two-letter codes.
func shortName(name string) string {
	switch name {
	case "wordcount":
		return "WC"
	case "sort":
		return "ST"
	case "grep":
		return "GP"
	case "terasort":
		return "TS"
	case "naivebayes":
		return "NB"
	case "fpgrowth":
		return "FP"
	default:
		return name
	}
}

// run simulates one configuration. The context carries cancellation and
// the observer into the simulator.
func run(ctx context.Context, w workloads.Workload, node sim.Node, data units.Bytes, blockMB int, fGHz float64) (sim.Report, error) {
	return sim.Run(ctx, sim.NewCluster(node), sim.JobSpec{
		Name:        w.Name(),
		Spec:        w.Spec(),
		DataPerNode: data,
		BlockSize:   units.Bytes(blockMB) * units.MB,
		Frequency:   units.Hertz(fGHz) * units.GHz,
	})
}

// edpOf multiplies a phase's energy and time.
func edpOf(p sim.PhaseStat) float64 { return float64(p.Energy) * float64(p.Time) }

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func sci(v float64) string { return fmt.Sprintf("%.2E", v) }

package expt

import (
	"context"
	"fmt"

	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// platforms enumerates the two clusters in the paper's presentation order
// (Xeon first in Figs 3-4, Atom first elsewhere follows the same pairs).
type platform struct {
	label string
	node  func() sim.Node
}

func bothPlatforms() []platform {
	return []platform{
		{"Xeon", func() sim.Node { return sim.XeonNode(8) }},
		{"Atom", func() sim.Node { return sim.AtomNode(8) }},
	}
}

// atomFirst orders the platforms as the EDP figures present them.
func atomFirst() []platform {
	return []platform{
		{"Atom", func() sim.Node { return sim.AtomNode(8) }},
		{"Xeon", func() sim.Node { return sim.XeonNode(8) }},
	}
}

// simCell is one simulator evaluation in a sweep grid.
type simCell struct {
	w       workloads.Workload
	node    sim.Node
	data    units.Bytes
	blockMB int
	fGHz    float64
}

// runCells simulates the grid in order and returns one report per cell,
// stopping at the first error. A cancelled context fails the next cell.
func runCells(ctx context.Context, cells []simCell) ([]sim.Report, error) {
	reps := make([]sim.Report, len(cells))
	for i, c := range cells {
		r, err := run(ctx, c.w, c.node, c.data, c.blockMB, c.fGHz)
		if err != nil {
			return nil, err
		}
		reps[i] = r
	}
	return reps, nil
}

// execTimeSweep builds the Fig 3/4 style table: execution time for every
// (platform, frequency, block size) cell, with rows in grid order.
func execTimeSweep(ctx context.Context, id, title string, ws []workloads.Workload, blockSizes []int, data func(string) units.Bytes) (Table, error) {
	header := []string{"Platform", "Freq[GHz]", "Block[MB]"}
	for _, w := range ws {
		header = append(header, shortName(w.Name())+"[s]")
	}
	var cells []simCell
	for _, p := range bothPlatforms() {
		for _, f := range paperFrequencies {
			for _, bs := range blockSizes {
				for _, w := range ws {
					cells = append(cells, simCell{w, p.node(), data(w.Name()), bs, f})
				}
			}
		}
	}
	reps, err := runCells(ctx, cells)
	if err != nil {
		return Table{}, err
	}
	var rows [][]string
	i := 0
	for _, p := range bothPlatforms() {
		for _, f := range paperFrequencies {
			for _, bs := range blockSizes {
				row := []string{p.label, f1(f), fmt.Sprintf("%d", bs)}
				for range ws {
					row = append(row, f1(float64(reps[i].Total.Time)))
					i++
				}
				rows = append(rows, row)
			}
		}
	}
	return Table{ID: id, Title: title, Header: header, Rows: rows}, nil
}

// Fig3 sweeps the four micro-benchmarks at 1 GB/node over block size and
// frequency on both clusters.
func Fig3(ctx context.Context) (Table, error) {
	return execTimeSweep(ctx, "fig3",
		"Execution time of Hadoop micro-benchmarks vs HDFS block size and frequency (1 GB/node)",
		workloads.MicroBenchmarks(), microBlockSizes,
		func(string) units.Bytes { return units.GB })
}

// Fig4 sweeps the two real-world applications at 10 GB/node (block sizes
// from 64 MB per the paper).
func Fig4(ctx context.Context) (Table, error) {
	return execTimeSweep(ctx, "fig4",
		"Execution time of real-world applications vs HDFS block size and frequency (10 GB/node)",
		workloads.RealWorld(), realBlockSizes,
		func(string) units.Bytes { return 10 * units.GB })
}

// edpVsFrequency builds the Fig 5/6 style table: whole-application EDP per
// (platform, frequency), normalized per workload to Atom at 1.2 GHz with
// the 512 MB block, exactly as the paper normalizes. The normalization
// reference cells are appended to the grid.
func edpVsFrequency(ctx context.Context, id, title string, ws []workloads.Workload) (Table, error) {
	header := []string{"Platform", "Freq[GHz]"}
	for _, w := range ws {
		header = append(header, shortName(w.Name()))
	}
	var cells []simCell
	for _, p := range atomFirst() {
		for _, f := range paperFrequencies {
			for _, w := range ws {
				cells = append(cells, simCell{w, p.node(), paperDataSize(w.Name()), 512, f})
			}
		}
	}
	gridLen := len(cells)
	for _, w := range ws {
		cells = append(cells, simCell{w, sim.AtomNode(8), paperDataSize(w.Name()), 512, 1.2})
	}
	reps, err := runCells(ctx, cells)
	if err != nil {
		return Table{}, err
	}
	refs := map[string]float64{}
	for wi, w := range ws {
		refs[w.Name()] = edpOf(reps[gridLen+wi].Total)
	}
	var rows [][]string
	i := 0
	for _, p := range atomFirst() {
		for _, f := range paperFrequencies {
			row := []string{p.label, f1(f)}
			for _, w := range ws {
				row = append(row, f2(edpOf(reps[i].Total)/refs[w.Name()]))
				i++
			}
			rows = append(rows, row)
		}
	}
	return Table{ID: id, Title: title, Header: header, Rows: rows}, nil
}

// Fig5 gives whole-application EDP vs frequency for NB and FP.
func Fig5(ctx context.Context) (Table, error) {
	return edpVsFrequency(ctx, "fig5",
		"EDP of real-world applications vs frequency (normalized to Atom @1.2GHz)",
		workloads.RealWorld())
}

// Fig6 gives whole-application EDP vs frequency for the micro-benchmarks.
func Fig6(ctx context.Context) (Table, error) {
	return edpVsFrequency(ctx, "fig6",
		"EDP of micro-benchmarks vs frequency (normalized to Atom @1.2GHz)",
		workloads.MicroBenchmarks())
}

// phaseEDP builds the Fig 7/8 style table: map- and reduce-phase EDP per
// (platform, frequency), normalized per workload and phase to Atom @1.2 GHz.
func phaseEDP(ctx context.Context, id, title string, ws []workloads.Workload) (Table, error) {
	header := []string{"Platform", "Freq[GHz]"}
	for _, w := range ws {
		header = append(header, shortName(w.Name())+"-map", shortName(w.Name())+"-red")
	}
	var cells []simCell
	for _, p := range atomFirst() {
		for _, f := range paperFrequencies {
			for _, w := range ws {
				cells = append(cells, simCell{w, p.node(), paperDataSize(w.Name()), 512, f})
			}
		}
	}
	gridLen := len(cells)
	for _, w := range ws {
		cells = append(cells, simCell{w, sim.AtomNode(8), paperDataSize(w.Name()), 512, 1.2})
	}
	reps, err := runCells(ctx, cells)
	if err != nil {
		return Table{}, err
	}
	type refKey struct {
		name  string
		phase int
	}
	refs := map[refKey]float64{}
	for wi, w := range ws {
		m, red := reps[gridLen+wi].MapReduceOnly()
		refs[refKey{w.Name(), 0}] = edpOf(m)
		refs[refKey{w.Name(), 1}] = edpOf(red)
	}
	norm := func(v, ref float64) string {
		if ref == 0 {
			return "-"
		}
		return f2(v / ref)
	}
	var rows [][]string
	i := 0
	for _, p := range atomFirst() {
		for _, f := range paperFrequencies {
			row := []string{p.label, f1(f)}
			for _, w := range ws {
				m, red := reps[i].MapReduceOnly()
				i++
				row = append(row,
					norm(edpOf(m), refs[refKey{w.Name(), 0}]),
					norm(edpOf(red), refs[refKey{w.Name(), 1}]))
			}
			rows = append(rows, row)
		}
	}
	return Table{ID: id, Title: title, Header: header, Rows: rows}, nil
}

// Fig7 gives map/reduce phase EDP vs frequency for the micro-benchmarks.
func Fig7(ctx context.Context) (Table, error) {
	return phaseEDP(ctx, "fig7",
		"Map/Reduce phase EDP of micro-benchmarks vs frequency (normalized to Atom @1.2GHz)",
		workloads.MicroBenchmarks())
}

// Fig8 gives map/reduce phase EDP vs frequency for NB and FP.
func Fig8(ctx context.Context) (Table, error) {
	return phaseEDP(ctx, "fig8",
		"Map/Reduce phase EDP of real-world applications vs frequency (normalized to Atom @1.2GHz)",
		workloads.RealWorld())
}

// Fig9 gives the Xeon-to-Atom EDP ratio as a function of block size at
// 1.8 GHz for all six workloads.
func Fig9(ctx context.Context) (Table, error) {
	header := []string{"Block[MB]"}
	for _, w := range workloads.All() {
		header = append(header, shortName(w.Name()))
	}
	var cells []simCell
	for _, bs := range microBlockSizes {
		for _, w := range workloads.All() {
			cells = append(cells,
				simCell{w, sim.AtomNode(8), paperDataSize(w.Name()), bs, 1.8},
				simCell{w, sim.XeonNode(8), paperDataSize(w.Name()), bs, 1.8})
		}
	}
	reps, err := runCells(ctx, cells)
	if err != nil {
		return Table{}, err
	}
	var rows [][]string
	i := 0
	for _, bs := range microBlockSizes {
		row := []string{fmt.Sprintf("%d", bs)}
		for range workloads.All() {
			a, x := reps[i], reps[i+1]
			i += 2
			row = append(row, f2(edpOf(x.Total)/edpOf(a.Total)))
		}
		rows = append(rows, row)
	}
	return Table{
		ID:     "fig9",
		Title:  "Xeon:Atom EDP ratio vs HDFS block size (1.8 GHz)",
		Header: header,
		Rows:   rows,
	}, nil
}

// dataSizes are the per-node input sweeps of Figs 10-13.
var dataSizes = []units.Bytes{units.GB, 10 * units.GB, 20 * units.GB}

// dataSizeGrid enumerates the Fig 10-13 cell grid (workload x platform x
// data size at 512 MB / 1.8 GHz) and runs it. The returned index function
// addresses a report by its loop coordinates.
func dataSizeGrid(ctx context.Context, ws []workloads.Workload) (func(wi, pi, si int) sim.Report, error) {
	var cells []simCell
	for _, w := range ws {
		for _, p := range atomFirst() {
			for _, sz := range dataSizes {
				cells = append(cells, simCell{w, p.node(), sz, 512, 1.8})
			}
		}
	}
	reps, err := runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	stride := len(atomFirst()) * len(dataSizes)
	return func(wi, pi, si int) sim.Report {
		return reps[wi*stride+pi*len(dataSizes)+si]
	}, nil
}

// breakdownSweep builds the Fig 10/11 style table: per-phase execution time
// share plus the total, per (workload, platform, data size).
func breakdownSweep(ctx context.Context, id, title string, ws []workloads.Workload) (Table, error) {
	at, err := dataSizeGrid(ctx, ws)
	if err != nil {
		return Table{}, err
	}
	var rows [][]string
	for wi, w := range ws {
		for pi, p := range atomFirst() {
			for si, sz := range dataSizes {
				r := at(wi, pi, si)
				m, red := r.MapReduceOnly()
				oth := r.Others()
				tot := float64(r.Total.Time)
				rows = append(rows, []string{
					shortName(w.Name()), p.label, fmt.Sprintf("%dGB", int(sz/units.GB)),
					fmt.Sprintf("%d%%", int(100*float64(m.Time)/tot+0.5)),
					fmt.Sprintf("%d%%", int(100*float64(red.Time)/tot+0.5)),
					fmt.Sprintf("%d%%", int(100*float64(oth.Time)/tot+0.5)),
					f1(tot),
				})
			}
		}
	}
	return Table{
		ID:     id,
		Title:  title,
		Header: []string{"Workload", "Platform", "Data", "Map", "Reduce", "Others", "Total[s]"},
		Rows:   rows,
	}, nil
}

// Fig10 gives the execution-time breakdown vs data size for WC and TS.
func Fig10(ctx context.Context) (Table, error) {
	wc, _ := workloads.ByName("wordcount")
	ts, _ := workloads.ByName("terasort")
	return breakdownSweep(ctx, "fig10",
		"Execution time and breakdown of micro-benchmarks vs input size (512MB, 1.8GHz)",
		[]workloads.Workload{wc, ts})
}

// Fig11 gives the execution-time breakdown vs data size for NB and FP.
func Fig11(ctx context.Context) (Table, error) {
	return breakdownSweep(ctx, "fig11",
		"Execution time and breakdown of real-world applications vs input size (512MB, 1.8GHz)",
		workloads.RealWorld())
}

// Fig12 gives whole-application EDP vs data size, normalized per workload
// to Atom at 1 GB.
func Fig12(ctx context.Context) (Table, error) {
	header := []string{"Workload", "Platform", "1GB", "10GB", "20GB"}
	at, err := dataSizeGrid(ctx, workloads.All())
	if err != nil {
		return Table{}, err
	}
	var rows [][]string
	for wi, w := range workloads.All() {
		ref := 0.0
		for pi, p := range atomFirst() {
			row := []string{shortName(w.Name()), p.label}
			for si := range dataSizes {
				v := edpOf(at(wi, pi, si).Total)
				if ref == 0 {
					ref = v
				}
				row = append(row, f2(v/ref))
			}
			rows = append(rows, row)
		}
	}
	return Table{
		ID:     "fig12",
		Title:  "EDP of entire applications vs input size (normalized to Atom @1GB)",
		Header: header,
		Rows:   rows,
	}, nil
}

// Fig13 gives map- and reduce-phase EDP vs data size, normalized per
// workload and phase to Atom at 1 GB. Both phase passes read the same grid
// instead of re-simulating it.
func Fig13(ctx context.Context) (Table, error) {
	header := []string{"Workload", "Platform", "Phase", "1GB", "10GB", "20GB"}
	at, err := dataSizeGrid(ctx, workloads.All())
	if err != nil {
		return Table{}, err
	}
	var rows [][]string
	for wi, w := range workloads.All() {
		for phaseIdx, phaseName := range []string{"map", "reduce"} {
			ref := 0.0
			for pi, p := range atomFirst() {
				row := []string{shortName(w.Name()), p.label, phaseName}
				for si := range dataSizes {
					m, red := at(wi, pi, si).MapReduceOnly()
					v := edpOf(m)
					if phaseIdx == 1 {
						v = edpOf(red)
					}
					if ref == 0 && v > 0 {
						ref = v
					}
					if ref == 0 {
						row = append(row, "-")
					} else {
						row = append(row, f2(v/ref))
					}
				}
				rows = append(rows, row)
			}
		}
	}
	return Table{
		ID:     "fig13",
		Title:  "Map/Reduce phase EDP vs input size (normalized to Atom @1GB)",
		Header: header,
		Rows:   rows,
	}, nil
}

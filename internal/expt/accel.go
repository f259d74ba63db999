package expt

import (
	"context"
	"fmt"

	"heterohadoop/internal/accel"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/workloads"
)

// accelRatio computes the paper's Eq. 1 before/after speedup ratio for one
// workload at the given knobs.
func accelRatio(ctx context.Context, w workloads.Workload, blockMB int, fGHz, acceleration float64) (float64, error) {
	data := paperDataSize(w.Name())
	aB, err := run(ctx, w, sim.AtomNode(8), data, blockMB, fGHz)
	if err != nil {
		return 0, err
	}
	xB, err := run(ctx, w, sim.XeonNode(8), data, blockMB, fGHz)
	if err != nil {
		return 0, err
	}
	fpga := accel.PCIeGen3x8()
	off := accel.DefaultOffload(acceleration)
	aA, err := accel.Apply(aB, data, fpga, off)
	if err != nil {
		return 0, err
	}
	xA, err := accel.Apply(xB, data, fpga, off)
	if err != nil {
		return 0, err
	}
	return accel.SpeedupRatio(aB, xB, aA, xA), nil
}

// accelTable builds a table of Eq. 1 ratios over a swept parameter: one
// row per value, one column per workload.
func accelTable(id, title, param string, values []string, eval func(w workloads.Workload, i int) (float64, error)) (Table, error) {
	all := workloads.All()
	header := []string{param}
	for _, w := range all {
		header = append(header, shortName(w.Name()))
	}
	var rows [][]string
	for i, v := range values {
		row := []string{v}
		for _, w := range all {
			r, err := eval(w, i)
			if err != nil {
				return Table{}, err
			}
			row = append(row, f2(r))
		}
		rows = append(rows, row)
	}
	return Table{ID: id, Title: title, Header: header, Rows: rows}, nil
}

// fig14Accelerations is the paper's swept mapper acceleration range.
var fig14Accelerations = []float64{1, 2, 5, 10, 20, 40, 60, 80, 100}

// Fig14 sweeps the mapper acceleration rate at 512 MB / 1.8 GHz.
func Fig14(ctx context.Context) (Table, error) {
	var labels []string
	for _, k := range fig14Accelerations {
		labels = append(labels, fmt.Sprintf("%gx", k))
	}
	return accelTable("fig14",
		"Speedup of Atom vs Xeon after acceleration relative to before (Eq. 1) vs mapper acceleration",
		"Accel", labels,
		func(w workloads.Workload, i int) (float64, error) {
			return accelRatio(ctx, w, 512, 1.8, fig14Accelerations[i])
		})
}

// Fig15 sweeps frequency at a fixed 30x acceleration.
func Fig15(ctx context.Context) (Table, error) {
	var labels []string
	for _, f := range paperFrequencies {
		labels = append(labels, f1(f)+"GHz")
	}
	return accelTable("fig15",
		"Post-acceleration speedup ratio (Eq. 1) vs frequency (30x acceleration, 512MB)",
		"Freq", labels,
		func(w workloads.Workload, i int) (float64, error) {
			return accelRatio(ctx, w, 512, paperFrequencies[i], 30)
		})
}

// Fig16 sweeps HDFS block size at a fixed 30x acceleration.
func Fig16(ctx context.Context) (Table, error) {
	var labels []string
	for _, bs := range microBlockSizes {
		labels = append(labels, fmt.Sprintf("%dMB", bs))
	}
	return accelTable("fig16",
		"Post-acceleration speedup ratio (Eq. 1) vs HDFS block size (30x acceleration, 1.8GHz)",
		"Block", labels,
		func(w workloads.Workload, i int) (float64, error) {
			bs := microBlockSizes[i]
			if w.Name() == "naivebayes" || w.Name() == "fpgrowth" {
				// Real-world applications start at 64 MB per §3.1.1.
				if bs < 64 {
					bs = 64
				}
			}
			return accelRatio(ctx, w, bs, 1.8, 30)
		})
}

package expt

// exec.go is the sweep executor: generators enumerate their cell grid —
// every (workload, platform, data, block, frequency) simulation an
// artefact needs — and runCells fans the grid out across a worker pool.
// Cells land back in index order and row assembly stays serial, so the
// rendered tables are byte-identical at any pool width; the golden files
// and TestPoolWidthDeterminism pin that down. Cell results come from
// sim.RunCached, so cells shared across artefacts (the 512 MB grid behind
// Figs 5-9, the cost cells behind Table 3 / Fig 17 / the scheduling
// search) are simulated once per process.

import (
	"context"
	"sync/atomic"

	"heterohadoop/internal/pool"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// sweepWidth is the configured pool width; 0 means pool.DefaultWidth.
var sweepWidth atomic.Int32

// Parallelism reports the worker-pool width used for sweep grids.
func Parallelism() int {
	if w := sweepWidth.Load(); w > 0 {
		return int(w)
	}
	return pool.DefaultWidth()
}

// SetParallelism sets the pool width for subsequent sweeps; n <= 0
// restores the default (GOMAXPROCS). It returns the previous setting (0
// for default) so callers can restore it:
//
//	defer expt.SetParallelism(expt.SetParallelism(1))
func SetParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(sweepWidth.Swap(int32(n)))
}

// cell is one simulator evaluation in a sweep grid.
type simCell struct {
	w       workloads.Workload
	node    sim.Node
	data    units.Bytes
	blockMB int
	fGHz    float64
}

// runCells evaluates the grid across the pool and returns reports in
// cell order. The context flows into every cell, so cancellation stops
// the sweep within one simulation and the carried observer sees each
// cell's sim.run span and cache counters.
func runCells(ctx context.Context, cells []simCell) ([]sim.Report, error) {
	return pool.Map(ctx, Parallelism(), len(cells), func(i int) (sim.Report, error) {
		c := cells[i]
		return run(ctx, c.w, c.node, c.data, c.blockMB, c.fGHz)
	})
}

// mapRows builds one row per index across the pool, preserving row
// order.
func mapRows(ctx context.Context, n int, fn func(i int) ([]string, error)) ([][]string, error) {
	return pool.Map(ctx, Parallelism(), n, fn)
}

// Package dse explores the heterogeneous-server design space the paper's
// conclusions motivate: beyond choosing between the two shipped chips, what
// core configuration (issue width, out-of-order machinery, cache capacity)
// best serves a Hadoop mix under an EDxP/EDxAP objective? The explorer
// derives each candidate's chip area from the McPAT-style model, simulates
// the workload mix on a matching node model, and reports the Pareto
// frontier over (delay, energy, area).
package dse

import (
	"context"
	"fmt"
	"sort"

	"heterohadoop/internal/cache"
	"heterohadoop/internal/cpu"
	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/power"
	"heterohadoop/internal/sim"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// Candidate is one hypothetical server chip.
type Candidate struct {
	// Name labels the configuration.
	Name string
	// Core is the architectural configuration.
	Core cpu.Core
	// Power is the matching node power model.
	Power power.Model
}

// Result scores one candidate on a workload mix.
type Result struct {
	Candidate Candidate
	// Delay is the summed execution time across the mix.
	Delay units.Seconds
	// Energy is the summed dynamic energy.
	Energy units.Joules
	// Area is the model-estimated chip area.
	Area units.SquareMM
	// Pareto marks frontier members: no other candidate is at least as
	// good on every axis and strictly better on one.
	Pareto bool
}

// EDP returns the mix energy-delay product.
func (r Result) EDP() float64 { return float64(r.Energy) * float64(r.Delay) }

// EDAP returns the mix energy-delay-area product.
func (r Result) EDAP() float64 { return r.EDP() * float64(r.Area) }

// cloneCore deep-copies a core (the hierarchy's Levels slice is shared by
// plain struct copies).
func cloneCore(c cpu.Core, name string) cpu.Core {
	out := c
	out.Name = name
	out.Hierarchy.Levels = append([]cache.Level(nil), c.Hierarchy.Levels...)
	return out
}

// scalePower scales the dynamic components of a node power model by k
// (leaving the idle floor), approximating the power of a perturbed design.
func scalePower(m power.Model, name string, k float64) power.Model {
	out := m
	out.Name = name
	out.CoreDynamicNominal = units.Watts(float64(m.CoreDynamicNominal) * k)
	out.CoreStatic = units.Watts(float64(m.CoreStatic) * k)
	out.UncoreActive = units.Watts(float64(m.UncoreActive) * k)
	return out
}

// DefaultSpace enumerates the candidate space: the two shipped chips plus
// hypothetical variants spanning the big/little divide — a wider little
// core, a narrower big core, a little core with a big L2, and a big core
// with its out-of-order machinery stripped.
func DefaultSpace() []Candidate {
	atom, xeon := cpu.AtomC2758(), cpu.XeonE52420()
	atomP, xeonP := power.AtomNode(), power.XeonNode()

	wideLittle := cloneCore(atom, "little-3wide")
	wideLittle.IssueWidth = 3

	narrowBig := cloneCore(xeon, "big-3wide")
	narrowBig.IssueWidth = 3

	fatCacheLittle := cloneCore(atom, "little-bigL2")
	fatCacheLittle.Hierarchy.Levels[1].Size = 4 * units.MB

	inOrderBig := cloneCore(xeon, "big-inorder")
	inOrderBig.Kind = cpu.Little // drops the OoO area overhead
	inOrderBig.StallExposure = atom.StallExposure
	inOrderBig.MLP = atom.MLP

	return []Candidate{
		{Name: "atom-c2758", Core: atom, Power: atomP},
		{Name: "xeon-e5-2420", Core: xeon, Power: xeonP},
		{Name: "little-3wide", Core: wideLittle, Power: scalePower(atomP, "little-3wide-node", 1.6)},
		{Name: "big-3wide", Core: narrowBig, Power: scalePower(xeonP, "big-3wide-node", 0.75)},
		{Name: "little-bigL2", Core: fatCacheLittle, Power: scalePower(atomP, "little-bigL2-node", 1.15)},
		{Name: "big-inorder", Core: inOrderBig, Power: scalePower(xeonP, "big-inorder-node", 0.55)},
	}
}

// Mix is a weighted workload list; weights scale each workload's
// contribution to the mix totals.
type Mix []MixEntry

// MixEntry pairs a workload with its weight and input size.
type MixEntry struct {
	Workload workloads.Workload
	Weight   float64
	Data     units.Bytes
}

// PaperMix returns the six studied applications at the paper's sizes with
// unit weights.
func PaperMix() Mix {
	var mix Mix
	for _, w := range workloads.All() {
		data := units.Bytes(units.GB)
		if w.Name() == "naivebayes" || w.Name() == "fpgrowth" {
			data = 10 * units.GB
		}
		mix = append(mix, MixEntry{Workload: w, Weight: 1, Data: data})
	}
	return mix
}

// Explore scores every candidate on the mix at the given knobs and marks
// the Pareto frontier. Results are sorted by EDP ascending. The context
// flows into every simulation, so a cancelled context stops the sweep at
// the next cell and an Observer carried by ctx sees per-cell sim.run spans.
func Explore(ctx context.Context, space []Candidate, mix Mix, block units.Bytes, f units.Hertz, cores int) ([]Result, error) {
	if len(space) == 0 {
		return nil, fmt.Errorf("dse: empty candidate space")
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("dse: empty workload mix")
	}
	for _, cand := range space {
		if cores < 1 || cores > cand.Core.MaxCores {
			return nil, fmt.Errorf("dse: %s: %d cores out of range", cand.Name, cores)
		}
	}
	results := make([]Result, 0, len(space))
	for _, cand := range space {
		node := sim.Node{Core: cand.Core, Power: cand.Power, Disk: defaultDisk(), ActiveCores: cores}
		var delay units.Seconds
		var energy units.Joules
		for _, entry := range mix {
			r, err := sim.Run(ctx, sim.NewCluster(node), sim.JobSpec{
				Name:        entry.Workload.Name(),
				Spec:        entry.Workload.Spec(),
				DataPerNode: entry.Data,
				BlockSize:   block,
				Frequency:   f,
			})
			if err != nil {
				return nil, fmt.Errorf("dse: %s on %s: %w", entry.Workload.Name(), cand.Name, err)
			}
			delay += units.Seconds(float64(r.Total.Time) * entry.Weight)
			energy += units.Joules(float64(r.Total.Energy) * entry.Weight)
		}
		results = append(results, Result{
			Candidate: cand,
			Delay:     delay,
			Energy:    energy,
			Area:      cpu.EstimateArea(cand.Core).Total,
		})
	}
	markPareto(results)
	sort.Slice(results, func(i, j int) bool { return results[i].EDP() < results[j].EDP() })
	return results, nil
}

// markPareto flags the non-dominated results over (delay, energy, area).
func markPareto(rs []Result) {
	for i := range rs {
		dominated := false
		for j := range rs {
			if i == j {
				continue
			}
			if dominates(rs[j], rs[i]) {
				dominated = true
				break
			}
		}
		rs[i].Pareto = !dominated
	}
}

// dominates reports whether a is at least as good as b on all axes and
// strictly better on at least one.
func dominates(a, b Result) bool {
	if a.Delay > b.Delay || a.Energy > b.Energy || a.Area > b.Area {
		return false
	}
	return a.Delay < b.Delay || a.Energy < b.Energy || a.Area < b.Area
}

// defaultDisk mirrors the simulator's server storage.
func defaultDisk() hdfs.Disk { return hdfs.ServerDisk() }

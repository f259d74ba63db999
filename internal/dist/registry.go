package dist

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/workloads"
)

// JobFactory reconstructs a runnable job from a descriptor — the moral
// equivalent of Hadoop instantiating mapper/reducer classes by name on the
// worker side.
type JobFactory func(desc JobDescriptor) (mapreduce.Job, error)

// Registry maps workload names to factories. Both master and workers hold
// one; the bundled workloads are pre-registered.
type Registry struct {
	factories map[string]JobFactory
}

// NewRegistry returns a registry with the six studied workloads installed.
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]JobFactory)}
	r.Register("wordcount", func(desc JobDescriptor) (mapreduce.Job, error) {
		return workloads.NewWordCount().Build(descConfig(desc, "wordcount"), nil)
	})
	r.Register("naivebayes", func(desc JobDescriptor) (mapreduce.Job, error) {
		return workloads.NewNaiveBayes().Build(descConfig(desc, "naivebayes"), nil)
	})
	r.Register("grep", func(desc JobDescriptor) (mapreduce.Job, error) {
		pattern := string(desc.Aux)
		if pattern == "" {
			return mapreduce.Job{}, fmt.Errorf("dist: grep needs its pattern in Aux")
		}
		return workloads.NewGrep(pattern).Build(descConfig(desc, "grep"), nil)
	})
	r.Register("sort", func(desc JobDescriptor) (mapreduce.Job, error) {
		return mapreduce.Job{
			Config:      descConfig(desc, "sort"),
			Mapper:      mapreduce.IdentityMapper(),
			Reducer:     mapreduce.IdentityReducer(),
			Partitioner: mapreduce.RangePartitioner(desc.Cuts),
		}, nil
	})
	r.Register("terasort", func(desc JobDescriptor) (mapreduce.Job, error) {
		// TeraSort's mapper splits key and payload; the master ships the
		// sampled cuts.
		return workloads.BuildTeraSortWithCuts(descConfig(desc, "terasort"), desc.Cuts), nil
	})
	r.Register("fpgrowth", func(desc JobDescriptor) (mapreduce.Job, error) {
		// The f-list travels as JSON in Aux; rebuild the job around it by
		// reconstructing a tiny input that reproduces the counts is not
		// possible, so the factory re-implements Build's wiring with the
		// shipped counts.
		var counts map[string]int
		if err := json.Unmarshal(desc.Aux, &counts); err != nil {
			return mapreduce.Job{}, fmt.Errorf("dist: fpgrowth f-list: %w", err)
		}
		minSupport := 2
		if v, ok := counts["\x00minSupport"]; ok {
			minSupport = v
			delete(counts, "\x00minSupport")
		}
		return workloads.BuildFPGrowthWithFList(descConfig(desc, "fpgrowth"), counts, minSupport), nil
	})
	return r
}

// Register installs (or replaces) a factory.
func (r *Registry) Register(name string, f JobFactory) { r.factories[name] = f }

// Build reconstructs the job for a descriptor.
func (r *Registry) Build(desc JobDescriptor) (mapreduce.Job, error) {
	f, ok := r.factories[desc.Workload]
	if !ok {
		known := make([]string, 0, len(r.factories))
		for n := range r.factories {
			known = append(known, n)
		}
		sort.Strings(known)
		return mapreduce.Job{}, fmt.Errorf("dist: unknown workload %q (known: %s)", desc.Workload, strings.Join(known, ", "))
	}
	return f(desc)
}

// descConfig converts the wire descriptor into an engine config.
func descConfig(desc JobDescriptor, name string) mapreduce.Config {
	cfg := mapreduce.DefaultConfig(name)
	cfg.NumReducers = desc.NumReducers
	return cfg
}

// PrepareAux computes the master-side auxiliary data a workload needs
// before its descriptor can be shipped: sampled range cuts for the sorts
// and the f-list for FP-Growth. It mutates the descriptor. Grep needs
// nothing here: its pattern is the caller's, set in desc.Aux (hadoopd's
// -pattern does that).
func PrepareAux(desc *JobDescriptor, input []byte) error {
	switch desc.Workload {
	case "sort":
		cuts, err := workloads.SampleCuts(input, desc.NumReducers, func(line string) string { return line })
		if err != nil {
			return err
		}
		desc.Cuts = cuts
	case "terasort":
		cuts, err := workloads.SampleCuts(input, desc.NumReducers, workloads.TeraKey)
		if err != nil {
			return err
		}
		desc.Cuts = cuts
	case "fpgrowth":
		minSupport := 2
		counts := workloads.CountItems(input)
		counts["\x00minSupport"] = minSupport
		aux, err := json.Marshal(counts)
		if err != nil {
			return err
		}
		desc.Aux = aux
	}
	return nil
}

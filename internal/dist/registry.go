package dist

import (
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

// NewRegistry returns a registry with every workload of workloads.All: a
// workloads.SideBuilder builds from the descriptor's Aux, any other from cfg.
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]JobFactory)}
	for _, w := range workloads.All() {
		r.Register(w.Name(), func(desc JobDescriptor) (mapreduce.Job, error) {
			cfg := mapreduce.DefaultConfig(w.Name())
			cfg.NumReducers = desc.NumReducers
			if sb, ok := w.(workloads.SideBuilder); ok {
				return sb.BuildSide(cfg, desc.Aux)
			}
			return w.Build(cfg, nil)
		})
	}
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

// PrepareAux computes a descriptor's side data before it is shipped: a
// bundled workloads.Sider's Side output replaces desc.Aux, and any other
// descriptor keeps the Aux it was given (grep's pattern, hadoopd's -pattern).
func PrepareAux(desc *JobDescriptor, input []byte) (err error) {
	w, _ := workloads.ByName(desc.Workload) // nil when not bundled
	if s, ok := w.(workloads.Sider); ok {
		desc.Aux, err = s.Side(input, desc.NumReducers)
	}
	return err
}

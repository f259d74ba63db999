// Customworkload: how a downstream user adds their own application to the
// library — implement the workloads.Workload interface (generator, job
// builder, calibrated spec) and the whole stack lights up: the real engine
// runs it, the characterizer compares big vs little, and the scheduler
// classifies it.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"heterohadoop/internal/core"
	"heterohadoop/internal/isa"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/sched"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// InvertedIndex builds a word -> document-list index, the classic search
// back-end job: compute-bound tokenization with a moderate shuffle.
type InvertedIndex struct{}

// Name returns the workload identifier.
func (*InvertedIndex) Name() string { return "invertedindex" }

// Class declares it compute-bound for the paper's scheduling policy.
func (*InvertedIndex) Class() workloads.Class { return workloads.Compute }

// Generate reuses the Zipf text generator; each line is one "document".
func (*InvertedIndex) Generate(size units.Bytes, seed int64) []byte {
	return workloads.GenerateText(size, seed)
}

// Build assembles the job: map emits (word, docID) once per distinct word
// per document; reduce concatenates sorted unique document ids. It is
// written against the string API — MapperFunc and ReducerFunc adapt string
// functions to the engine's byte-level Mapper and Reducer contracts.
func (*InvertedIndex) Build(cfg mapreduce.Config, _ []byte) (mapreduce.Job, error) {
	mapper := mapreduce.MapperFunc(func(offset, line string, emit mapreduce.Emitter) error {
		seen := map[string]bool{}
		for _, w := range strings.Fields(line) {
			if !seen[w] {
				seen[w] = true
				emit(w, offset) // the line offset is the document id
			}
		}
		return nil
	})
	reducer := mapreduce.ReducerFunc(func(word string, docs []string, emit mapreduce.Emitter) error {
		emit(word, strings.Join(docs, ","))
		return nil
	})
	return mapreduce.Job{Config: cfg, Mapper: mapper, Reducer: reducer}, nil
}

// Spec is the calibrated profile the simulator uses. A user would check its
// dataflow ratios against an engine run, the way
// TestSpecsMatchEngineDataflow in internal/workloads holds the bundled
// workloads to theirs.
func (*InvertedIndex) Spec() workloads.Spec {
	return workloads.Spec{
		MapProfile: isa.Profile{
			Name:                 "invertedindex/map",
			InstructionsPerByte:  45,
			Mix:                  isa.Mix{isa.IntALU: 0.46, isa.Load: 0.26, isa.Store: 0.10, isa.Branch: 0.18},
			Mem:                  isa.MemBehavior{WorkingSet: 4 * units.MB, Locality: 0.25, CompulsoryMissRatio: 0.005, Dependence: 0.3},
			BranchMispredictRate: 0.05,
			ILP:                  1.8,
		},
		ReduceProfile: isa.Profile{
			Name:                 "invertedindex/reduce",
			InstructionsPerByte:  20,
			Mix:                  isa.Mix{isa.IntALU: 0.38, isa.Load: 0.30, isa.Store: 0.15, isa.Branch: 0.17},
			Mem:                  isa.MemBehavior{WorkingSet: 16 * units.MB, Locality: 0.3, CompulsoryMissRatio: 0.01, Dependence: 0.45},
			BranchMispredictRate: 0.04,
			ILP:                  1.8,
		},
		MapOutputRatio:    2.2,
		ShuffleRatio:      0.8, // doc ids survive the shuffle; no combiner
		ReduceOutputRatio: 0.7,
		SpillReduction:    1,
		HasReduce:         true,
	}
}

var _ workloads.Workload = (*InvertedIndex)(nil)

func main() {
	ctx := context.Background()
	ii := &InvertedIndex{}

	// 1. Real run: index 32 KB of documents.
	res, err := core.RunRealParallel(ctx, ii, 32*units.KB, 8*units.KB, 2, 0, 7)
	if err != nil {
		log.Fatal(err)
	}
	out := res.SortedOutput()
	fmt.Printf("indexed %d distinct words; e.g. %q -> docs [%s...]\n",
		len(out), out[0].Key, firstN(out[0].Value, 30))

	// 2. Characterize big vs little at 1 GB/node.
	cmp, err := core.Compare(ctx, ii, units.GB, 256*units.MB, 1.8*units.GHz)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("big core %.2fx faster; EDP winner: %v (ratio %.2f)\n",
		cmp.TimeRatio, cmp.EDPWinner, cmp.EDPRatio)

	// 3. Let the paper's policy place it.
	d := sched.Policy(ii.Class(), sched.MinEDP)
	fmt.Printf("policy schedules it on %v x%d (%s)\n", d.Kind, d.Cores, d.Rationale)
}

func firstN(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

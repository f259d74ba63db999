package workloads

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
)

// FPGrowth mines frequent itemsets from market-basket transactions with a
// distributed FP-Growth job in the style of Mahout's parallel FP-growth —
// the paper's association-rule-mining workload and by far its most
// resource-intensive application.
//
// The job decomposes mining by item: the mapper emits, for every item in a
// frequency-ordered transaction, the prefix path ending at that item; the
// reducer for an item builds the item's conditional FP-tree from the
// received paths and mines all frequent patterns ending (in frequency
// order) at that item. The union over items is exactly the full FP-growth
// result, which the tests verify against the single-node miner.
type FPGrowth struct {
	minSupport int
}

// NewFPGrowth returns the workload with an absolute minimum support count.
func NewFPGrowth(minSupport int) *FPGrowth {
	if minSupport < 1 {
		minSupport = 1
	}
	return &FPGrowth{minSupport: minSupport}
}

// Name returns "fpgrowth".
func (*FPGrowth) Name() string { return "fpgrowth" }

// Class returns Compute: the paper calls FP-Growth resource-intensive and
// schedules it as compute-bound.
func (*FPGrowth) Class() Class { return Compute }

// Generate produces market-basket transactions with embedded co-occurrence
// patterns.
func (*FPGrowth) Generate(size units.Bytes, seed int64) []byte {
	return GenerateTransactions(size, seed)
}

// Spec returns the calibrated resource profile.
func (*FPGrowth) Spec() Spec { return fpGrowthSpec() }

// pathSep separates the prefix path from its aggregated count in
// intermediate values.
const pathSep = "|"

// Build scans the input once for the global item-frequency list (Mahout's
// f-list step), then assembles the mining job.
func (f *FPGrowth) Build(cfg mapreduce.Config, input []byte) (mapreduce.Job, error) {
	return buildFPGrowthJob(cfg, countItems(input), f.minSupport), nil
}

// fList is FP-Growth's side data: the min support has a field of its own.
type fList struct {
	MinSupport int
	Counts     map[string]int
}

// Side counts the input's items (the f-list) and encodes them with the
// min support, in gob, which keeps every item's bytes as they are.
func (f *FPGrowth) Side(input []byte, _ int) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(fList{MinSupport: f.minSupport, Counts: countItems(input)})
	return buf.Bytes(), err
}

// BuildSide assembles the mining job around Side's f-list.
func (*FPGrowth) BuildSide(cfg mapreduce.Config, side []byte) (mapreduce.Job, error) {
	var fl fList
	if err := gob.NewDecoder(bytes.NewReader(side)).Decode(&fl); err != nil {
		return mapreduce.Job{}, fmt.Errorf("fpgrowth: f-list: %w", err)
	}
	return buildFPGrowthJob(cfg, fl.Counts, fl.MinSupport), nil
}

// countItems builds the f-list from transaction input:
// per-transaction-deduplicated item counts.
func countItems(input []byte) map[string]int {
	counts := make(map[string]int)
	for _, line := range strings.Split(string(input), "\n") {
		for _, item := range dedupe(strings.Fields(line)) {
			counts[item]++
		}
	}
	return counts
}

// buildFPGrowthJob wires the mining job around a given f-list.
func buildFPGrowthJob(cfg mapreduce.Config, counts map[string]int, minSupport int) mapreduce.Job {
	mapper := mapreduce.MapperFunc(func(_, line string, emit mapreduce.Emitter) error {
		items := orderByFrequency(dedupe(strings.Fields(line)), counts, minSupport)
		for i := range items {
			emit(items[i], strings.Join(items[:i+1], " ")+pathSep+"1")
		}
		return nil
	})

	// The combiner deduplicates identical prefix paths, aggregating counts.
	combiner := mapreduce.ReducerFunc(func(key string, values []string, emit mapreduce.Emitter) error {
		agg := make(map[string]int)
		for _, v := range values {
			path, n, err := splitPathCount(v)
			if err != nil {
				return err
			}
			agg[path] += n
		}
		for path, n := range agg {
			emit(key, path+pathSep+strconv.Itoa(n))
		}
		return nil
	})

	reducer := mapreduce.ReducerFunc(func(item string, values []string, emit mapreduce.Emitter) error {
		support := 0
		cond := NewFPTree(minSupport)
		for _, v := range values {
			path, n, err := splitPathCount(v)
			if err != nil {
				return err
			}
			support += n
			prefix := strings.Fields(path)
			if len(prefix) == 0 || prefix[len(prefix)-1] != item {
				return fmt.Errorf("fpgrowth: path %q does not end at item %q", path, item)
			}
			cond.Insert(prefix[:len(prefix)-1], n)
		}
		if support < minSupport {
			return nil
		}
		emit(item, strconv.Itoa(support))
		for _, p := range cond.Mine() {
			items := append(append([]string(nil), p.Items...), item)
			pat := Pattern{Items: items, Support: p.Support}
			// Canonical order for output keys.
			sort.Strings(pat.Items)
			emit(pat.Key(), strconv.Itoa(pat.Support))
		}
		return nil
	})

	return mapreduce.Job{
		Config:   cfg,
		Mapper:   mapper,
		Combiner: combiner,
		Reducer:  reducer,
	}
}

// splitPathCount parses "i1 i2 i3|count".
func splitPathCount(v string) (string, int, error) {
	i := strings.LastIndex(v, pathSep)
	if i < 0 {
		return "", 0, fmt.Errorf("fpgrowth: malformed value %q", v)
	}
	n, err := strconv.Atoi(v[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("fpgrowth: malformed count in %q: %w", v, err)
	}
	return v[:i], n, nil
}

// ParsePatterns converts the job output into Pattern values.
func ParsePatterns(output []mapreduce.KV) ([]Pattern, error) {
	out := make([]Pattern, 0, len(output))
	for _, kv := range output {
		n, err := strconv.Atoi(kv.Value)
		if err != nil {
			return nil, fmt.Errorf("fpgrowth: bad support %q for %q: %w", kv.Value, kv.Key, err)
		}
		out = append(out, Pattern{Items: strings.Split(kv.Key, ","), Support: n})
	}
	return out, nil
}

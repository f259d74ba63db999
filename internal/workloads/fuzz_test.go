package workloads

import (
	"strings"
	"testing"

	"heterohadoop/internal/mapreduce"
)

// FuzzFPTreeMine fuzzes the FP-growth miner: for arbitrary transaction
// text, every mined pattern's support must be correct against a brute-force
// count, and every frequent single item must be mined.
func FuzzFPTreeMine(f *testing.F) {
	f.Add("a b c\na b\nb c\n", uint8(2))
	f.Add("x\nx\nx\n", uint8(3))
	f.Add("", uint8(1))
	f.Add("a a a\nb b\n", uint8(1))
	f.Add("b,c b c x\n", uint8(0)) // {b,c x} and {b c x} are distinct itemsets
	f.Fuzz(func(t *testing.T, text string, supRaw uint8) {
		minSupport := int(supRaw%4) + 1
		var txs [][]string
		for _, line := range strings.Split(text, "\n") {
			items := strings.Fields(line)
			if len(items) > 0 {
				// Bound transaction width to keep mining tractable on
				// adversarial inputs.
				if len(items) > 8 {
					items = items[:8]
				}
				txs = append(txs, items)
			}
		}
		if len(txs) > 64 {
			txs = txs[:64]
		}
		patterns := MineTransactions(txs, minSupport)

		contains := func(tx []string, items []string) bool {
			set := map[string]bool{}
			for _, it := range tx {
				set[it] = true
			}
			for _, it := range items {
				if !set[it] {
					return false
				}
			}
			return true
		}
		support := func(items []string) int {
			n := 0
			for _, tx := range txs {
				if contains(tx, items) {
					n++
				}
			}
			return n
		}

		// Itemsets are identified by their space-joined items: items come
		// from strings.Fields, so unlike Pattern.Key's comma a space cannot
		// occur inside one.
		seen := map[string]bool{}
		for _, p := range patterns {
			id := strings.Join(p.Items, " ")
			if seen[id] {
				t.Fatalf("pattern %q mined twice", p.Key())
			}
			seen[id] = true
			if p.Support < minSupport {
				t.Fatalf("pattern %q support %d below threshold %d", p.Key(), p.Support, minSupport)
			}
			if got := support(p.Items); got != p.Support {
				t.Fatalf("pattern %q support %d, brute force %d", p.Key(), p.Support, got)
			}
		}
		// Completeness spot check: every frequent single item is mined.
		counts := map[string]int{}
		for _, tx := range txs {
			for _, it := range dedupe(tx) {
				counts[it]++
			}
		}
		for it, n := range counts {
			if n >= minSupport && !seen[it] {
				t.Fatalf("frequent item %q (support %d) not mined", it, n)
			}
		}
	})
}

// FuzzNaiveBayesModel fuzzes model construction against malformed training
// output: it must either error or produce a classifier that never panics.
func FuzzNaiveBayesModel(f *testing.F) {
	f.Add("doc|sports", "3", "word|sports|ball", "5")
	f.Add("doc|a", "1", "word|a|x", "2")
	f.Add("bogus", "1", "word|nosep", "2")
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2 string) {
		model, err := NewModel([]mapreduce.KV{{Key: k1, Value: v1}, {Key: k2, Value: v2}})
		if err != nil {
			return
		}
		_ = model.Classify([]string{"ball", "x", ""})
		_ = model.Labels()
		_ = model.VocabularySize()
	})
}

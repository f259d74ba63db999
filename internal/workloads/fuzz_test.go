package workloads

import (
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

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

// FuzzGrepMapper holds grep's literal-scan mapper to the per-word oracle:
// for any pattern and any line bytes it must emit exactly the words
// forEachField yields that the regexp matches, in order, each once. The
// seeds cover anchored patterns LiteralPrefix calls complete (^ou$, ^0$), a
// literal holding a space, a suffix anchor over repeated hits, case folding,
// U+FFFD against invalid bytes, the Unicode spaces and a pattern that does
// not compile, which must be the mapper's error exactly when it is the
// regexp's.
func FuzzGrepMapper(f *testing.F) {
	f.Add("^ou$", []byte("xoux ou youx"))
	f.Add("^0$", []byte("00 0 x0 0x"))
	f.Add("o u", []byte("o u xo uy"))
	f.Add("ou$", []byte("you ouou out"))
	f.Add("ou", []byte("ouou\u00a0you\u2003xou\u0085ou\xffou\xe2\x80ou\u200aou"))
	f.Add("(?i)OU", []byte("You OUT\tx"))
	f.Add(`\x{FFFD}`, []byte("a\xffb \ufffd \xe2\x80"))
	f.Add(`a\x{FFFD}b`, []byte("a\xffb a\ufffdb ab"))
	f.Add("o\u00a0u", []byte("o\u00a0u o u"))
	f.Add("", []byte("a b"))
	f.Add("[a-z]+", []byte("a1 B b\u2000c"))
	f.Add("o.u", []byte("oxu o u o\xffu"))
	f.Add("(", []byte("( x"))
	f.Fuzz(func(t *testing.T, pattern string, line []byte) {
		re, err := regexp.Compile(pattern)
		m, merr := newGrepMapper(pattern)
		if (err == nil) != (merr == nil) {
			t.Fatalf("pattern %q: regexp error %v, mapper error %v", pattern, err, merr)
		}
		if err != nil {
			return
		}
		var want []string
		forEachField(line, func(w []byte) {
			if re.Match(w) {
				want = append(want, string(w))
			}
		})
		var got []string
		if err := m.MapBytes(0, line, func(k, v []byte) {
			if string(v) != "1" {
				t.Fatalf("value %q, want 1", v)
			}
			got = append(got, string(k))
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pattern %q line %q: emitted %q, want %q", pattern, line, got, want)
		}
	})
}

// FuzzForEachField holds the field splitting that WordCount and grep share
// to strings.Fields, and the boundary scans grep widens a hit with to the
// fields themselves: from any rune boundary inside a field, fieldStart and
// fieldEnd must land on its ends. (Fields over 64 bytes are checked from
// their ends only, which keeps each input linear.)
func FuzzForEachField(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(" a  b\t\n"))
	f.Add([]byte("\u0085x\u00a0y\u2000z\u200a\u3000w"))
	f.Add([]byte("\xe2\xe2\x80\x83a"))
	f.Add([]byte("a\xc2 b\xe2\x80 c\xff\xfe"))
	f.Add([]byte("\x80\xe2\x80\x83\x80"))
	f.Fuzz(func(t *testing.T, line []byte) {
		var got []string
		forEachField(line, func(w []byte) {
			got = append(got, string(w))
			start := cap(line) - cap(w)
			end := start + len(w)
			for i := start; ; {
				if s := fieldStart(line, i); s != start {
					t.Fatalf("%q: fieldStart(%d) = %d, want %d", line, i, s, start)
				}
				if e := fieldEnd(line, i); e != end {
					t.Fatalf("%q: fieldEnd(%d) = %d, want %d", line, i, e, end)
				}
				if i == end {
					break
				}
				if _, size := utf8.DecodeRune(line[i:end]); end-start <= 64 {
					i += size
				} else {
					i = end
				}
			}
		})
		if want := strings.Fields(string(line)); !slices.Equal(got, want) {
			t.Fatalf("%q: forEachField %q, strings.Fields %q", line, got, want)
		}
	})
}

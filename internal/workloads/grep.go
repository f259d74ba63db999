package workloads

import (
	"bytes"
	"fmt"
	"regexp"
	"regexp/syntax"
	"strings"
	"unicode"
	"unicode/utf8"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
)

// Grep extracts strings matching a pattern and counts match frequencies —
// the paper's second CPU-intensive micro-benchmark, with hybrid behaviour
// from its two internal stages (search, then sort by frequency).
type Grep struct {
	pattern string
}

// NewGrep returns a Grep workload for the given regular expression. The
// pattern is compiled by Build, which reports it if it is invalid.
func NewGrep(pattern string) *Grep {
	return &Grep{pattern: pattern}
}

// Name returns "grep".
func (*Grep) Name() string { return "grep" }

// Class returns Hybrid: grep's search phase is compute-bound but its
// frequency-sort phase behaves like the sort benchmarks.
func (*Grep) Class() Class { return Hybrid }

// Generate produces Zipf-distributed text.
func (*Grep) Generate(size units.Bytes, seed int64) []byte {
	return GenerateText(size, seed)
}

// Spec returns the calibrated resource profile.
func (*Grep) Spec() Spec { return grepSpec() }

// grepMapper emits (word, 1) for every whitespace-separated word of a line
// that the pattern matches, in line order — what forEachField plus re.Match
// would emit. Every match begins with lit, so when lit is not empty the
// mapper finds it with bytes.Index, widens each hit to the word around it
// and runs the regexp on that word alone: a word without lit is never
// split out or matched.
type grepMapper struct {
	re    *regexp.Regexp
	lit   []byte // a literal every match begins with; empty: none known
	exact bool   // the pattern is lit itself: a word holding lit matches
	none  bool   // lit holds a space, which no word does: nothing matches
}

// newGrepMapper compiles pattern and derives the literal scan from it.
func newGrepMapper(pattern string) (*grepMapper, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("grep: %w", err)
	}
	m := &grepMapper{re: re}
	lit, _ := re.LiteralPrefix() // its complete flag ignores anchors: see below
	for _, r := range lit {
		if unicode.IsSpace(r) {
			m.none = true
			return m, nil
		}
	}
	// The regexp matches U+FFFD against any invalid byte as well as its own
	// encoding, so the bytes from there on are not required.
	if i := strings.IndexRune(lit, utf8.RuneError); i >= 0 {
		lit = lit[:i]
	}
	m.lit = []byte(lit)
	// LiteralPrefix calls ^ou$ complete, yet it does not match "xoux"; only
	// a bare case-sensitive literal matches every word that holds it.
	if sre, err := syntax.Parse(pattern, syntax.Perl); err == nil {
		sre = sre.Simplify()
		m.exact = sre.Op == syntax.OpLiteral && sre.Flags&syntax.FoldCase == 0 &&
			string(sre.Rune) == lit
	}
	return m, nil
}

func (m *grepMapper) MapBytes(_ int, line []byte, emit mapreduce.ByteEmitter) error {
	switch {
	case m.none:
	case len(m.lit) == 0:
		forEachField(line, func(w []byte) {
			if m.re.Match(w) {
				emit(w, one)
			}
		})
	default:
		for i := 0; ; {
			at := bytes.Index(line[i:], m.lit)
			if at < 0 {
				break
			}
			// lit is valid UTF-8 without a space, so the hit starts a rune
			// and lies inside one word.
			at += i
			start, end := fieldStart(line, at), fieldEnd(line, at+len(m.lit))
			if w := line[start:end]; m.exact || m.re.Match(w) {
				emit(w, one)
			}
			i = end // the word is done with, matched or not
		}
	}
	return nil
}

// Build assembles the search job: match words against the pattern, emit
// (match, 1), sum with combiner and reducer. (Hadoop's grep example chains
// a second tiny job that sorts matches by frequency; it is not built here.)
// An invalid pattern is Build's error.
func (g *Grep) Build(cfg mapreduce.Config, _ []byte) (mapreduce.Job, error) {
	m, err := newGrepMapper(g.pattern)
	if err != nil {
		return mapreduce.Job{}, err
	}
	return mapreduce.Job{
		Config:   cfg,
		Mapper:   m,
		Combiner: sumReducer(),
		Reducer:  sumReducer(),
	}, nil
}

// BuildSide assembles the grep job for the pattern in side, the
// submitter's, which a cluster ships to every task.
func (*Grep) BuildSide(cfg mapreduce.Config, side []byte) (mapreduce.Job, error) {
	if len(side) == 0 {
		return mapreduce.Job{}, fmt.Errorf("grep: no pattern")
	}
	return NewGrep(string(side)).Build(cfg, nil)
}

package workloads

import (
	"strconv"
	"unicode"
	"unicode/utf8"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
)

// WordCount reads text and counts how often each word appears — the paper's
// canonical CPU-intensive micro-benchmark.
type WordCount struct{}

// NewWordCount returns the WordCount workload.
func NewWordCount() *WordCount { return &WordCount{} }

// Name returns "wordcount".
func (*WordCount) Name() string { return "wordcount" }

// Class returns Compute: the paper classifies WordCount as CPU-intensive.
func (*WordCount) Class() Class { return Compute }

// Generate produces Zipf-distributed text.
func (*WordCount) Generate(size units.Bytes, seed int64) []byte {
	return GenerateText(size, seed)
}

// Spec returns the calibrated resource profile.
func (*WordCount) Spec() Spec { return wordCountSpec() }

// asciiSpace mirrors strings.Fields' ASCII space table. With
// unicode.IsSpace for the rest it is the one separator test, strings.Fields'
// own, that forEachField, fieldEnd and fieldStart share. Invalid UTF-8
// decodes to U+FFFD, which is not a space, so it counts as a field byte.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// fieldEnd returns the index of the first separator at or after i, or
// len(line): the end of a field that runs through i.
func fieldEnd(line []byte, i int) int {
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != 0 {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(line[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	return i
}

// fieldStart returns the start of a field that runs up to i: it walks back
// rune by rune with utf8.DecodeLastRune to just past the previous
// separator, or to 0. UTF-8 decodes the same runes backwards as forwards,
// invalid bytes one at a time, so it splits where fieldEnd does.
func fieldStart(line []byte, i int) int {
	for i > 0 {
		if c := line[i-1]; c < utf8.RuneSelf {
			if asciiSpace[c] != 0 {
				break
			}
			i--
			continue
		}
		r, size := utf8.DecodeLastRune(line[:i])
		if unicode.IsSpace(r) {
			break
		}
		i -= size
	}
	return i
}

// forEachField calls fn for each whitespace-separated field of line,
// splitting exactly as strings.Fields does (Unicode spaces included;
// invalid UTF-8 bytes count as field bytes) without materializing strings
// or a field slice. The word slice aliases line.
func forEachField(line []byte, fn func(word []byte)) {
	n := len(line)
	i := 0
	for i < n {
		// Skip the separating whitespace run.
		for i < n {
			if c := line[i]; c < utf8.RuneSelf {
				if asciiSpace[c] == 0 {
					break
				}
				i++
				continue
			}
			r, size := utf8.DecodeRune(line[i:])
			if !unicode.IsSpace(r) {
				break
			}
			i += size
		}
		if i >= n {
			return
		}
		start := i
		for i < n {
			if c := line[i]; c < utf8.RuneSelf {
				if asciiSpace[c] != 0 {
					break
				}
				i++
				continue
			}
			r, size := utf8.DecodeRune(line[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += size
		}
		fn(line[start:i])
	}
}

var one = []byte("1")

// wcMapper tokenizes lines and emits (word, 1), scanning fields in place,
// so a map task allocates nothing per token.
type wcMapper struct{}

func (wcMapper) MapBytes(_ int, line []byte, emit mapreduce.ByteEmitter) error {
	forEachField(line, func(w []byte) { emit(w, one) })
	return nil
}

// sumRed adds up integer counts; it serves as both combiner and reducer,
// parsing and formatting counts without per-value strings.
type sumRed struct{}

func (sumRed) ReduceStream(key []byte, values *mapreduce.ValueIter, emit mapreduce.ByteEmitter) error {
	total := 0
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n, err := byteAtoi(v)
		if err != nil {
			return err
		}
		total += n
	}
	var buf [20]byte
	emit(key, strconv.AppendInt(buf[:0], int64(total), 10))
	return nil
}

// byteAtoi parses an integer from bytes. Canonical small integers parse
// allocation-free; anything else falls back to strconv.Atoi, which defines
// the values, errors and edge-case semantics.
func byteAtoi(b []byte) (int, error) {
	// Up to 18 chars of sign+digits always fits int64, no overflow check.
	if n := len(b); n > 0 && n <= 18 {
		i := 0
		neg := false
		if b[0] == '-' || b[0] == '+' {
			neg = b[0] == '-'
			i++
		}
		if i < len(b) {
			v := 0
			for ; i < len(b); i++ {
				d := b[i] - '0'
				if d > 9 {
					return strconv.Atoi(string(b))
				}
				v = v*10 + int(d)
			}
			if neg {
				v = -v
			}
			return v, nil
		}
	}
	return strconv.Atoi(string(b))
}

// sumReducer returns the summing reducer/combiner shared by the counting
// workloads.
func sumReducer() mapreduce.Reducer { return sumRed{} }

// Build assembles the word-count job: tokenize, emit (word, 1), combine and
// reduce by summation.
func (*WordCount) Build(cfg mapreduce.Config, _ []byte) (mapreduce.Job, error) {
	return mapreduce.Job{
		Config:   cfg,
		Mapper:   wcMapper{},
		Combiner: sumReducer(),
		Reducer:  sumReducer(),
	}, nil
}

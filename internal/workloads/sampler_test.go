package workloads

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// splitSampleCuts is the sampler as it was first written — split the whole
// input, sample every stride-th line, sort.Strings — kept as the oracle the
// streaming sampleCuts must match cut for cut.
func splitSampleCuts(input []byte, numReducers int, keyOf func(line string) string) ([]string, error) {
	if numReducers <= 1 {
		return nil, nil
	}
	const maxSamples = 10000
	lines := bytes.Split(input, []byte{'\n'})
	stride := len(lines)/maxSamples + 1
	var keys []string
	for i := 0; i < len(lines); i += stride {
		if len(lines[i]) == 0 {
			continue
		}
		keys = append(keys, keyOf(string(lines[i])))
	}
	if len(keys) < numReducers {
		return nil, fmt.Errorf("workloads: only %d sampled keys for %d reducers", len(keys), numReducers)
	}
	sort.Strings(keys)
	cuts := make([]string, numReducers-1)
	for i := 1; i < numReducers; i++ {
		cuts[i-1] = keys[i*len(keys)/numReducers]
	}
	return cuts, nil
}

// TestSampleCutsMatchesSplitSampler holds sampleCuts to the split-based
// oracle over random inputs: empty lines, with and without a trailing
// newline, and line counts below, at and well above maxSamples, so the
// stride is 1, 2 and more.
func TestSampleCutsMatchesSplitSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	identity := func(s string) string { return s }
	inputs := [][]byte{nil, {}, []byte("\n"), []byte("\n\n\n"), []byte("a"), []byte("b\na"), []byte("b\na\n")}
	for _, lines := range []int{1, 3, 17, 9999, 10000, 10001, 19999, 20000, 20001, 34567} {
		for _, emptyEvery := range []int{0, 2, 7} {
			var buf bytes.Buffer
			for i := 0; i < lines; i++ {
				if i > 0 {
					buf.WriteByte('\n')
				}
				if emptyEvery > 0 && rng.Intn(emptyEvery) == 0 {
					continue
				}
				const alphabet = "AB\tz~\x00\xff"
				for j, n := 0, 1+rng.Intn(14); j < n; j++ {
					buf.WriteByte(alphabet[rng.Intn(len(alphabet))])
				}
			}
			if rng.Intn(2) == 0 {
				buf.WriteByte('\n')
			}
			inputs = append(inputs, buf.Bytes())
		}
	}
	for n, input := range inputs {
		for _, reducers := range []int{1, 2, 3, 8} {
			for name, keyOf := range map[string]func(string) string{"line": identity, "tera": teraKey} {
				got, gotErr := sampleCuts(input, reducers, keyOf)
				want, wantErr := splitSampleCuts(input, reducers, keyOf)
				if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("input %d (%d bytes, %d reducers, %s keys): cuts %q (err %v), the split sampler's %q (err %v)",
						n, len(input), reducers, name, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

package workloads

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
)

// sampleCuts implements TeraSort's input sampler: it samples input lines,
// extracts their sort keys, and returns numReducers-1 quantile cut keys
// that define the range partitioner ("a sorted list of N-1 sampled keys to
// define the key range for each reduce", per the paper's TeraSort
// description). It takes every stride-th of the input's lines — the pieces
// between newlines, a final unterminated or empty one included — skipping
// empty ones, and converts only those it takes.
func sampleCuts(input []byte, numReducers int, keyOf func(line string) string) ([]string, error) {
	if numReducers <= 1 {
		return nil, nil
	}
	const maxSamples = 10000
	stride := (bytes.Count(input, []byte{'\n'})+1)/maxSamples + 1
	var keys []string
	for i, rest := 0, input; rest != nil; i++ {
		line := rest
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			rest = nil
		}
		if i%stride == 0 && len(line) > 0 {
			keys = append(keys, keyOf(string(line)))
		}
	}
	if len(keys) < numReducers {
		return nil, fmt.Errorf("workloads: only %d sampled keys for %d reducers", len(keys), numReducers)
	}
	slices.Sort(keys)
	cuts := make([]string, numReducers-1)
	for i := 1; i < numReducers; i++ {
		cuts[i-1] = keys[i*len(keys)/numReducers]
	}
	return cuts, nil
}

// sideCuts is the sorts' Side: sampleCuts' keys, each followed by a
// newline, which no key holds (every key comes from within a line).
func sideCuts(input []byte, numReducers int, keyOf func(line string) string) ([]byte, error) {
	cuts, err := sampleCuts(input, numReducers, keyOf)
	var side []byte
	for _, c := range cuts {
		side = append(append(side, c...), '\n')
	}
	return side, err
}

// parseCuts reads sideCuts' encoding back: no side data is no cuts.
func parseCuts(side []byte) []string {
	cuts := strings.Split(string(side), "\n")
	return cuts[:len(cuts)-1]
}

package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// BenchmarkShuffleMerge measures the reduce-side k-way merge — the loser
// tree over pre-sorted segments — at the fan-ins the shuffle produces.
// Compare runs with benchstat over `go test -bench ShuffleMerge -count N`.
func BenchmarkShuffleMerge(b *testing.B) {
	const perSegment = 2048
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("segments-%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			segs := make([]Segment, k)
			for s := range segs {
				recs := make([]KV, perSegment)
				for i := range recs {
					recs[i] = KV{Key: fmt.Sprintf("key-%06d", rng.Intn(perSegment*4)), Value: "1"}
				}
				sort.SliceStable(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
				segs[s] = SegmentFromKVs(recs)
			}
			b.SetBytes(int64(k * perSegment * 12))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := mergeSegs(segs); got.Len() != k*perSegment {
					b.Fatalf("merged %d records, want %d", got.Len(), k*perSegment)
				}
			}
		})
	}
}

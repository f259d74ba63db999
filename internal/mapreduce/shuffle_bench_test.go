package mapreduce

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/units"
)

// BenchmarkContendedShuffle stresses the shuffle sink's collector plane:
// many small map tasks publishing into many partitions — ~75 tasks × 32
// partitions here. With interval-sharded collectors and batched handoff
// each task pays one channel send (not one per partition) and the
// collecting spreads across the shards. Run with `-cpu 1,4` to see the
// contention difference; bench/ covers the end-to-end workloads.
func BenchmarkContendedShuffle(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&sb, "w%d c%d x%d y%d z%d\n", i%997, i%31, i%13, i%7, i%251)
	}
	input := sb.String()
	store, err := hdfs.NewStore(hdfs.Config{BlockSize: 2 * units.KB, Replication: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.Write("input", []byte(input)); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(store)
	cfg := DefaultConfig("contended-shuffle")
	cfg.NumReducers = 32
	cfg.SortBuffer = 8 * units.KB // several small runs per map task
	job := wordCountJob(cfg)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.RunContext(context.Background(), job, "input")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.parts) != cfg.NumReducers {
			b.Fatalf("got %d partitions, want %d", len(res.parts), cfg.NumReducers)
		}
	}
}

package mapreduce_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"heterohadoop/internal/hdfs"
	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
)

// ExampleEngine_RunContext runs a complete word-count job: the input is split into
// HDFS blocks (one map task each), combined, shuffled and reduced.
func ExampleEngine_RunContext() {
	store, _ := hdfs.NewStore(hdfs.Config{BlockSize: 16, Replication: 1})
	store.Write("input", []byte("to be or not to be\nthat is the question\n"))

	sum := mapreduce.ReducerFunc(func(key string, values []string, emit mapreduce.Emitter) error {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(v)
			total += n
		}
		emit(key, strconv.Itoa(total))
		return nil
	})
	job := mapreduce.Job{
		Config: mapreduce.DefaultConfig("wordcount"),
		Mapper: mapreduce.MapperFunc(func(_, line string, emit mapreduce.Emitter) error {
			for _, w := range strings.Fields(line) {
				emit(w, "1")
			}
			return nil
		}),
		Combiner: sum,
		Reducer:  sum,
	}
	res, _ := mapreduce.NewEngine(store).RunContext(context.Background(), job, "input")
	for _, kv := range res.SortedOutput()[:3] {
		fmt.Printf("%s=%s\n", kv.Key, kv.Value)
	}
	fmt.Println("map tasks:", res.Counters.MapTasks)
	// Output:
	// be=2
	// is=1
	// not=1
	// map tasks: 3
}

// ExampleSplitInput shows the record-aligned chunking the distributed
// runtime ships to workers.
func ExampleSplitInput() {
	chunks := mapreduce.SplitInput([]byte("aa\nbbbb\ncc\n"), 4)
	for i, c := range chunks {
		fmt.Printf("%d: %q\n", i, c)
	}
	// Output:
	// 0: "aa\nbbbb\n"
	// 1: "cc\n"
}

var _ = units.KB // keep the units import for doc symmetry

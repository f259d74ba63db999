package mapreduce

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// stableMergeOracle is the reference every merge test holds the engine's one
// merge to, and shares no code with it: concatenate the runs in slot order,
// then stable-sort by key.
func stableMergeOracle(runs []Segment) []KV {
	var out []KV
	for _, r := range runs {
		out = append(out, r.KVs()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func TestMergeSegs(t *testing.T) {
	segs := kvSegs([][]KV{
		{{Key: "a", Value: "0.0"}, {Key: "c", Value: "0.1"}, {Key: "e", Value: "0.2"}},
		{{Key: "b", Value: "1.0"}, {Key: "c", Value: "1.1"}, {Key: "f", Value: "1.2"}},
		{},
		{{Key: "a", Value: "3.0"}},
	})
	if got, want := drainRuns(t, memRuns(segs)), stableMergeOracle(segs); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	if got := drainRuns(t, nil); len(got) != 0 {
		t.Errorf("empty merge = %v", got)
	}
	// The in-memory sink hands back a fresh, exactly sized copy even of a
	// single run: the caller owns it.
	one := kvSegs([][]KV{{{Key: "z", Value: "v"}}})
	single, err := mergeToSegment(memRuns(one))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.KVs(), one[0].KVs()) || &single.data[0] == &one[0].data[0] {
		t.Errorf("single-run merge = %v (aliases its input: %v)", single.KVs(), &single.data[0] == &one[0].data[0])
	}
	if len(single.data) != cap(single.data) || len(single.meta) != cap(single.meta) {
		t.Errorf("merged segment not exactly sized: data %d/%d, meta %d/%d",
			len(single.data), cap(single.data), len(single.meta), cap(single.meta))
	}
}

func TestMergeSegsProperty(t *testing.T) {
	f := func(seed int64, nsegs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		runs := make([][]KV, int(nsegs%6)+1)
		for i := range runs {
			for j, m := 0, rng.Intn(20); j < m; j++ {
				runs[i] = append(runs[i], KV{Key: fmt.Sprintf("%04d", rng.Intn(100)), Value: fmt.Sprintf("%d.%d", i, j)})
			}
			sortKVs(runs[i])
		}
		segs := kvSegs(runs)
		got, want := drainRuns(t, memRuns(segs)), stableMergeOracle(segs)
		return len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mergeAlphabet is FuzzMergeStream's key alphabet: four symbols, with the
// extremes 0x00 and 0xff, so short inputs already produce equal keys, keys
// that tie on their zero-padded 8-byte prefix ("a", "a\x00", "a\x00\x00")
// and keys that share eight bytes and differ after them.
const mergeAlphabet = "\x00\x01a\xff"

// mergeFuzzRec is one record of a FuzzMergeStream input: the run it joins
// and its key, over mergeAlphabet.
type mergeFuzzRec struct {
	run int
	key string
}

// mergeFuzzInput encodes records in FuzzMergeStream's input format: a
// header byte (run count − 1 in the low three bits, modulo 6; which runs sit
// on disk in the mixed layout in the high five), then per record a byte
// holding its run (high nibble) and key length (low nibble), then one byte
// per key symbol.
func mergeFuzzInput(runs int, diskMask byte, recs ...mergeFuzzRec) []byte {
	in := []byte{byte(runs-1) | diskMask<<3}
	for _, r := range recs {
		in = append(in, byte(r.run<<4|len(r.key)))
		for i := 0; i < len(r.key); i++ {
			in = append(in, byte(strings.IndexByte(mergeAlphabet, r.key[i])))
		}
	}
	return in
}

// FuzzMergeStream decodes the input into 1–6 sorted runs of short keys (see
// mergeFuzzInput; each run is stable-sorted, its values naming run and emit
// index) and holds the one merge to stableMergeOracle with the runs
// resident, as partitions of one segment file, and split between the two —
// every tie the cached prefixes leave to bytes.Compare and the slot order
// included.
func FuzzMergeStream(f *testing.F) {
	f.Add([]byte{})
	f.Add(mergeFuzzInput(3, 0b101,
		mergeFuzzRec{0, "a\x00"}, mergeFuzzRec{1, "a"}, mergeFuzzRec{2, "a\x00\x00"}, mergeFuzzRec{1, "a\x00"},
		mergeFuzzRec{0, "a"}, mergeFuzzRec{2, "a"}, mergeFuzzRec{0, "a\x00\x00"}))
	f.Add(mergeFuzzInput(3, 0b010,
		mergeFuzzRec{0, "\x00"}, mergeFuzzRec{0, "a"}, mergeFuzzRec{0, "\xff"}, mergeFuzzRec{1, "\x01"},
		mergeFuzzRec{1, "\xff\x00"}, mergeFuzzRec{2, "\x00\x01"}, mergeFuzzRec{2, "aa"}))
	f.Add(mergeFuzzInput(4, 0b0110,
		mergeFuzzRec{0, ""}, mergeFuzzRec{1, ""}, mergeFuzzRec{2, "\x00"}, mergeFuzzRec{3, ""}, mergeFuzzRec{3, "\xff"}))
	f.Add(mergeFuzzInput(6, 0b11001,
		mergeFuzzRec{0, "aaaaaaaaa\xff"}, mergeFuzzRec{1, "aaaaaaaaa\x00"}, mergeFuzzRec{2, "aaaaaaaa"},
		mergeFuzzRec{3, "aaaaaaaaa"}, mergeFuzzRec{4, "aaaaaaaaa\x01"}, mergeFuzzRec{5, "aaaaaaaa\x00"},
		mergeFuzzRec{5, "aaaaaaaaa\x00"}, mergeFuzzRec{2, "\xff\xff\xff\xff\xff\xff\xff\xff\xff"}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		kvs := make([][]KV, int(in[0]&7)%6+1)
		diskMask := in[0] >> 3
		for in = in[1:]; len(in) > 0; {
			run, klen := int(in[0]>>4)%len(kvs), min(int(in[0]&0x0f), len(in)-1)
			key := make([]byte, klen)
			for i := range key {
				key[i] = mergeAlphabet[in[1+i]&3]
			}
			in = in[1+klen:]
			kvs[run] = append(kvs[run], KV{Key: string(key), Value: fmt.Sprintf("%d.%d", run, len(kvs[run]))})
		}
		for _, r := range kvs {
			sortKVs(r)
		}
		segs := kvSegs(kvs)
		want := stableMergeOracle(segs)
		sf, err := WriteSegmentsFile(filepath.Join(t.TempDir(), "runs.seg"), segs)
		if err != nil {
			t.Fatal(err)
		}
		mixed := memRuns(segs)
		for r := range mixed {
			if diskMask>>r&1 != 0 {
				mixed[r] = diskRun(sf, r)
			}
		}
		for name, runs := range map[string][]partRun{"resident": memRuns(segs), "file": fileRuns(sf), "mixed": mixed} {
			if got := drainRuns(t, runs); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s runs merge to %q, oracle %q", name, got, want)
			}
		}
	})
}

// aliasingRun builds a sorted run of n records whose key+value payload is
// exactly recBytes each. Keys repeat within the run (two records per key)
// and across runs (every run draws from the same key range); each value
// carries its run and index and a fill byte derived from them, so a slice
// left pointing at recycled frame memory reads back as a different record.
func aliasingRun(run, n, recBytes int) Segment {
	kvs := make([]KV, n)
	for i := range kvs {
		key := fmt.Sprintf("k%07d", i/2)
		val := fmt.Appendf(nil, "r%d.%d:", run, i)
		fill := bytes.Repeat([]byte{byte('a' + (run*7+i)%26)}, recBytes-len(key)-len(val))
		kvs[i] = KV{Key: key, Value: string(append(val, fill...))}
	}
	return SegmentFromKVs(kvs)
}

// TestMergeStreamAliasing pins the contract the merge's lazy advance rests
// on: the key/value slices next returns alias the winner's resident frame —
// no scratch copy — and stay intact until the following next call, for
// resident runs, single-frame file runs and multi-frame file runs (whose
// cursor reads the next frame over the one it just served), with duplicate
// keys across runs and records that end exactly on frame boundaries. Every
// record is compared only after being held — and the scheduler yielded —
// right up to the next call, and the sequence must equal the oracle's.
func TestMergeStreamAliasing(t *testing.T) {
	const aligned = spillFrameRaw / 16 // 16 records fill a frame to the byte
	segs := []Segment{
		aliasingRun(0, 40, 100),        // resident
		aliasingRun(1, 12, 4096),       // one frame on disk
		aliasingRun(2, 80, aligned),    // five frames, records end on every frame boundary
		aliasingRun(3, 9, 300),         // resident
		aliasingRun(4, 30, 150_000),    // five frames, unaligned
		aliasingRun(5, 16, aligned),    // exactly one full frame
		aliasingRun(6, 33, aligned+24), // frames of 16 records, ragged tail
	}
	onDisk := map[int]int{1: 1, 2: 5, 4: 5, 5: 1, 6: 3} // run -> frames
	sf, err := WriteSegmentsFile(filepath.Join(t.TempDir(), "runs.seg"), segs)
	if err != nil {
		t.Fatal(err)
	}
	runs := memRuns(segs)
	for r, frames := range onDisk {
		if got := sf.Frames(r); got != frames {
			t.Fatalf("run %d spans %d frames, want %d — test shape is off", r, got, frames)
		}
		runs[r] = diskRun(sf, r)
	}
	want := stableMergeOracle(segs)

	ms, err := openMergeStream(runs)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.close()
	n := 0
	for {
		k, v, err := ms.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Key and value are one frame's adjacent bytes, not two scratch copies.
		if unsafe.Add(unsafe.Pointer(unsafe.SliceData(k)), len(k)) != unsafe.Pointer(unsafe.SliceData(v)) {
			t.Fatalf("record %d: value does not follow its key in memory — copied out of its frame", n)
		}
		// Let anything else that might touch the frame run while it is held.
		runtime.Gosched()
		if n >= len(want) {
			t.Fatalf("merge yields more than the oracle's %d records", len(want))
		}
		if string(k) != want[n].Key || string(v) != want[n].Value {
			t.Fatalf("record %d after being held: (%q, %.16q…), want (%q, %.16q…)", n, k, v, want[n].Key, want[n].Value)
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("merge yields %d records, oracle %d", n, len(want))
	}
	var stored int64
	for r := range onDisk {
		for _, fi := range sf.parts[r].frames {
			stored += int64(fi.storedLen)
		}
	}
	if got := ms.diskBytesRead(); got != stored {
		t.Errorf("diskBytesRead = %d, want the %d stored bytes of the file runs", got, stored)
	}
}

// TestRecycledFrameLifetime pins the lifetime rule frame recycling rests on:
// a cursor's scratch goes back to the pool only at close, never while a
// consumer can still alias it. Mergers run k-way merges over multi-frame disk
// runs, comparing every (k, v) against the oracle only after holding it — the
// scheduler yielded — until just before the following next, while churners
// open cursors on the same files, read one frame and close early, so the pool
// is forever handing just-released scratch to someone who overwrites it. A
// buffer returned early reads back as another frame's records here, and as a
// data race under -race.
func TestRecycledFrameLifetime(t *testing.T) {
	const mergers, churners, fanIn = 2, 2, 3
	segs := make([]Segment, fanIn)
	for r := range segs {
		segs[r] = aliasingRun(r, 26, 100_000) // three frames each
	}
	sf, err := WriteSegmentsFile(filepath.Join(t.TempDir(), "runs.seg"), segs)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Frames(0) < 3 {
		t.Fatalf("runs span %d frames, want multi-frame — test shape is off", sf.Frames(0))
	}
	runs := fileRuns(sf)
	want := stableMergeOracle(segs)

	var merging, churning sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < churners; g++ {
		churning.Add(1)
		go func(g int) {
			defer churning.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fr, err := sf.openPart((g + i) % fanIn)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := fr.next(); err != nil {
					t.Error(err)
				}
				fr.close()
			}
		}(g)
	}
	for g := 0; g < mergers; g++ {
		merging.Add(1)
		go func() {
			defer merging.Done()
			for pass := 0; pass < 2; pass++ {
				n := 0
				_, err := mergeRunsTo(runs, func(k, v []byte) error {
					runtime.Gosched() // hold the record while the churners run
					if n >= len(want) || string(k) != want[n].Key || string(v) != want[n].Value {
						return fmt.Errorf("record %d after being held: (%q, %.16q…) is not the oracle's", n, k, v)
					}
					n++
					return nil
				})
				if err != nil || n != len(want) {
					t.Errorf("merge pass %d: %d of %d records, err %v", pass, n, len(want), err)
					return
				}
			}
		}()
	}
	merging.Wait()
	close(stop)
	churning.Wait()
}

// BenchmarkShuffleMerge measures the engine's k-way merge — the loser tree
// over pre-sorted resident runs, into the in-memory sink — at the fan-ins the
// shuffle produces, on word-count-shaped keys that repeat within and across
// runs, and on the TeraGen shape: all-distinct 10-byte A–Z keys with a
// 90-byte value, at fan-in 16. Compare runs with benchstat over
// `go test -bench ShuffleMerge -count N`.
func BenchmarkShuffleMerge(b *testing.B) {
	const perSegment = 2048
	repeating := func(rng *rand.Rand) KV {
		return KV{Key: fmt.Sprintf("key-%06d", rng.Intn(perSegment*4)), Value: "1"}
	}
	teraValue := string(bytes.Repeat([]byte("X"), 90))
	tera := func(rng *rand.Rand) KV {
		k := make([]byte, 10)
		for i := range k {
			k[i] = byte('A' + rng.Intn(26))
		}
		return KV{Key: string(k), Value: teraValue}
	}
	for _, shape := range []struct {
		name string
		k    int
		rec  func(*rand.Rand) KV
	}{
		{"segments-4", 4, repeating},
		{"segments-16", 16, repeating},
		{"segments-64", 64, repeating},
		{"distinct-10B/segments-16", 16, tera},
	} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			segs := make([]Segment, shape.k)
			var payload int64
			for s := range segs {
				recs := make([]KV, perSegment)
				for i := range recs {
					recs[i] = shape.rec(rng)
					payload += int64(len(recs[i].Key) + len(recs[i].Value))
				}
				sortKVs(recs)
				segs[s] = SegmentFromKVs(recs)
			}
			runs := memRuns(segs)
			n := shape.k * perSegment
			b.SetBytes(payload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := mergeToSegment(runs)
				if err != nil || got.Len() != n {
					b.Fatalf("merged %d records (err %v), want %d", got.Len(), err, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
		})
	}
}

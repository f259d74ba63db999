package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refStableSort is the oracle sortMeta must equal: the reflection-based
// stable sort the engine used to call, comparing key bytes in the arena.
func refStableSort(data []byte, meta []recMeta) {
	sort.SliceStable(meta, func(i, j int) bool {
		a, b := meta[i], meta[j]
		return bytes.Compare(data[a.off:a.off+a.keyLen], data[b.off:b.off+b.keyLen]) < 0
	})
}

// checkSortMeta sorts one buffer both ways and compares the metadata
// entry by entry. Every record has its own offset, so equal slices mean
// the same records in the same order, ties included.
func checkSortMeta(t testing.TB, name string, a *arena, sc *sortScratch) {
	t.Helper()
	want := slices.Clone(a.meta)
	refStableSort(a.data, want)
	got := slices.Clone(a.meta)
	sortMeta(a.data, got, sc)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: %d records: position %d holds the record at offset %d (key %q), the stable sort puts offset %d (key %q) there",
				name, len(got), i, got[i].off, Segment{data: a.data, meta: got}.key(i), want[i].off, Segment{data: a.data, meta: want}.key(i))
		}
	}
}

// arenaOf builds a sort buffer from keys in emit order. The value is the
// emit index, which keeps record lengths uneven.
func arenaOf(keys []string) *arena {
	a := new(arena)
	for i, k := range keys {
		a.append(k, fmt.Sprint(i))
	}
	return a
}

// teraKeys returns n distinct 10-byte keys in random order.
func teraKeys(rng *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	keys := make([]string, 0, n)
	for len(keys) < n {
		b := make([]byte, 10)
		rng.Read(b)
		if k := string(b); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// zipfKeys returns n words drawn from a Zipf distribution: a few very
// frequent keys and a long tail, the shape of word-count map output.
func zipfKeys(rng *rand.Rand, n int) []string {
	z := rand.NewZipf(rng, 1.1, 1, 1<<16)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%d", z.Uint64())
	}
	return keys
}

// keysOver returns n keys (repeats allowed): prefix, then between minLen and
// maxLen further bytes drawn from alphabet.
func keysOver(rng *rand.Rand, n int, prefix, alphabet string, minLen, maxLen int) []string {
	keys := make([]string, n)
	for i := range keys {
		b := []byte(prefix)
		for j, l := 0, minLen+rng.Intn(maxLen-minLen+1); j < l; j++ {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		keys[i] = string(b)
	}
	return keys
}

// bucketKeys returns, for each size, that many distinct keys under a top
// byte of their own ('A', 'B', …), each emitted twice, shuffled — one
// top-level radix bucket of exactly that many groups per size.
func bucketKeys(rng *rand.Rand, sizes ...int) []string {
	var keys []string
	for b, size := range sizes {
		for i := 0; i < size; i++ {
			k := fmt.Sprintf("%c%02x%s", 'A'+b, i, teraKeys(rng, 1)[0][:3])
			keys = append(keys, k, k)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func TestSortMetaMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	long := strings.Repeat("k", 8<<10)
	shapes := []struct {
		name string
		keys []string
	}{
		{"n=0", nil},
		{"n=1", []string{"x"}},
		{"n=2 ordered", []string{"a", "b"}},
		{"n=2 reversed", []string{"b", "a"}},
		{"n=2 equal", []string{"a", "a"}},
		{"n=3", []string{"c", "a", "b"}},
		{"n=3 one duplicate", []string{"b", "a", "b"}},
		{"empty keys", []string{"", "b", "", "a", "", "\x00", ""}},
		{"600 duplicates", strings.Fields(strings.Repeat("same ", 600))},
		{"600 duplicates among others", append(strings.Fields(strings.Repeat("m ", 600)), "z", "a", "m", "mm", "l")},
		{"equal through byte 8", []string{"12345678b", "12345678a", "12345678", "12345678c", "12345678a", "1234567", "12345678\x00"}},
		{"zero-padded prefix ties", []string{"a\x00\x00", "a", "a\x00", "", "a\x00", "\x00", "a", "a\x00\x00\x00\x00\x00\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00\x00"}},
		{"8 KB keys", []string{long + "b", long, long + "a", long + "b", "k", long[:8]}},
		{"invalid UTF-8", []string{"\xff\xfe", "\xff", "\xc3\x28", "\xff\xfe", "\x80", "é", "\xff"}},
		{"high bytes order unsigned", []string{"\x80aaaaaaa", "\x7faaaaaaa", "\xffaaaaaaa", "\x00aaaaaaa"}},
		{"distinct tera keys", teraKeys(rng, 3000)},
		{"zipf words", zipfKeys(rng, 8000)},
		// The radix levels: a level every group shares is skipped, a bucket
		// of at most radixCutoff groups is insertion-sorted, and one still
		// larger after all eight prefix bytes is compared whole.
		{"one top byte", append(keysOver(rng, 2000, "Q", "ABCDEFGHIJKLMNOPQRSTUVWXYZ", 9, 9), "Q", "Q\x00", "Q\x00\x00", "Q")},
		{"one top byte but one group", append(keysOver(rng, 500, "Q", "ABCDEFGHIJKLMNOPQRSTUVWXYZ", 9, 9), "Z")},
		{"equal in the first 8 bytes", append(keysOver(rng, 600, "ABCDEFGH", "\x00ab", 0, 4), "ABCDEFG", "ABCDEFGH\x00\x00", "ABCDEFGI")},
		{"two symbols, every level", keysOver(rng, 20000, "", "\x00\xff", 9, 14)},
		{"one bucket of radixCutoff groups", bucketKeys(rng, radixCutoff)},
		{"one bucket of radixCutoff+1 groups", bucketKeys(rng, radixCutoff+1)},
		{"buckets around the cutoff", bucketKeys(rng, radixCutoff-1, radixCutoff, radixCutoff+1, radixCutoff+2, 1, 0, 200)},
	}
	// One scratch for the whole table, then for buffers of shrinking and
	// growing size: whatever a call leaves behind must not reach the next.
	sc := new(sortScratch)
	for _, s := range shapes {
		checkSortMeta(t, s.name, arenaOf(s.keys), sc)
	}
	for _, n := range []int{3000, 10, 0, 3, 12000, 1, 2000, 2, 600} {
		checkSortMeta(t, fmt.Sprintf("reused scratch, zipf n=%d", n), arenaOf(zipfKeys(rng, n)), sc)
		checkSortMeta(t, fmt.Sprintf("reused scratch, tera n=%d", n), arenaOf(teraKeys(rng, n)), sc)
	}
}

// TestKeyPrefix checks the prefix against its definition on both routes —
// the one-load route needs 8 bytes of capacity behind the key, the byte
// loop does not — and that bytes after the key never leak into it.
func TestKeyPrefix(t *testing.T) {
	buf := []byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\xff\xff\xff\xff\xff\xff\xff\xff")
	for n := 0; n <= 9; n++ {
		var want uint64
		for i := 0; i < 8; i++ {
			want <<= 8
			if i < n {
				want |= uint64(buf[i])
			}
		}
		if got := keyPrefix(buf[:n]); got != want {
			t.Errorf("keyPrefix of %d bytes with room behind them = %#x, want %#x", n, got, want)
		}
		if got := keyPrefix(buf[:n:n]); got != want {
			t.Errorf("keyPrefix of %d bytes at the end of their buffer = %#x, want %#x", n, got, want)
		}
	}
}

// FuzzSortMeta turns the input into records — one length byte, then up to
// 10 key bytes and up to 3 value bytes, so short inputs already collide on
// keys and prefixes — and holds sortMeta to the stable-sort oracle.
func FuzzSortMeta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 'a', 1, 'a', 2, 'a', 0, 3, 'a', 0, 0})
	f.Add([]byte("\x0a0123456789\x0a0123456780\x090123456789\x4aabcdefghijvvv\x00\x00"))
	f.Add(bytes.Repeat([]byte{2, 0xff, 0xfe}, 40))
	sc := new(sortScratch)
	f.Fuzz(func(t *testing.T, in []byte) {
		var a arena
		for len(in) > 0 {
			l := in[0]
			in = in[1:]
			klen := min(int(l&0x0f)%11, len(in))
			a.appendBytes(in[:klen], []byte("vvv")[:l>>6])
			in = in[klen:]
		}
		checkSortMeta(t, "fuzz", &a, sc)
	})
}

// BenchmarkSpillSort is the map-side sort on its own, on the two shapes
// the benchmark workloads give it: duplicate-heavy Zipf words (word
// count) and all-distinct 10-byte keys (terasort). The stable-sort rows
// run the oracle over the same buffers, for the ratio.
func BenchmarkSpillSort(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(42))
	for _, shape := range []struct {
		name string
		keys []string
	}{
		{"zipf-words", zipfKeys(rng, n)},
		{"distinct-10B", teraKeys(rng, n)},
	} {
		a := arenaOf(shape.keys)
		sc := new(sortScratch)
		for _, impl := range []struct {
			name string
			sort func(meta []recMeta)
		}{
			{"sortMeta", func(meta []recMeta) { sortMeta(a.data, meta, sc) }},
			{"stable-sort-oracle", func(meta []recMeta) { refStableSort(a.data, meta) }},
		} {
			b.Run(shape.name+"/"+impl.name, func(b *testing.B) {
				meta := make([]recMeta, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(meta, a.meta)
					b.StartTimer()
					impl.sort(meta)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
			})
		}
	}
}

package mapreduce

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"slices"
)

// sortbuf.go is the map-side sort: the one routine that orders a sort
// buffer's records by key, stably, for spill and for a combiner that
// rewrote its keys. It never compares two records. It groups the records
// by key, sorts the distinct keys, and writes the groups out:
//
//  1. One pass over meta in emit order looks each record's key bytes up in
//     an open-addressing hash table. A new key opens a group; every record
//     notes its group and is counted there.
//  2. The groups — distinct keys, so there are no ties to break — are
//     sorted by an in-place MSD radix sort on their cached 8-byte
//     big-endian key prefix, a byte per level from the top, skipping a
//     level where they all share the byte. A bucket of at most radixCutoff
//     groups is insertion-sorted, and one still larger once all eight bytes
//     are used goes to pdqsort; either reaches the arena only between
//     groups whose prefixes are equal.
//  3. The sorted groups' counts, summed, give each group its range of the
//     output, and a second pass over meta in emit order drops each record
//     at the next free place of its group's range (a counting sort on the
//     group's rank).
//
// Records with different keys end up in key order by (2), records with the
// same key in emit order by (3): exactly the order a stable sort by key
// produces, for any hash function. The hash only decides which slot a key
// probes first, never where a record lands, so the per-process random
// maphash seed cannot show in the output. The cost is O(n) hashing plus,
// for d distinct keys, a counting pass and a permutation pass over the
// groups per radix level (about log₂₅₆ d levels before buckets are small)
// and short insertion sorts, where a comparison sort over records pays
// O(n log n) arena dereferences — on word-count-shaped output (d ≪ n) that
// is the whole difference between the engine and a Go map; on all-distinct
// keys, where d = n, the radix passes are what keeps the sort linear and
// out of the arena.

// keyGroup is one distinct key of the buffer being sorted.
type keyGroup struct {
	prefix uint64 // first 8 key bytes, big-endian, zero-padded
	head   int32  // the first record emitted under the key: locates its bytes
	count  int32  // records emitted under the key
}

// sortScratch is sortMeta's working memory, owned by a task slot and
// reused across spills and tasks.
type sortScratch struct {
	table  []int32    // open addressing: group number + 1, 0 = empty slot
	size   int        // the table size the last sort ended at
	gid    []int32    // per record: its group's number (first-emit order)
	groups []keyGroup // indexed by group number until sorted
	out    []recMeta  // scatter target
}

// emptyTable returns the table with size slots, all empty.
func (sc *sortScratch) emptyTable(size int) []int32 {
	if cap(sc.table) < size {
		sc.table = make([]int32, size)
	}
	table := sc.table[:size]
	clear(table)
	return table
}

// sortSeed keys the grouping hash. Random per process: safe because the
// output order does not depend on hash values (see above).
var sortSeed = maphash.MakeSeed()

// keyPrefix returns the first 8 bytes of k as a big-endian integer, short
// keys zero-padded, so that prefix order agrees with bytes.Compare order
// wherever two prefixes differ. Equal prefixes decide nothing: "a" and
// "a\x00" share one.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	if cap(k) >= 8 {
		// One load instead of a byte loop: k[:8] runs on into whatever
		// follows the key in its buffer, and the mask zeroes those bytes.
		return binary.BigEndian.Uint64(k[:8]) &^ (1<<(64-8*uint(len(k))) - 1)
	}
	var p uint64
	for i, b := range k {
		p |= uint64(b) << (56 - 8*uint(i))
	}
	return p
}

// sortMeta reorders meta — records located in data — by key bytes, keeping
// records with equal keys in their current relative order.
func sortMeta(data []byte, meta []recMeta, sc *sortScratch) {
	n := len(meta)
	if n < 2 {
		return
	}
	key := func(i int32) []byte {
		m := meta[i]
		return data[m.off : m.off+m.keyLen]
	}
	// sameKey reports whether record m's key equals k, given that their
	// prefixes do: up to 8 bytes that leaves only the length to check.
	sameKey := func(m recMeta, k []byte) bool {
		return int(m.keyLen) == len(k) && (len(k) <= 8 || bytes.Equal(data[m.off:m.off+m.keyLen], k))
	}

	// Group. The table doubles at half load, so it and the group array
	// follow the number of distinct keys, not of records. It starts at the
	// size the last sort ended at, since a task's buffers tend to hold alike
	// numbers of distinct keys: at least 1 024 slots, and no more than n keys
	// can fill. gid and out are sized by meta's capacity, so across a slot's
	// tasks they are reallocated only as often as the sort buffer itself.
	if cap(sc.gid) < n {
		sc.gid = make([]int32, cap(meta))
		sc.out = make([]recMeta, cap(meta))
	}
	gid, groups := sc.gid[:n], sc.groups[:0]
	size := max(1<<10, min(sc.size, 1<<bits.Len(uint(2*n-1))))
	table := sc.emptyTable(size)
	for i := int32(0); i < int32(n); i++ {
		k := key(i)
		pfx := keyPrefix(k)
		slot := maphash.Bytes(sortSeed, k) & uint64(size-1)
		for {
			g := table[slot]
			if g == 0 {
				groups = append(groups, keyGroup{prefix: pfx, head: i})
				g = int32(len(groups))
				table[slot] = g
			} else if grp := &groups[g-1]; grp.prefix != pfx || !sameKey(meta[grp.head], k) {
				slot = (slot + 1) & uint64(size-1)
				continue
			}
			gid[i] = g - 1
			groups[g-1].count++
			break
		}
		if 2*len(groups) > size {
			size *= 2
			table = sc.emptyTable(size)
			for g := range groups {
				slot := maphash.Bytes(sortSeed, key(groups[g].head)) & uint64(size-1)
				for table[slot] != 0 {
					slot = (slot + 1) & uint64(size-1)
				}
				table[slot] = int32(g + 1)
			}
		}
	}
	sc.groups, sc.size = groups, size

	// Sort the distinct keys.
	radixSortGroups(groups, 56, func(a, b keyGroup) int {
		return bytes.Compare(key(a.head), key(b.head))
	})

	// Scatter. pos[g] is where the next record of group number g goes; a
	// sorted group's number is its first record's gid. The table is done
	// with and at least twice as long as groups, so pos borrows it.
	pos := table[:len(groups)]
	at := int32(0)
	for _, g := range groups {
		pos[gid[g.head]] = at
		at += g.count
	}
	out := sc.out[:n]
	for i, m := range meta {
		g := gid[i]
		out[pos[g]] = m
		pos[g]++
	}
	copy(meta, out)
}

// radixCutoff is the bucket size at and below which radixSortGroups hands a
// bucket to insertion sort instead of splitting it on the next byte.
const radixCutoff = 24

// radixSortGroups orders distinct-key groups by key: an in-place MSD radix
// sort on the cached prefix, on byte prefix>>shift at this level and the
// bytes below it after. A level where every group lands in one bucket is
// skipped. compare orders two groups by their whole keys and is called only
// for groups whose prefixes are equal: inside the insertion sort of a bucket
// of at most radixCutoff groups, and by the pdqsort of a bucket still larger
// once all eight prefix bytes are spent, where every prefix is equal.
func radixSortGroups(gs []keyGroup, shift int, compare func(a, b keyGroup) int) {
	for len(gs) > radixCutoff && shift >= 0 {
		sh := uint(shift)
		var next, end [256]int
		for _, g := range gs {
			end[byte(g.prefix>>sh)]++
		}
		if end[byte(gs[0].prefix>>sh)] == len(gs) {
			shift -= 8
			continue
		}
		at := 0
		for d, c := range end {
			next[d] = at
			at += c
			end[d] = at
		}
		// American flag permutation: carry each misplaced group to the next
		// free place of its bucket until the one that belongs here turns up.
		for d := range next {
			for next[d] < end[d] {
				g := gs[next[d]]
				for e := byte(g.prefix >> sh); int(e) != d; e = byte(g.prefix >> sh) {
					gs[next[e]], g = g, gs[next[e]]
					next[e]++
				}
				gs[next[d]] = g
				next[d]++
			}
		}
		lo := 0
		for _, hi := range end {
			if hi-lo > 1 {
				radixSortGroups(gs[lo:hi], shift-8, compare)
			}
			lo = hi
		}
		return
	}
	if len(gs) > radixCutoff {
		slices.SortFunc(gs, compare)
		return
	}
	for i := 1; i < len(gs); i++ {
		g, j := gs[i], i
		for ; j > 0; j-- {
			p := gs[j-1]
			if g.prefix > p.prefix || g.prefix == p.prefix && compare(g, p) > 0 {
				break
			}
			gs[j] = p
		}
		gs[j] = g
	}
}

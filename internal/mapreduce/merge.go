package mapreduce

import (
	"bytes"
	"sync"
)

// merge.go implements the engine's k-way merge as an index-based loser
// tree over flat segments. The previous implementation used
// container/heap, which boxes every cursor through interface{} on each
// Push/Pop; the loser tree keeps all state in flat int32 slices, performs
// one comparison chain per emitted record, and is reused across merges
// through a sync.Pool. Comparisons read key bytes in place (bytes.Compare
// is Go's string ordering), and ties on key are broken by segment slot, so
// merging segments in map-task order reproduces Hadoop's stable shuffle
// order exactly.

// loserTree is a tournament tree over k sorted segments. node[0] holds the
// current overall winner; node[1..k-1] hold the losers of the internal
// matches. Leaf s conceptually sits at position s+k, so its first match is
// node[(s+k)/2]. Exhausted cursors compare as +infinity.
type loserTree struct {
	k    int
	node []int32 // match losers; node[0] is the winner
	pos  []int32 // per-segment cursor
	segs []Segment
}

var treePool = sync.Pool{New: func() interface{} { return new(loserTree) }}

// newLoserTree builds (or recycles) a tree over the segments. Callers must
// pass k >= 2 and return the tree with putLoserTree.
func newLoserTree(segs []Segment) *loserTree {
	t := treePool.Get().(*loserTree)
	k := len(segs)
	t.k = k
	t.segs = segs
	if cap(t.node) < k {
		t.node = make([]int32, k)
		t.pos = make([]int32, k)
	} else {
		t.node = t.node[:k]
		t.pos = t.pos[:k]
	}
	for i := range t.node {
		t.node[i] = -1
		t.pos[i] = 0
	}
	for s := k - 1; s >= 0; s-- {
		t.seed(int32(s))
	}
	return t
}

// putLoserTree releases the tree's scratch for reuse.
func putLoserTree(t *loserTree) {
	t.segs = nil
	treePool.Put(t)
}

// less reports whether cursor a precedes cursor b: alive before exhausted,
// then by key bytes, then by segment slot (stability across segments).
func (t *loserTree) less(a, b int32) bool {
	sa, sb := &t.segs[a], &t.segs[b]
	pa, pb := t.pos[a], t.pos[b]
	if int(pa) >= sa.Len() {
		return false
	}
	if int(pb) >= sb.Len() {
		return true
	}
	if c := bytes.Compare(sa.key(int(pa)), sb.key(int(pb))); c != 0 {
		return c < 0
	}
	return a < b
}

// seed plays leaf s into the partially built tree: it parks at the first
// empty match slot on the way up, leaving losers behind; exactly one seed
// reaches the root and becomes the initial winner.
func (t *loserTree) seed(s int32) {
	w := s
	for j := (int(s) + t.k) / 2; j > 0; j /= 2 {
		if t.node[j] == -1 {
			t.node[j] = w
			return
		}
		if t.less(t.node[j], w) {
			t.node[j], w = w, t.node[j]
		}
	}
	t.node[0] = w
}

// next returns the winning cursor's segment and record index and advances
// it, replaying the winner's matches up the tree. Callers must not invoke
// next more than the total record count.
func (t *loserTree) next() (seg *Segment, idx int) {
	w := t.node[0]
	seg, idx = &t.segs[w], int(t.pos[w])
	t.pos[w]++
	for j := (int(w) + t.k) / 2; j > 0; j /= 2 {
		if t.less(t.node[j], w) {
			t.node[j], w = w, t.node[j]
		}
	}
	t.node[0] = w
	return seg, idx
}

// mergeSegs merges already-sorted segments into one flat segment, stable
// across segments in slot order. The output is freshly allocated at exact
// size (Hadoop's merge re-writes spill data the same way; the copy is what
// MergeBytes accounts).
func mergeSegs(segments []Segment) Segment {
	switch len(segments) {
	case 0:
		return Segment{}
	case 1:
		src := segments[0]
		out := Segment{
			data: append(make([]byte, 0, len(src.data)), src.data...),
			meta: append(make([]recMeta, 0, len(src.meta)), src.meta...),
		}
		return out
	}
	total, size := 0, 0
	for _, seg := range segments {
		total += seg.Len()
		size += len(seg.data)
	}
	var out arena
	out.grow(size, total)
	t := newLoserTree(segments)
	for i := 0; i < total; i++ {
		seg, idx := t.next()
		out.appendBytes(seg.key(idx), seg.val(idx))
	}
	putLoserTree(t)
	return out.seg()
}

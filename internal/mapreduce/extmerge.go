package mapreduce

import (
	"bytes"
	"fmt"
	"io"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
)

// extmerge.go is the engine's one k-way merge: a streaming stable merge
// over sorted runs that live either in memory (arena Segments) or on disk
// (segment-file partitions, read one frame at a time, never materialized).
// One loser tree orders the runs' cursors — alive before exhausted, then key
// bytes (Go's string ordering: each cursor's cached 8-byte key prefix first,
// bytes.Compare only on a prefix tie), then slot — so merging runs
// in map-task order reproduces Hadoop's stable shuffle order exactly, and the
// output is the same bytes wherever a run sits: stable merging is associative
// over adjacent runs, frames are contiguous chunks of a sorted run, and slot
// order preserves the original record order among equal keys. All tree state
// is flat int32 indices over a value slice of cursors; there is no pool,
// because a merge's allocations are its cursors, sized by its fan-in.

// partRun is one sorted run of one partition: an in-memory segment when
// file is nil, otherwise partition part of an on-disk segment file. Where
// the bytes live is this type's business: consumers open a frameSource and
// see the same record stream either way.
type partRun struct {
	seg  Segment
	file *SegmentFile
	part int
}

// memRun wraps an in-memory segment.
func memRun(seg Segment) partRun { return partRun{seg: seg} }

// memRuns wraps resident segments as runs, in slot order.
func memRuns(segs []Segment) []partRun {
	runs := make([]partRun, len(segs))
	for i, s := range segs {
		runs[i] = memRun(s)
	}
	return runs
}

// diskRun wraps one partition of a segment file.
func diskRun(f *SegmentFile, part int) partRun { return partRun{file: f, part: part} }

// isDisk reports whether the run lives on disk — for the policies that
// budget resident bytes or bound open files, never for reading records.
func (r partRun) isDisk() bool { return r.file != nil }

// recs returns the run's record count without touching record data.
func (r partRun) recs() int64 {
	if r.file != nil {
		return r.file.Records(r.part)
	}
	return int64(r.seg.Len())
}

// accountBytes returns the run's accounting size — identical to
// Segment.Bytes of the run materialized in memory — in O(1).
func (r partRun) accountBytes() units.Bytes {
	if r.file != nil {
		return r.file.PartitionBytes(r.part)
	}
	return r.seg.Bytes()
}

// open returns the run's frames in order: a resident run is one frame, its
// segment; a file run is read back frame by frame.
func (r partRun) open() (frameSource, error) {
	if r.file != nil {
		return r.file.openPart(r.part)
	}
	return &residentSource{seg: r.seg}, nil
}

// residentSource is a resident run's frameSource: its segment, once.
type residentSource struct {
	seg  Segment
	done bool
}

func (s *residentSource) next() (Segment, error) {
	if s.done {
		return Segment{}, io.EOF
	}
	s.done = true
	return s.seg, nil
}
func (s *residentSource) storedBytesRead() int64 { return 0 }
func (s *residentSource) close() error           { return nil }

// materialize returns the run as one in-memory segment. A file run is read
// into an exactly sized arena on first use and stays resident from then on.
func (r *partRun) materialize() (Segment, error) {
	if r.file != nil {
		seg, err := mergeToSegment([]partRun{*r})
		if err != nil {
			return Segment{}, err
		}
		*r = memRun(seg)
	}
	return r.seg, nil
}

// runCursor walks one run record by record, one frame resident at a time;
// key/val slices are invalidated when advance crosses a frame boundary.
// Every move caches the current record's key and its keyPrefix, so the
// merge compares two integers per match and touches key bytes only when
// the prefixes tie.
type runCursor struct {
	cur  Segment
	i    int
	k    []byte // the current record's key
	pfx  uint64 // keyPrefix(k)
	src  frameSource
	done bool
}

// load caches record i's key and prefix. The prefix reads through the
// frame (keyPrefix masks what follows a short key); the cached key is capped
// at its length, like Segment.key, so a consumer cannot append into the
// value behind it.
func (c *runCursor) load() {
	m := c.cur.meta[c.i]
	c.k = c.cur.data[m.off : m.off+m.keyLen : m.off+m.keyLen]
	c.pfx = keyPrefix(c.cur.data[m.off : m.off+m.keyLen])
}

// refill loads the next non-empty frame, marking the cursor done at EOF.
func (c *runCursor) refill() error {
	for {
		seg, err := c.src.next()
		if err == io.EOF {
			c.done = true
			c.cur, c.k = Segment{}, nil
			return nil
		}
		if err != nil {
			return err
		}
		if seg.Len() > 0 {
			c.cur, c.i = seg, 0
			c.load()
			return nil
		}
	}
}

// val returns the current record's value bytes; only valid while !done.
func (c *runCursor) val() []byte { return c.cur.val(c.i) }

// advance moves to the next record, refilling from the next frame at the
// end of the current one.
func (c *runCursor) advance() error {
	c.i++
	if c.i < c.cur.Len() {
		c.load()
		return nil
	}
	return c.refill()
}

// mergeStream is a pull iterator over the stable k-way merge of a set of
// runs: a loser tree (tournament tree) over their cursors. node[0] holds the
// current overall winner; node[1..k-1] hold the losers of the internal
// matches. Leaf s conceptually sits at position s+k, so its first match is
// node[(s+k)/2]. Exhausted cursors compare as +infinity.
//
// The key/val slices next returns alias the winner's resident frame and stay
// valid until the following next call: the winner is advanced — which may
// recycle its frame — at the start of that call, not at the end of this one,
// so no record is copied on its way through the merge.
type mergeStream struct {
	curs []runCursor
	node []int32
	held bool // the winner's current record was handed out by the last next
}

// openMergeStream builds the merge over the runs' non-empty cursors in
// slot order. Callers must close the stream.
func openMergeStream(runs []partRun) (*mergeStream, error) {
	m := &mergeStream{curs: make([]runCursor, 0, len(runs))}
	for _, r := range runs {
		if r.recs() == 0 {
			continue
		}
		src, err := r.open()
		if err == nil {
			m.curs = append(m.curs, runCursor{src: src})
			err = m.curs[len(m.curs)-1].refill()
		}
		if err != nil {
			m.close()
			return nil, err
		}
	}
	m.node = make([]int32, len(m.curs))
	for i := range m.node {
		m.node[i] = -1
	}
	for s := len(m.curs) - 1; s >= 0; s-- {
		m.seed(int32(s))
	}
	return m, nil
}

// less orders cursors: alive before exhausted, then key — the cached
// prefixes first, bytes.Compare only when they tie, since an equal prefix
// decides nothing ("a" and "a\x00" share one) — then slot (stability across
// runs).
func (m *mergeStream) less(a, b int32) bool {
	ca, cb := &m.curs[a], &m.curs[b]
	if ca.done {
		return false
	}
	if cb.done {
		return true
	}
	if ca.pfx != cb.pfx {
		return ca.pfx < cb.pfx
	}
	if c := bytes.Compare(ca.k, cb.k); c != 0 {
		return c < 0
	}
	return a < b
}

// seed plays leaf s into the partially built tree: it parks at the first
// empty match slot on the way up, leaving losers behind; exactly one seed
// reaches the root and becomes the initial winner.
func (m *mergeStream) seed(s int32) {
	w := s
	for j := (int(s) + len(m.curs)) / 2; j > 0; j /= 2 {
		if m.node[j] == -1 {
			m.node[j] = w
			return
		}
		if m.less(m.node[j], w) {
			m.node[j], w = w, m.node[j]
		}
	}
	m.node[0] = w
}

// fix replays cursor w's matches up the tree after it advanced.
func (m *mergeStream) fix(w int32) {
	for j := (int(w) + len(m.curs)) / 2; j > 0; j /= 2 {
		if m.less(m.node[j], w) {
			m.node[j], w = w, m.node[j]
		}
	}
	m.node[0] = w
}

// next returns the next merged record, or io.EOF when the merge is
// exhausted.
func (m *mergeStream) next() (k, v []byte, err error) {
	if len(m.curs) == 0 {
		return nil, nil, io.EOF
	}
	if m.held {
		w := m.node[0]
		if err := m.curs[w].advance(); err != nil {
			return nil, nil, err
		}
		m.fix(w)
	}
	c := &m.curs[m.node[0]]
	m.held = !c.done
	if c.done {
		return nil, nil, io.EOF
	}
	return c.k, c.val(), nil
}

// diskBytesRead sums the stored bytes the stream's cursors consumed from
// segment files.
func (m *mergeStream) diskBytesRead() int64 {
	var n int64
	for i := range m.curs {
		n += m.curs[i].src.storedBytesRead()
	}
	return n
}

// close releases every cursor's frame source (and its file handle).
func (m *mergeStream) close() {
	for i := range m.curs {
		m.curs[i].src.close()
	}
}

// mergeRunsTo streams the stable merge of runs into emit, record by
// record, and returns the stored disk bytes read — the one merge behind the
// map-side final merge, spill consolidation, collector pressure folds and
// SortedOutput.
func mergeRunsTo(runs []partRun, emit func(k, v []byte) error) (int64, error) {
	ms, err := openMergeStream(runs)
	if err != nil {
		return 0, err
	}
	defer ms.close()
	for {
		k, v, err := ms.next()
		if err == io.EOF {
			return ms.diskBytesRead(), nil
		}
		if err != nil {
			return ms.diskBytesRead(), err
		}
		if err := emit(k, v); err != nil {
			return ms.diskBytesRead(), err
		}
	}
}

// arenaFor returns an empty arena sized exactly for the runs' records, from
// their O(1) accounting — the in-memory sink of a merge or a reduce.
func arenaFor(runs []partRun) *arena {
	var payload, recs int64
	for _, r := range runs {
		recs += r.recs()
		payload += int64(r.accountBytes()) - recordOverhead*r.recs()
	}
	a := new(arena)
	a.grow(int(payload), int(recs))
	return a
}

// mergeToSegment is mergeRunsTo with the in-memory sink: the stable merge of
// runs as one freshly allocated, exactly sized segment (Hadoop's merge
// re-writes spill data the same way; the copy is what MergeBytes accounts).
func mergeToSegment(runs []partRun) (Segment, error) {
	out := arenaFor(runs)
	_, err := mergeRunsTo(runs, out.sink)
	return out.seg(), err
}

// mergeToSegments is mergeToFile with the in-memory sink: the stable merge of
// runs (laid out [run][partition], merged in slot order) as one resident run
// per partition.
func mergeToSegments(runs [][]partRun) ([]partRun, error) {
	out := make([]partRun, len(runs[0]))
	col := make([]partRun, len(runs))
	for p := range out {
		for i, r := range runs {
			col[i] = r[p]
		}
		seg, err := mergeToSegment(col)
		if err != nil {
			return nil, err
		}
		out[p] = memRun(seg)
	}
	return out, nil
}

// fileRuns returns one disk run per partition of sf.
func fileRuns(sf *SegmentFile) []partRun {
	runs := make([]partRun, sf.NumPartitions())
	for p := range runs {
		runs[p] = diskRun(sf, p)
	}
	return runs
}

// mergeToFile writes the stable merge of runs, partition by partition, into
// one new segment file at path — the merge's file sink, behind the map-side
// final merge, spill consolidation, collector pressure folds and reduce-side
// merge rounds. runs[i][p] is sorted run i's partition p; every run carries
// the same partition count and runs are merged in slot order. The file and
// the stored disk bytes the merge read are charged to c's spill-file
// counters; the read bytes are also returned for phase I/O attribution. On
// error the partial file is removed.
func mergeToFile(path string, runs [][]partRun, c *Counters) (*SegmentFile, int64, error) {
	w, err := newSpillWriter(path)
	if err != nil {
		return nil, 0, err
	}
	var read int64
	col := make([]partRun, len(runs))
	for p := range runs[0] {
		for i, r := range runs {
			col[i] = r[p]
		}
		w.beginPartition()
		n, err := mergeRunsTo(col, w.append)
		read += n
		if err == nil {
			err = w.endPartition()
		}
		if err != nil {
			w.abort()
			return nil, read, err
		}
	}
	sf, err := w.finish()
	if err != nil {
		w.abort()
		return nil, read, err
	}
	c.SpillFilesWritten++
	c.SpillFileBytesWritten += sf.StoredBytes()
	c.SpillFileBytesRead += units.Bytes(read)
	return sf, read, nil
}

// consolidate bounds the fan-in of a final external merge (Hadoop's
// io.sort.factor discipline): while more than factor runs are pending,
// adjacent groups of runs are merged into intermediate segment files named
// <prefix>r<round>-g<group>.seg. A round rewrites only what the fan-in
// forces (the idea of Hadoop's getPassFactor, under this engine's adjacency
// constraint): with excess = len(runs) − factor runs too many, groups are cut
// leftmost first, each of min(factor, excess+1) runs — a group of g runs
// retires g−1 of the excess — and once the excess is gone every run to the
// right passes through untouched, the same partRun over the same file. So 16
// runs against factor 10 rewrite 7 and leave 9 alone, where whole groups of
// factor would rewrite all 16 to save six open cursors; the round count is
// still mergePasses(n, factor)−1, because a round that cannot reach factor
// (n > factor²) is all full groups. Groups are contiguous in slot order and
// stable merging is associative over adjacent runs, so the final merge over
// the returned runs is byte-identical to a one-shot merge over the input.
// Runs are laid out as in mergeToFile (one partition for reduce-side runs,
// the job's partition count for map spills); a run is resident in every
// partition or one file's partitions. A trailing singleton group passes its
// run through unmerged.
//
// The input slice is never mutated.
// Consumed files are removed as each group lands: always the intermediates
// of earlier rounds, and the input's own disk runs only when ownInputs is
// set (a map task owns its spills; a reduce task's inputs belong to the
// shuffle). The intermediates still live in the returned runs come back as
// made, for the caller to remove after its final merge; on error everything
// consolidate created is removed and made is nil. Each round is emitted as
// one phase interval on pc and counted in the returned rounds.
func consolidate(runs [][]partRun, factor int, prefix string, ownInputs bool, pc phaseClock, phase obs.Phase, c *Counters) (out [][]partRun, made []*SegmentFile, rounds int, err error) {
	live := make(map[*SegmentFile]bool) // intermediates created and not yet consumed
	for ; len(runs) > factor; rounds++ {
		next := make([][]partRun, 0, len(runs))
		var roundRead, roundWritten int64
		t := pc.Start()
		excess := len(runs) - factor
		for lo, group := 0, 0; lo < len(runs); group++ {
			hi := min(lo+min(factor, excess+1), len(runs))
			if hi-lo == 1 {
				next = append(next, runs[lo:]...)
				break
			}
			excess -= hi - lo - 1
			sf, read, err := mergeToFile(fmt.Sprintf("%sr%d-g%d.seg", prefix, rounds, group), runs[lo:hi], c)
			if err != nil {
				for f := range live {
					f.Remove()
				}
				return nil, nil, rounds, err
			}
			roundRead += read
			roundWritten += int64(sf.StoredBytes())
			for _, r := range runs[lo:hi] {
				if f := r[0].file; f != nil && (ownInputs || live[f]) {
					f.Remove()
					delete(live, f)
				}
			}
			live[sf] = true
			next = append(next, fileRuns(sf))
			lo = hi
		}
		pc.EmitIO(phase, t, roundRead, roundWritten)
		runs = next
	}
	for _, r := range runs {
		if live[r[0].file] {
			made = append(made, r[0].file)
		}
	}
	return runs, made, rounds, nil
}

// reduceToSegment is the in-memory reduce task body: the one reduce loop
// with an arena as its sink. The arena is sized for the task's input, which
// is exact for a passthrough reduce — its output is its input, so that case
// costs one copy per record and nothing else; any other reducer's output is
// trimmed to its own size at the end.
func reduceToSegment(job Job, runs []partRun, pc phaseClock) (Segment, Counters, error) {
	out := arenaFor(runs)
	c, err := reduceStreamed(job, runs, out.sink, pc)
	if err != nil {
		return Segment{}, c, err
	}
	seg := out.seg()
	if len(seg.data) < cap(seg.data) || len(seg.meta) < cap(seg.meta) {
		seg = seg.clone()
	}
	return seg, c, nil
}

// reduceStreamed is the engine's one reduce loop: it applies the reducer per
// key group as records flow out of the k-way merge, never materializing the
// merged partition, and hands output records to sink — an arena in memory
// (reduceToSegment), a spill writer under SpillDir (reduceToFile). No
// per-record KV or string is allocated. The merge is folded into the reduce
// phase interval; when the runs include segment files, opening their cursors
// (each reads its first frame) is emitted as a spill-read interval ahead of
// it and every stored byte read is accounted in SpillFileBytesRead.
//
// Identity reducers that declare themselves via PassthroughReducer skip the
// group machinery: each merged record goes straight to the sink. Counters
// match the group loop exactly — groups are counted by adjacent key
// equality.
func reduceStreamed(job Job, runs []partRun, sink func(k, v []byte) error, pc phaseClock) (c Counters, err error) {
	tReduce := pc.Start()
	ms, err := openMergeStream(runs)
	if err != nil {
		return c, fmt.Errorf("mapreduce: %s: reduce: opening spill runs: %w", job.Config.Name, err)
	}
	openRead := ms.diskBytesRead()
	if openRead > 0 {
		pc.EmitIO(obs.PhaseSpillRead, tReduce, openRead, 0)
		tReduce = pc.Start()
	}
	// The reduce phase is credited with the disk bytes the merge pulled after
	// cursor opening; the counter takes them all. c is the named result, so
	// the accounting lands in what the caller receives on every return path.
	defer func() {
		read := ms.diskBytesRead()
		ms.close()
		c.SpillFileBytesRead += units.Bytes(read)
		pc.EmitIO(obs.PhaseReduce, tReduce, read-openRead, 0)
	}()

	if pr, ok := job.Reducer.(PassthroughReducer); ok && pr.Passthrough() {
		var prev []byte
		first := true
		for {
			k, v, err := ms.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return c, fmt.Errorf("mapreduce: %s: reduce: %w", job.Config.Name, err)
			}
			c.ReduceInputRecords++
			if first || !bytes.Equal(k, prev) {
				c.ReduceInputGroups++
				prev = append(prev[:0], k...)
				first = false
			}
			c.ReduceOutputRecords++
			c.ReduceOutputBytes += units.Bytes(len(k) + len(v) + recordOverhead)
			if err := sink(k, v); err != nil {
				return c, err
			}
		}
		return c, nil
	}

	var sinkErr error
	emit := ByteEmitter(func(k, v []byte) {
		c.ReduceOutputRecords++
		c.ReduceOutputBytes += units.Bytes(len(k) + len(v) + recordOverhead)
		if sinkErr == nil {
			sinkErr = sink(k, v)
		}
	})

	var (
		group   arena  // the open group's records
		leaderB []byte // group-leader key bytes (stable copy)
		inGroup bool
		it      ValueIter // one per task, not per group: &it escapes into the call
	)
	flush := func() error {
		gseg := group.seg()
		n := gseg.Len()
		if n == 0 {
			return nil
		}
		c.ReduceInputGroups++
		it = ValueIter{seg: gseg, i: 0, j: n}
		err := job.Reducer.ReduceStream(gseg.key(0), &it, emit)
		group.reset()
		if err != nil {
			return fmt.Errorf("mapreduce: %s: reduce: %w", job.Config.Name, err)
		}
		return sinkErr
	}
	for {
		k, v, err := ms.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return c, fmt.Errorf("mapreduce: %s: reduce: %w", job.Config.Name, err)
		}
		c.ReduceInputRecords++
		if !inGroup || !bytes.Equal(k, leaderB) {
			if err := flush(); err != nil {
				return c, err
			}
			leaderB = append(leaderB[:0], k...)
			inGroup = true
		}
		group.appendBytes(k, v)
	}
	if err := flush(); err != nil {
		return c, err
	}
	return c, nil
}

package mapreduce

import (
	"bytes"
	"fmt"
	"io"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/units"
)

// extmerge.go is the out-of-core counterpart of merge.go: a streaming
// k-way merge over sorted runs that live either in memory (arena Segments)
// or on disk (segment-file partitions), reading disk runs one frame at a
// time instead of materializing them. The loser tree mirrors merge.go's —
// alive before exhausted, then key bytes, then slot — so feeding runs in
// the same order the in-memory path would merge them yields byte-identical
// output: stable merging is associative over adjacent runs, frames are
// contiguous chunks of a sorted run, and slot order preserves the original
// record order among equal keys.

// partRun is one sorted run of one partition: an in-memory segment when
// file is nil, otherwise partition part of an on-disk segment file.
type partRun struct {
	seg  Segment
	file *SegmentFile
	part int
}

// memRun wraps an in-memory segment.
func memRun(seg Segment) partRun { return partRun{seg: seg} }

// diskRun wraps one partition of a segment file.
func diskRun(f *SegmentFile, part int) partRun { return partRun{file: f, part: part} }

// isDisk reports whether the run lives on disk.
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

// materialize loads the run into one in-memory segment. For disk runs it
// returns the stored bytes read alongside, for spill-read accounting.
func (r partRun) materialize() (Segment, int64, error) {
	if r.file == nil {
		return r.seg, 0, nil
	}
	src, err := r.file.openFrameSource(r.part)
	if err != nil {
		return Segment{}, 0, err
	}
	defer src.close()
	var a arena
	pm := &r.file.parts[r.part]
	a.grow(int(pm.rawPayload), int(pm.recs))
	for {
		seg, err := src.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Segment{}, src.storedBytesRead(), err
		}
		for i, n := 0, seg.Len(); i < n; i++ {
			a.appendBytes(seg.key(i), seg.val(i))
		}
	}
	return a.seg(), src.storedBytesRead(), nil
}

// runCursor walks one run record by record. Disk runs resident one
// decompressed frame at a time; key/val slices of a disk cursor are
// invalidated when advance crosses a frame boundary.
type runCursor struct {
	cur  Segment
	i    int
	src  frameSource // nil for in-memory runs
	done bool
}

// openRunCursor positions a cursor at the run's first record. Disk runs get
// the readahead-pipelined frame source when they span multiple frames, so
// frame k+1's read, CRC check and inflate overlap the merge draining frame
// k.
func openRunCursor(r partRun) (*runCursor, error) {
	if r.file == nil {
		return &runCursor{cur: r.seg, done: r.seg.Len() == 0}, nil
	}
	src, err := r.file.openFrameSource(r.part)
	if err != nil {
		return nil, err
	}
	c := &runCursor{src: src}
	if err := c.refill(); err != nil {
		src.close()
		return nil, err
	}
	return c, nil
}

// refill loads the next non-empty frame, marking the cursor done at EOF.
func (c *runCursor) refill() error {
	for {
		seg, err := c.src.next()
		if err == io.EOF {
			c.done = true
			c.cur = Segment{}
			return nil
		}
		if err != nil {
			return err
		}
		if seg.Len() > 0 {
			c.cur, c.i = seg, 0
			return nil
		}
	}
}

// key and val return the current record's bytes; only valid while !done.
func (c *runCursor) key() []byte { return c.cur.key(c.i) }
func (c *runCursor) val() []byte { return c.cur.val(c.i) }

// advance moves to the next record, refilling from the next frame for disk
// cursors.
func (c *runCursor) advance() error {
	c.i++
	if c.i < c.cur.Len() {
		return nil
	}
	if c.src == nil {
		c.done = true
		return nil
	}
	return c.refill()
}

// close releases a disk cursor's frame source (and its file handle).
func (c *runCursor) close() {
	if c.src != nil {
		c.src.close()
	}
}

// cursorTree is merge.go's loser tree generalized from resident segments
// to run cursors; see loserTree for the tournament mechanics.
type cursorTree struct {
	k    int
	node []int32
	curs []*runCursor
}

func newCursorTree(curs []*runCursor) *cursorTree {
	t := &cursorTree{k: len(curs), curs: curs, node: make([]int32, len(curs))}
	for i := range t.node {
		t.node[i] = -1
	}
	for s := t.k - 1; s >= 0; s-- {
		t.seed(int32(s))
	}
	return t
}

// less orders cursors: alive before exhausted, then key bytes, then slot.
func (t *cursorTree) less(a, b int32) bool {
	ca, cb := t.curs[a], t.curs[b]
	if ca.done {
		return false
	}
	if cb.done {
		return true
	}
	if c := bytes.Compare(ca.key(), cb.key()); c != 0 {
		return c < 0
	}
	return a < b
}

func (t *cursorTree) seed(s int32) {
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

// fix replays cursor w's matches up the tree after it advanced.
func (t *cursorTree) fix(w int32) {
	for j := (int(w) + t.k) / 2; j > 0; j /= 2 {
		if t.less(t.node[j], w) {
			t.node[j], w = w, t.node[j]
		}
	}
	t.node[0] = w
}

// mergeStream is a pull iterator over the stable k-way merge of a set of
// runs. The key/val slices it returns are valid until the following next
// call (disk-backed records are copied through scratch before their source
// frame can be refilled).
type mergeStream struct {
	curs []*runCursor
	tree *cursorTree // nil when 0 or 1 live cursors
	kbuf []byte
	vbuf []byte
}

// openMergeStream builds the merge over the runs' non-empty cursors in
// slot order. Callers must close the stream.
func openMergeStream(runs []partRun) (*mergeStream, error) {
	m := &mergeStream{}
	for _, r := range runs {
		if r.recs() == 0 {
			continue
		}
		c, err := openRunCursor(r)
		if err != nil {
			m.close()
			return nil, err
		}
		m.curs = append(m.curs, c)
	}
	if len(m.curs) >= 2 {
		m.tree = newCursorTree(m.curs)
	}
	return m, nil
}

// next returns the next merged record, or io.EOF when the merge is
// exhausted.
func (m *mergeStream) next() (k, v []byte, err error) {
	var w *runCursor
	var wi int32
	switch {
	case m.tree != nil:
		wi = m.tree.node[0]
		w = m.curs[wi]
	case len(m.curs) == 1:
		w = m.curs[0]
	default:
		return nil, nil, io.EOF
	}
	if w.done {
		return nil, nil, io.EOF
	}
	k, v = w.key(), w.val()
	if w.src != nil {
		// Advancing may refill the frame scratch these alias.
		m.kbuf = append(m.kbuf[:0], k...)
		m.vbuf = append(m.vbuf[:0], v...)
		k, v = m.kbuf, m.vbuf
	}
	if err := w.advance(); err != nil {
		return nil, nil, err
	}
	if m.tree != nil {
		m.tree.fix(wi)
	}
	return k, v, nil
}

// diskBytesRead sums the stored bytes the stream's disk cursors consumed.
func (m *mergeStream) diskBytesRead() int64 {
	var n int64
	for _, c := range m.curs {
		if c.src != nil {
			n += c.src.storedBytesRead()
		}
	}
	return n
}

// close releases every cursor's file handle.
func (m *mergeStream) close() {
	for _, c := range m.curs {
		c.close()
	}
}

// mergeRunsTo streams the stable merge of runs into emit, record by
// record, and returns the stored disk bytes read — the external-merge
// workhorse behind map-side spill consolidation and collector pressure
// folds.
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

// fileRuns returns one disk run per partition of sf.
func fileRuns(sf *SegmentFile) []partRun {
	runs := make([]partRun, sf.NumPartitions())
	for p := range runs {
		runs[p] = diskRun(sf, p)
	}
	return runs
}

// mergeToFile writes the stable merge of runs, partition by partition, into
// one new segment file at path — the one "merge these runs into a file"
// routine behind map-side spill consolidation, collector pressure folds and
// reduce-side merge rounds. runs[i][p] is sorted run i's partition p; every
// run carries the same partition count and runs are merged in slot order.
// A partition whose only non-empty run is resident is framed straight from
// its segment (no merge). The file and the stored disk bytes the merge read
// are charged to c's spill-file counters; the read bytes are also returned
// for phase I/O attribution. On error the partial file is removed.
func mergeToFile(path string, runs [][]partRun, c *Counters) (*SegmentFile, int64, error) {
	w, err := newSpillWriter(path)
	if err != nil {
		return nil, 0, err
	}
	var read int64
	col := make([]partRun, 0, len(runs))
	for p := range runs[0] {
		col = col[:0]
		for _, r := range runs {
			if r[p].recs() > 0 {
				col = append(col, r[p])
			}
		}
		w.beginPartition()
		if len(col) == 1 && !col[0].isDisk() {
			err = w.appendSegment(col[0].seg)
		} else {
			var n int64
			n, err = mergeRunsTo(col, w.append)
			read += n
		}
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
// adjacent groups of up to factor runs are merged into intermediate segment
// files named <prefix>r<round>-g<group>.seg — deterministic and truncating,
// so a retried attempt rewrites the same files. Groups are contiguous in
// slot order and stable merging is associative over adjacent runs, so the
// final merge over the returned runs is byte-identical to a one-shot merge
// over the input. Runs are laid out as in mergeToFile (one partition for
// reduce-side runs, the job's partition count for map spills); a run is
// resident in every partition or one file's partitions. A trailing singleton
// group passes its run through unmerged.
//
// The input slice is never mutated (a retried reduce attempt replays it).
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
		next := make([][]partRun, 0, (len(runs)+factor-1)/factor)
		var roundRead, roundWritten int64
		t := pc.Start()
		for lo := 0; lo < len(runs); lo += factor {
			hi := min(lo+factor, len(runs))
			if hi-lo == 1 {
				next = append(next, runs[lo])
				continue
			}
			sf, read, err := mergeToFile(fmt.Sprintf("%sr%d-g%d.seg", prefix, rounds, lo/factor), runs[lo:hi], c)
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

// reduceStreamed is reduceMerged over a streaming merge: it applies the
// reducer per key group as records flow out of the k-way merge, never
// materializing the merged partition, and hands output records to sink.
// Counter semantics are identical to reduceMerged (same group counting,
// same output accounting); spill-file reads are additionally accounted in
// SpillFileBytesRead and cursor opening is emitted as a spill-read phase.
func reduceStreamed(job Job, runs []partRun, sink func(k, v []byte) error, pc phaseClock) (Counters, error) {
	var c Counters
	tOpen := pc.Start()
	ms, err := openMergeStream(runs)
	if err != nil {
		return c, fmt.Errorf("mapreduce: %s: reduce: opening spill runs: %w", job.Config.Name, err)
	}
	defer func() { c.SpillFileBytesRead += units.Bytes(ms.diskBytesRead()) }()
	defer ms.close()
	openRead := ms.diskBytesRead()
	pc.EmitIO(obs.PhaseSpillRead, tOpen, openRead, 0)

	// The deferred reduce emit runs before ms.close (defers unwind LIFO),
	// so diskBytesRead is still valid; the reduce phase is credited with
	// the disk bytes the merge pulled after cursor opening.
	tReduce := pc.Start()
	defer func() { pc.EmitIO(obs.PhaseReduce, tReduce, ms.diskBytesRead()-openRead, 0) }()

	if pr, ok := job.Reducer.(PassthroughReducer); ok && pr.Passthrough() && job.Grouping == nil {
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
		leader  string // group-leader key, materialized for the Grouping comparator only
		leaderB []byte // group-leader key bytes (stable copy)
		inGroup bool
		probe   string // Grouping probe, reused across bytes-equal keys
		probeB  []byte
		it      ValueIter // one per task, not per group: &it escapes into the call
	)
	flush := func() error {
		gseg := group.seg()
		n := gseg.Len()
		if n == 0 {
			return nil
		}
		c.ReduceInputGroups++
		it = ValueIter{seg: gseg, i: 0, j: n, n: n}
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
		same := false
		if inGroup {
			if job.Grouping != nil {
				if probeB == nil || !bytes.Equal(k, probeB) {
					probe = string(k)
					probeB = append(probeB[:0], k...)
				}
				same = job.Grouping(probe, leader)
			} else {
				same = bytes.Equal(k, leaderB)
			}
		}
		if !same {
			if err := flush(); err != nil {
				return c, err
			}
			leaderB = append(leaderB[:0], k...)
			if job.Grouping != nil {
				leader = string(k)
			}
			inGroup = true
		}
		group.appendBytes(k, v)
	}
	if err := flush(); err != nil {
		return c, err
	}
	return c, nil
}

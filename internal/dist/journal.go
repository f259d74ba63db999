package dist

// journal.go is the record format of the master's snapshot file
// (snapshot.go): how the core (core.go) frames each persistent transition
// as a record, the checkpoint that writes a whole state as records, and the
// replay that rebuilds a core from a checkpoint and the records appended
// after it. A record is
//
//	u32  payload length n, little-endian
//	u32  CRC-32C (Castagnoli) of the kind byte and the payload
//	u8   kind
//	n ×  payload: unsigned varints, strings and byte fields as a varint
//	     length and the bytes, counters in mapreduce.AppendCounters' form
//
// hand-encoded, so a commit costs a few appends and no reflection. Like the
// core, this file opens no file and reads no clock.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"heterohadoop/internal/mapreduce"
)

// snapshotVersion is bumped on any incompatible layout change; a file of
// another version is refused (the operator removes the stale file) rather
// than misread. Version 3 moved the splits and reduce outputs out of the
// snapshot into per-job data files, version 4 cut the engine's splits and
// version 5 carried a sort's cut keys in the descriptor's Aux. Version 6
// replaced the one gob value, rewritten whole on every commit, with this
// journal.
const snapshotVersion = 6

// Record kinds.
const (
	recHeader     byte = 1 + iota // version and epoch; the first record of every checkpoint
	recJob                        // one active job's whole state: its admission, or the job in a checkpoint
	recMapDone                    // a map completion and the partitions it published segments to
	recReduceDone                 // a reduce completion and its output's extent in the data file
	recMapLost                    // a done map invalidated: its segments died with their worker
	recWorker                     // a worker evicted, or known to a checkpoint
	recRetire                     // a job's final status: its retirement, or a history entry in a checkpoint
	recTally                      // a job's reassigned, speculative, early-reduce and recovered-map counts
)

// recordNames names the kinds in errors.
var recordNames = [...]string{
	recHeader: "header", recJob: "job", recMapDone: "map-done", recReduceDone: "reduce-done",
	recMapLost: "map-lost", recWorker: "worker", recRetire: "retire", recTally: "tally",
}

// recordHeaderSize is a record's framing: length, checksum and kind.
const recordHeaderSize = 9

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The persister compacts — writes a fresh checkpoint in place of the file —
// once the bytes appended after the checkpoint exceed compactRatio times
// the checkpoint and compactMinBytes: the file stays within a constant
// factor of the state it holds, and a small state is not rewritten every
// few commits.
const (
	compactRatio    = 4
	compactMinBytes = 64 << 10
)

// compactDue reports whether appended bytes after a checkpoint of ckpt
// bytes call for a fresh checkpoint.
func compactDue(appended, ckpt int64) bool {
	return appended > max(compactRatio*ckpt, compactMinBytes)
}

// extent locates one blob in a job's data file; Len 0 means absent.
type extent struct{ Off, Len int64 }

// beginRecord starts a record of kind at the end of b; endRecord frames it
// once the payload has been appended after it.
func beginRecord(b []byte, kind byte) []byte {
	return append(b, 0, 0, 0, 0, 0, 0, 0, 0, kind)
}

// endRecord fills in the length and checksum of the record that starts at
// b[start:] and runs to the end of b.
func endRecord(b []byte, start int) []byte {
	rec := b[start:]
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-recordHeaderSize))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(rec[8:], castagnoli))
	return b
}

func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendTime(b []byte, t time.Time) []byte {
	return appendInt(binary.AppendVarint(b, t.Unix()), t.Nanosecond())
}

// appendHeader appends the record a checkpoint starts with.
func appendHeader(b []byte, epoch uint64) []byte {
	start := len(b)
	b = beginRecord(b, recHeader)
	b = appendInt(b, snapshotVersion)
	return endRecord(appendUint(b, epoch), start)
}

// appendJob appends js's whole state: the descriptor, where its bytes are
// (data file, input length, one extent per reducer), the map table as each
// map's owner ("" while not done), the shuffle publication log, the
// counters and the tally.
func appendJob(b []byte, js *jobState) []byte {
	start := len(b)
	b = beginRecord(b, recJob)
	b = appendUint(b, js.epoch)
	b = appendString(b, js.desc.Workload)
	b = appendInt(b, js.desc.NumReducers)
	b = append(appendInt(b, len(js.desc.Aux)), js.desc.Aux...)
	b = appendInt(b, js.blockSize)
	b = appendTime(b, js.submittedAt)
	b = appendString(b, js.dataFile)
	b = appendInt(b, js.inputLen)
	for _, e := range js.outExt {
		b = appendUint(appendUint(b, uint64(e.Off)), uint64(e.Len))
	}
	b = appendInt(b, len(js.mapTasks))
	for _, ts := range js.mapTasks {
		b = appendString(b, ts.owner)
	}
	for _, segs := range js.partSegs {
		b = appendInt(b, len(segs))
		for _, s := range segs {
			b = appendString(appendString(appendInt(b, s.MapSeq), s.Addr), s.Owner)
		}
	}
	b = mapreduce.AppendCounters(b, js.counters)
	for _, v := range js.tally() {
		b = appendInt(b, v)
	}
	return endRecord(b, start)
}

// published reports whether a map completion's PartStat publishes a
// segment: a partition of the job's that received records.
func published(ps PartStat, parts int) bool {
	return ps.Part >= 0 && ps.Part < parts && ps.Recs > 0
}

// appendMapDone appends map seq's completion by owner, serving at addr:
// the partitions its segments were published to, in publication order, and
// the job's counters after it.
func appendMapDone(b []byte, js *jobState, seq int, owner, addr string, stats []PartStat) []byte {
	start := len(b)
	b = beginRecord(b, recMapDone)
	b = appendString(appendString(appendInt(appendUint(b, js.epoch), seq), owner), addr)
	n := 0
	for _, ps := range stats {
		if published(ps, len(js.partSegs)) {
			n++
		}
	}
	b = appendInt(b, n)
	for _, ps := range stats {
		if published(ps, len(js.partSegs)) {
			b = appendInt(b, ps.Part)
		}
	}
	return endRecord(mapreduce.AppendCounters(b, js.counters), start)
}

// appendReduceDone appends reduce seq's completion with its output's
// extent (empty when the output could not be written: a restart re-runs
// the reducer) and the job's counters after it.
func appendReduceDone(b []byte, js *jobState, seq int, e extent) []byte {
	start := len(b)
	b = beginRecord(b, recReduceDone)
	b = appendUint(appendUint(appendInt(appendUint(b, js.epoch), seq), uint64(e.Off)), uint64(e.Len))
	return endRecord(mapreduce.AppendCounters(b, js.counters), start)
}

// appendMapLost appends the invalidation of done map seq.
func appendMapLost(b []byte, js *jobState, seq int) []byte {
	start := len(b)
	b = beginRecord(b, recMapLost)
	return endRecord(appendInt(appendUint(b, js.epoch), seq), start)
}

// appendWorker appends a worker's identity and shuffle address; replayed,
// it is known and evicted, as every restored worker is.
func appendWorker(b []byte, w *workerInfo) []byte {
	start := len(b)
	b = beginRecord(b, recWorker)
	return endRecord(appendString(appendString(b, w.ID), w.Addr), start)
}

// appendRetire appends a job's final status.
func appendRetire(b []byte, st *JobStatus) []byte {
	start := len(b)
	b = beginRecord(b, recRetire)
	b = appendString(appendString(b, st.ID), st.State)
	b = appendString(appendString(appendUint(b, st.Epoch), st.Workload), st.Phase)
	for _, v := range []int{st.MapsDone, st.MapsTotal, st.ReducesDone, st.ReducesTotal,
		st.Reassigned, st.Speculative, st.EarlyReduces, st.RecoveredMaps} {
		b = appendInt(b, v)
	}
	return endRecord(b, start)
}

// appendTally appends a job's four Stats shares (jobState.tally).
func appendTally(b []byte, js *jobState) []byte {
	start := len(b)
	b = beginRecord(b, recTally)
	b = appendUint(b, js.epoch)
	for _, v := range js.tally() {
		b = appendInt(b, v)
	}
	return endRecord(b, start)
}

// nextRecord splits the first record off b. ok is false when b does not
// start with a whole record whose checksum matches: the torn tail of a
// write the process died in.
func nextRecord(b []byte) (kind byte, payload, rest []byte, ok bool) {
	if len(b) < recordHeaderSize {
		return 0, nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-recordHeaderSize) {
		return 0, nil, nil, false
	}
	end := recordHeaderSize + int(n)
	if crc32.Checksum(b[8:end], castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, nil, nil, false
	}
	return b[8], b[recordHeaderSize:end], b[end:], true
}

// reader reads one record's payload field by field. The first malformed
// field sets err and empties the payload, so every later read returns a
// zero value, and no count exceeds the bytes that could hold its items.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *reader) uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int {
	v := r.uint()
	if v > math.MaxInt {
		r.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// count reads the number of items that follow, each at least size bytes.
func (r *reader) count(size int) int {
	n := r.int()
	if n > len(r.b)/size {
		r.fail("count %d, but only %d bytes follow", n, len(r.b))
		return 0
	}
	return n
}

func (r *reader) bytes() []byte {
	n := r.count(1)
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) time() time.Time {
	sec, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return time.Time{}
	}
	r.b = r.b[n:]
	return time.Unix(sec, int64(r.int()))
}

func (r *reader) counters() mapreduce.Counters {
	c, rest, err := mapreduce.DecodeCounters(r.b)
	if err != nil {
		r.fail("%v", err)
		return c
	}
	r.b = rest
	return c
}

func (r *reader) tally() [4]int {
	return [4]int{r.int(), r.int(), r.int(), r.int()}
}

// end is the record's error: a malformed field, or bytes left over.
func (r *reader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// checkpoint appends the core's whole persistent state to b as records:
// the header, the worker table in ID order, the history as retirements and
// each active job in submission order. It changes nothing.
func (c *core) checkpoint(b []byte) []byte {
	b = appendHeader(b, c.epoch)
	for _, id := range c.workerIDs() {
		b = appendWorker(b, c.workers[id])
	}
	for i := range c.history {
		b = appendRetire(b, &c.history[i])
	}
	for _, js := range c.order {
		b = appendJob(b, js)
	}
	return b
}

// takeBatch returns the records made since the last call, closed by a
// tally record for every active job whose tally moved meanwhile (its
// requeues, backups and early reduces make no record of their own), and
// keeps spare's storage for the next batch.
func (c *core) takeBatch(spare []byte) []byte {
	for _, js := range c.order {
		if t := js.tally(); t != js.logged {
			c.batch = appendTally(c.batch, js)
			js.logged = t
		}
	}
	b := c.batch
	c.batch = spare[:0]
	return b
}

// replay rebuilds an empty core from a journal: the checkpoint it starts
// with, then the records appended after it, up to the first one that is
// torn or fails its checksum. A journal that does not start with a header
// of this version, or holds a record of unknown kind or a malformed one,
// is an error naming it. Then data gives each job still active its data
// file (jobState.attach), and queued jobs are admitted up to the cap. Every
// restored assignment is cleared and every restored worker starts evicted:
// a live one rejoins with its next call.
func (c *core) replay(b []byte, data func(*jobState) error, now time.Time) error {
	kind, payload, rest, ok := nextRecord(b)
	if !ok || kind != recHeader {
		return fmt.Errorf("no journal header: not a version-%d snapshot", snapshotVersion)
	}
	r := reader{b: payload}
	if v := r.uint(); r.err == nil && v != snapshotVersion {
		return fmt.Errorf("snapshot version %d, want %d", v, snapshotVersion)
	}
	c.epoch = r.uint()
	if err := r.end(); err != nil {
		return fmt.Errorf("header record: %w", err)
	}
	for i := 1; ; i++ {
		if kind, payload, rest, ok = nextRecord(rest); !ok {
			break
		}
		if kind == recHeader {
			return fmt.Errorf("record %d: a header past the first record", i)
		}
		if int(kind) >= len(recordNames) || recordNames[kind] == "" {
			return fmt.Errorf("record %d: unknown record kind %d", i, kind)
		}
		r := reader{b: payload}
		err := c.apply(kind, &r, now)
		if err == nil {
			err = r.end()
		}
		if err != nil {
			return fmt.Errorf("record %d (%s): %w", i, recordNames[kind], err)
		}
	}
	for _, js := range c.order {
		if err := data(js); err != nil {
			return fmt.Errorf("job %s: %w", js.id, err)
		}
		js.logged = js.tally()
	}
	c.promote()
	return nil
}

// apply replays one record onto the core.
func (c *core) apply(kind byte, r *reader, now time.Time) error {
	switch kind {
	case recJob:
		return c.replayJob(r)
	case recWorker:
		c.know(r.str(), r.str(), now)
		return nil
	case recRetire:
		st := JobStatus{ID: r.str(), State: r.str(), Epoch: r.uint(), Workload: r.str(), Phase: r.str(),
			MapsDone: r.int(), MapsTotal: r.int(), ReducesDone: r.int(), ReducesTotal: r.int(),
			Reassigned: r.int(), Speculative: r.int(), EarlyReduces: r.int(), RecoveredMaps: r.int()}
		c.closeOut(c.byEpoch[st.Epoch], st) // nil for a checkpoint's history entry
		c.epoch = max(c.epoch, st.Epoch)
		return nil
	}
	epoch := r.uint()
	js := c.byEpoch[epoch]
	if js == nil {
		return fmt.Errorf("no active job of epoch %d", epoch)
	}
	switch kind {
	case recMapDone:
		seq, owner, addr := r.int(), r.str(), r.str()
		if seq >= len(js.mapTasks) || js.mapTasks[seq].done || owner == "" {
			return fmt.Errorf("%s: map %d is not a pending map, or done by no worker", js.id, seq)
		}
		ts := js.mapTasks[seq]
		ts.done, ts.owner = true, owner
		js.mapsLeft--
		for n := r.count(1); n > 0; n-- {
			p := r.int()
			if p >= len(js.partSegs) {
				return fmt.Errorf("%s: map %d published to partition %d of %d", js.id, seq, p, len(js.partSegs))
			}
			js.partSegs[p] = append(js.partSegs[p], TaggedSegment{MapSeq: seq, Addr: addr, Owner: owner})
		}
		js.counters = r.counters()
		c.know(owner, addr, now)
	case recReduceDone:
		seq, e := r.int(), extent{Off: int64(r.int()), Len: int64(r.int())}
		if seq >= len(js.redTasks) || js.redTasks[seq].done {
			return fmt.Errorf("%s: reduce %d is not a pending reduce", js.id, seq)
		}
		if e.Len > 0 {
			js.redTasks[seq].done = true
			js.redsLeft--
			js.outExt[seq] = e
		}
		js.counters = r.counters()
	case recMapLost:
		seq := r.int()
		if seq >= len(js.mapTasks) || !js.mapTasks[seq].done {
			return fmt.Errorf("%s: map %d is not done", js.id, seq)
		}
		ts := js.mapTasks[seq]
		ts.done, ts.owner, ts.readyAt = false, "", now
		js.mapsLeft++
	case recTally:
		js.setTally(r.tally())
	}
	return nil
}

// replayJob replays a job record: an admission, or a checkpoint's job. Every
// count is checked against the bytes that carry it before anything is sized
// by it, and the map table against the splits of the job's input.
func (c *core) replayJob(r *reader) error {
	epoch := r.uint()
	desc := JobDescriptor{Workload: r.str(), NumReducers: r.count(2)}
	if aux := r.bytes(); len(aux) > 0 {
		desc.Aux = bytes.Clone(aux)
	}
	blockSize, submitted, dataFile, inputLen := r.int(), r.time(), r.str(), r.int()
	id := jobID(epoch)
	if r.err == nil && blockSize < 1 {
		return fmt.Errorf("job %s: block size %d", id, blockSize)
	}
	outExt := make([]extent, desc.NumReducers)
	for p := range outExt {
		outExt[p] = extent{Off: int64(r.int()), Len: int64(r.int())}
	}
	maps := r.count(1)
	if r.err != nil {
		return r.err
	}
	if desc.NumReducers < 1 {
		return fmt.Errorf("job %s: %d reducers", id, desc.NumReducers)
	}
	if splits := inputLen/blockSize + min(inputLen%blockSize, 1); maps != splits {
		return fmt.Errorf("job %s: %d map tasks, but its %d bytes cut into %d splits", id, maps, inputLen, splits)
	}
	if c.byEpoch[epoch] != nil {
		return fmt.Errorf("job %s recorded twice", id)
	}
	js := newJobState(id, epoch, desc, blockSize, inputLen, submitted)
	js.dataFile, js.outExt = dataFile, outExt
	for _, ts := range js.mapTasks {
		if ts.owner = r.str(); ts.owner != "" {
			ts.done = true
			js.mapsLeft--
		}
	}
	for p := range js.partSegs {
		n := r.count(3)
		js.partSegs[p] = make([]TaggedSegment, 0, n)
		for ; n > 0; n-- {
			s := TaggedSegment{MapSeq: r.int(), Addr: r.str(), Owner: r.str()}
			if s.MapSeq >= maps {
				return fmt.Errorf("job %s: partition %d names map %d of %d", id, p, s.MapSeq, maps)
			}
			js.partSegs[p] = append(js.partSegs[p], s)
		}
	}
	js.counters = r.counters()
	js.setTally(r.tally())
	if r.err != nil {
		return r.err
	}
	for p, e := range outExt {
		if e.Len > 0 {
			js.redTasks[p].done = true
			js.redsLeft--
		}
	}
	c.epoch = max(c.epoch, epoch)
	c.jobs[js.id], c.byEpoch[js.epoch] = js, js
	c.order = append(c.order, js) // queued: replay's promote admits up to the cap
	return nil
}

// know records a worker named by the journal — evicted, as every restored
// worker starts — with its shuffle address.
func (c *core) know(id, addr string, now time.Time) {
	w := c.workers[id]
	if w == nil {
		w = &workerInfo{ID: id}
		c.workers[id] = w
	}
	w.LastSeen, w.Evicted = now, true
	if addr != "" {
		w.Addr = addr
	}
}

package dist

// journal_test.go fuzzes the journal's decoder (journal.go): replay over
// arbitrary bytes into a fresh core.

import (
	"bytes"
	"runtime"
	"testing"

	"heterohadoop/internal/obs"
)

// journalSeed is a journal of one job's life — a checkpoint, then batches
// holding every kind of record — and the prefix of it before the job is
// cancelled.
func journalSeed() (all, active []byte) {
	cfg := coreConfig(obs.Nop)
	cfg.snapshotPath = "master.snap"
	c := newCore(cfg)
	poll(c, "w1", t0)
	b := c.checkpoint(nil)
	js, _, _ := c.admit(JobDescriptor{Workload: "wordcount", NumReducers: 2, Aux: []byte("aux")}, 8, lines(3), "job-1.data", t0)
	poll(c, "w2", t0)
	c.completeMap("w1", "w1:addr", &TaskReport{Epoch: js.epoch, Kind: TaskMap, Seq: 0,
		PartStats: []PartStat{{Part: 0, Recs: 1, Bytes: 8}, {Part: 1, Recs: 2, Bytes: 16}}}, t0)
	c.completeMap("w2", "w2:addr", &TaskReport{Epoch: js.epoch, Kind: TaskMap, Seq: 1,
		PartStats: []PartStat{{Part: 1, Recs: 1, Bytes: 8}}}, t0)
	c.completeReduce(&TaskReport{Epoch: js.epoch, Kind: TaskReduce, Seq: 0}, []byte("out"), extent{Off: 24, Len: 3}, t0)
	c.evict("w2", t0)
	active = append(b, c.takeBatch(nil)...)
	c.abort(js, ErrJobCancelled, t0)
	return append(bytes.Clone(active), c.takeBatch(nil)...), active
}

// FuzzJournalRecord replays arbitrary bytes as a journal, every job handed
// a fixed 64-byte data file. Replay must never panic, and no forged length
// or count may allocate more than the bytes that carry it can account for:
// a record claiming gigabytes is a torn tail, and a count larger than the
// payload that should hold its items is an error.
func FuzzJournalRecord(f *testing.F) {
	data := lines(8)
	all, active := journalSeed()
	for _, seed := range [][]byte{all, active} {
		if err := newCore(coreConfig(obs.Nop)).replay(seed, func(js *jobState) error { return js.attach(data) }, t0); err != nil {
			f.Fatalf("a seed journal does not replay: %v", err)
		}
		f.Add(seed)
	}
	f.Add(all[:len(all)/2])
	f.Add(appendHeader(nil, 3))
	f.Fuzz(func(t *testing.T, journal []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := newCore(coreConfig(obs.Nop))
		err := c.replay(journal, func(js *jobState) error { return js.attach(data) }, t0)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20+512*uint64(len(journal)) {
			t.Errorf("replaying %d bytes allocated %d bytes", len(journal), n)
		}
		if err != nil {
			return
		}
		// A journal that replays checkpoints to one that replays to the
		// same state.
		again := newCore(coreConfig(obs.Nop))
		if err := again.replay(c.checkpoint(nil), func(js *jobState) error { return js.attach(data) }, t0); err != nil {
			t.Fatalf("the checkpoint of a replayed journal does not replay: %v", err)
		}
		if got, want := again.checkpoint(nil), c.checkpoint(nil); string(got) != string(want) {
			t.Errorf("checkpoint changed across a replay:\n got %x\nwant %x", got, want)
		}
	})
}

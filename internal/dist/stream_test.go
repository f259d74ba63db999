package dist

import (
	"context"
	"testing"
	"time"

	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// TestEarlyReduceDispatchAndStreamingFetch drives the master by hand
// through a worker whose loop is not running: it steals every map task,
// completes just past the slowstart fraction, and asserts that a reduce task
// is dispatched while the map wave is still running and that FetchSegments
// streams the published segment references incrementally — Complete only
// once the last map has reported — each one fetchable from the worker's
// shuffle server.
func TestEarlyReduceDispatchAndStreamingFetch(t *testing.T) {
	input := workloads.GenerateText(8*units.KB, 3)
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 2}
	m := startMaster(t)
	tester := connectWorker(t, m, "tester")
	client := tester.client
	h, err := m.Submit(context.Background(), desc, input, 2*1024)
	if err != nil {
		t.Fatal(err)
	}

	// Steal every map task; polling must then answer TaskWait (no reduce is
	// eligible before the slowstart threshold).
	maps := make([]Task, h.Status().MapsTotal)
	for i := range maps {
		maps[i] = stealMapTask(t, client, tester.ID)
	}
	if len(maps) < 3 {
		t.Fatalf("stole %d map tasks, need >= 3 for a split wave", len(maps))
	}
	var idle Task
	if err := client.Call("Master.Heartbeat", Heartbeat{WorkerID: tester.ID, Poll: true}, &idle); err != nil {
		t.Fatal(err)
	}
	if idle.Kind != TaskWait {
		t.Fatalf("poll with every map in flight returned %q, want %q", idle.Kind, TaskWait)
	}

	// A beat that carries a map completion but names no shuffle address is
	// refused, not recorded.
	if err := client.Call("Master.Heartbeat", Heartbeat{
		WorkerID: tester.ID, Reports: []TaskReport{{Epoch: maps[0].Epoch, Kind: TaskMap, Seq: maps[0].Seq}},
	}, &Task{}); err == nil || h.Status().MapsDone != 0 {
		t.Fatalf("address-less completion: err %v, status %+v, want refused", err, h.Status())
	}

	complete := func(task Task) {
		t.Helper()
		if err := runMapReported(tester, task); err != nil {
			t.Fatal(err)
		}
	}
	half := (len(maps) + 1) / 2
	for _, task := range maps[:half] {
		complete(task)
	}

	// Past slowstart with maps still outstanding: the next poll must hand
	// out a reduce task.
	var red Task
	if err := client.Call("Master.Heartbeat", Heartbeat{WorkerID: tester.ID, Poll: true}, &red); err != nil {
		t.Fatal(err)
	}
	if red.Kind != TaskReduce {
		t.Fatalf("poll past slowstart returned %q, want %q", red.Kind, TaskReduce)
	}
	if st := m.Stats(); st.EarlyReduces < 1 {
		t.Errorf("EarlyReduces = %d, want >= 1", st.EarlyReduces)
	}

	// The stream so far: published segments, but not Complete.
	var r1 FetchSegmentsReply
	if err := client.Call("Master.FetchSegments", FetchSegmentsArgs{
		WorkerID: "tester", Epoch: red.Epoch, Partition: red.Seq,
	}, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Stale {
		t.Fatal("fetch during the job reported Stale")
	}
	if r1.Complete {
		t.Fatalf("fetch Complete with %d/%d maps done", half, len(maps))
	}

	// A wrong-epoch fetch — a worker left over from an aborted job — must
	// be told Stale, not fed the current job's data.
	var stale FetchSegmentsReply
	if err := client.Call("Master.FetchSegments", FetchSegmentsArgs{
		WorkerID: "ghost", Epoch: red.Epoch + 1, Partition: red.Seq,
	}, &stale); err != nil {
		t.Fatal(err)
	}
	if !stale.Stale {
		t.Error("wrong-epoch fetch not reported Stale")
	}

	// Drain the map wave; the stream must then complete from the cursor.
	for _, task := range maps[half:] {
		complete(task)
	}
	var r2 FetchSegmentsReply
	if err := client.Call("Master.FetchSegments", FetchSegmentsArgs{
		WorkerID: "tester", Epoch: red.Epoch, Partition: red.Seq, Cursor: r1.Cursor,
	}, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Stale || !r2.Complete {
		t.Fatalf("fetch after map drain: stale=%v complete=%v, want complete", r2.Stale, r2.Complete)
	}
	segs := append(append([]TaggedSegment(nil), r1.Segments...), r2.Segments...)
	seen := map[int]bool{}
	for _, s := range segs {
		if s.MapSeq < 0 || s.MapSeq >= len(maps) {
			t.Fatalf("segment tagged with MapSeq %d outside the wave", s.MapSeq)
		}
		if seen[s.MapSeq] {
			t.Fatalf("map %d published twice to partition %d", s.MapSeq, red.Seq)
		}
		seen[s.MapSeq] = true
		fetched, err := tester.fetchServed(s, red.Epoch, red.Seq)
		if err != nil {
			t.Fatalf("map %d published an unfetchable segment: %v", s.MapSeq, err)
		}
		if fetched[0].Len() == 0 {
			t.Fatalf("map %d published an empty segment", s.MapSeq)
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segments streamed for a wordcount partition")
	}

	// Abort: the epoch guard must extend to the segment stream.
	h.Cancel()
	var r3 FetchSegmentsReply
	if err := client.Call("Master.FetchSegments", FetchSegmentsArgs{
		WorkerID: "tester", Epoch: red.Epoch, Partition: red.Seq, Cursor: r2.Cursor,
	}, &r3); err != nil {
		t.Fatal(err)
	}
	if !r3.Stale {
		t.Error("fetch after abort not reported Stale")
	}
}

// TestFairScheduleOrder pins the dispatch order across running jobs: the
// job with fewer in-flight tasks is served first, and a tie goes to the job
// submitted first. Nothing polls but the test, which takes map tasks
// through polling beats and identifies each one's job by its epoch.
func TestFairScheduleOrder(t *testing.T) {
	m := startMaster(t, WithTaskTimeout(time.Minute))
	w := connectWorker(t, m, "tester")
	desc := JobDescriptor{Workload: "wordcount", NumReducers: 1}
	var epochs [2]uint64
	for i := range epochs {
		h, err := m.Submit(context.Background(), desc, workloads.GenerateText(8*units.KB, int64(60+i)), 1024)
		if err != nil {
			t.Fatal(err)
		}
		if st := h.Status(); st.MapsTotal < 4 {
			t.Fatalf("job %s has %d maps, want >= 4", h.ID(), st.MapsTotal)
		}
		epochs[i] = h.Status().Epoch
	}
	first, second := epochs[0], epochs[1]
	// steal takes the next map task and checks its job; load is the two
	// jobs' in-flight counts before the poll, first:second.
	steal := func(want uint64, load string) Task {
		t.Helper()
		task := stealMapTask(t, w.client, w.ID)
		if task.Epoch != want {
			t.Fatalf("with %s in flight: got a task of epoch %d, want %d", load, task.Epoch, want)
		}
		return task
	}
	steal(first, "0:0")
	steal(second, "1:0")
	steal(first, "1:1")
	done := steal(second, "2:1")
	// Completing one of the later job's tasks leaves it fewer in flight.
	if err := runMapReported(w, done); err != nil {
		t.Fatal(err)
	}
	steal(second, "2:1")
	steal(first, "2:2")
}

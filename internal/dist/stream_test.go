package dist

import (
	"context"
	"testing"

	"heterohadoop/internal/mapreduce"
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
	if err := client.Call("Master.GetTask", GetTaskArgs{WorkerID: tester.ID}, &idle); err != nil {
		t.Fatal(err)
	}
	if idle.Kind != TaskWait {
		t.Fatalf("poll with every map in flight returned %q, want %q", idle.Kind, TaskWait)
	}

	// A completion that names no shuffle address is refused, not recorded.
	if err := client.Call("Master.CompleteMap", MapDone{
		WorkerID: tester.ID, Epoch: maps[0].Epoch, Seq: maps[0].Seq,
	}, &Ack{}); err == nil || h.Status().MapsDone != 0 {
		t.Fatalf("address-less completion: err %v, status %+v, want refused", err, h.Status())
	}

	complete := func(task Task) {
		t.Helper()
		if err := tester.runMap(task); err != nil {
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
	if err := client.Call("Master.GetTask", GetTaskArgs{WorkerID: tester.ID}, &red); err != nil {
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
		WorkerID: "tester", Epoch: red.Epoch, Partition: red.Partition,
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
		WorkerID: "ghost", Epoch: red.Epoch + 1, Partition: red.Partition,
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
		WorkerID: "tester", Epoch: red.Epoch, Partition: red.Partition, Cursor: r1.Cursor,
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
			t.Fatalf("map %d published twice to partition %d", s.MapSeq, red.Partition)
		}
		seen[s.MapSeq] = true
		frames, err := tester.fetchServed(s, red.Epoch, red.Partition)
		if err != nil {
			t.Fatalf("map %d published an unfetchable segment: %v", s.MapSeq, err)
		}
		seg, err := mapreduce.DecodeSegment(frames[0])
		if err != nil {
			t.Fatalf("map %d serves an undecodable segment: %v", s.MapSeq, err)
		}
		if seg.Len() == 0 {
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
		WorkerID: "tester", Epoch: red.Epoch, Partition: red.Partition, Cursor: r2.Cursor,
	}, &r3); err != nil {
		t.Fatal(err)
	}
	if !r3.Stale {
		t.Error("fetch after abort not reported Stale")
	}
}

// TestReduceSlowstartOneRestoresBarrier checks the strict-barrier opt-out:
// a job submitted with slowstart 1.0 gets no reduce dispatched until every
// map is done, yet still completes.
func TestReduceSlowstartOneRestoresBarrier(t *testing.T) {
	input := workloads.GenerateText(8*units.KB, 9)
	m := startMaster(t)
	startWorker(t, m, "w0")
	res := submitWait(t, m, JobDescriptor{Workload: "wordcount", NumReducers: 2, ReduceSlowstart: 1.0}, input, 2*1024)
	if res.Counters.ReduceTasks != 2 {
		t.Errorf("ReduceTasks = %d, want 2", res.Counters.ReduceTasks)
	}
	if st := m.Stats(); st.EarlyReduces != 0 {
		t.Errorf("EarlyReduces = %d with slowstart 1.0, want 0", st.EarlyReduces)
	}
}

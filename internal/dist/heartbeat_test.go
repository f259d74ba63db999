package dist

// heartbeat_test.go covers the worker's one control call: a beat's reports
// are applied before its poll is answered, a completion still held when the
// loop ends is flushed, and the master pulls only the reduce outputs the
// core would accept.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heterohadoop/internal/mapreduce"
	"heterohadoop/internal/units"
	"heterohadoop/internal/workloads"
)

// TestPollingBeatAppliesReportsFirst: a polling beat that carries the
// completion of its job's last outstanding map is answered with the job's
// reduce in the same reply — the report was applied, and committed, before
// the poll was. The job has one map, so without the completion the poll
// could only be told to wait.
func TestPollingBeatAppliesReportsFirst(t *testing.T) {
	m := startMaster(t, WithTaskTimeout(time.Minute))
	w := connectWorker(t, m, "rider")
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 1},
		workloads.GenerateText(4*units.KB, 67), 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.runMap(stealMapTask(t, w.client, w.ID))
	if err != nil {
		t.Fatal(err)
	}
	var task Task
	if err := w.client.Call("Master.Heartbeat", Heartbeat{
		WorkerID: w.ID, Addr: w.shuffleAddr, Poll: true, Reports: []TaskReport{rep},
	}, &task); err != nil {
		t.Fatal(err)
	}
	if task.Kind != TaskReduce {
		t.Errorf("polling beat carrying the last map's completion got %q, want %q", task.Kind, TaskReduce)
	}
	if st := h.Status(); st.MapsDone != st.MapsTotal {
		t.Errorf("after the beat: %d of %d maps done, want all", st.MapsDone, st.MapsTotal)
	}
}

// TestStoppedWorkerFlushesCompletion: a worker stopped, or cancelled, right
// after a map finishes has no polling beat left to carry the completion; the
// loop sends it in a last beat of its own, so the master records it long
// before the task timeout would reissue the map.
func TestStoppedWorkerFlushesCompletion(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		t.Run(fmt.Sprintf("cancel=%v", cancel), func(t *testing.T) {
			m := startMaster(t, WithTaskTimeout(time.Minute))
			w := connectWorker(t, m, "flusher")
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			gated := func(desc JobDescriptor) (mapreduce.Job, error) {
				cfg := mapreduce.DefaultConfig("gated")
				cfg.NumReducers = desc.NumReducers
				return mapreduce.Job{
					Config: cfg,
					Mapper: mapreduce.MapperFunc(func(_, line string, emit mapreduce.Emitter) error {
						once.Do(func() { close(entered); <-release })
						emit(line, "1")
						return nil
					}),
					Reducer: mapreduce.IdentityReducer(),
				}, nil
			}
			m.Registry().Register("gated", gated)
			w.Registry().Register("gated", gated)
			h, err := m.Submit(context.Background(), JobDescriptor{Workload: "gated", NumReducers: 1},
				workloads.GenerateText(4*units.KB, 71), 64*1024)
			if err != nil {
				t.Fatal(err)
			}
			ctx, stop := context.WithCancel(context.Background())
			defer stop()
			done := make(chan error, 1)
			go func() { done <- w.RunForeverCtx(ctx) }()
			select {
			case <-entered:
			case <-time.After(jobDeadline):
				t.Fatalf("worker never ran the map: %+v", h.Status())
			}
			if cancel {
				stop()
			} else {
				w.Stop()
			}
			close(release)
			select {
			case err := <-done:
				if cancel && !errors.Is(err, context.Canceled) || !cancel && err != nil {
					t.Errorf("loop returned %v", err)
				}
			case <-time.After(jobDeadline):
				t.Fatalf("loop still running %v after the map was released", jobDeadline)
			}
			if st := h.Status(); st.MapsDone != 1 {
				t.Errorf("after the loop ended: %d maps done, want the finished one recorded", st.MapsDone)
			}
		})
	}
}

// TestHeartbeatPullsOnlyAcceptedReduceOutput: the master asks the core which
// reduce completions it would record before pulling any output, so a
// duplicate for a partition already done — a backup reducer's — never dials
// the reporter's endpoint, while a completion for an open partition does.
func TestHeartbeatPullsOnlyAcceptedReduceOutput(t *testing.T) {
	m := startMaster(t, WithTaskTimeout(time.Minute))
	h, err := m.Submit(context.Background(), JobDescriptor{Workload: "wordcount", NumReducers: 2},
		workloads.GenerateText(8*units.KB, 73), 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	clerk := connectWorker(t, m, "clerk")
	driveMaps(t, h, clerk)
	red := stealTask(t, clerk.client, clerk.ID, TaskReduce)
	if err := clerk.runReduceStreaming(context.Background(), red); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st.ReducesDone != 1 {
		t.Fatalf("status %+v, want one reducer done", st)
	}

	// An endpoint that counts the connections it accepts and serves nothing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			c.Close()
		}
	}()
	beat := func(seq int) error {
		return clerk.client.Call("Master.Heartbeat", Heartbeat{
			WorkerID: "backup", Addr: ln.Addr().String(),
			Reports: []TaskReport{{Epoch: red.Epoch, Kind: TaskReduce, Seq: seq}},
		}, &Task{})
	}
	if err := beat(red.Seq); err != nil {
		t.Errorf("duplicate completion for a done partition: %v, want it ignored", err)
	}
	if n := accepts.Load(); n != 0 {
		t.Errorf("the master dialled the duplicate's endpoint %d times, want 0", n)
	}
	// The open partition's output is pulled — and refused, as nothing is
	// served there.
	if err := beat(1 - red.Seq); err == nil {
		t.Error("completion whose output cannot be pulled was accepted")
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("the master dialled the open partition's endpoint %d times, want 1", n)
	}
	if st := h.Status(); st.ReducesDone != 1 {
		t.Errorf("status %+v, want still one reducer done", st)
	}
}

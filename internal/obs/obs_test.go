package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNopFastPathAllocationFree pins the tentpole's performance contract:
// the instrumented hot paths, run without an observer, must not allocate.
func TestNopFastPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		o := FromContext(ctx)
		var sp Span
		if o.Enabled() {
			sp = Start(o, "hot", Str("k", "v"))
		}
		sp.End()
		o.Count("hits", 1)
		o.Gauge("g", 1.0)
	})
	if allocs != 0 {
		t.Fatalf("no-op observer path allocates %v per op, want 0", allocs)
	}
}

func TestContextPlumbing(t *testing.T) {
	if FromContext(context.Background()) != Nop {
		t.Error("empty context should yield Nop")
	}
	c := NewCollector()
	ctx := NewContext(context.Background(), c)
	if FromContext(ctx) != Observer(c) {
		t.Error("carried observer not returned")
	}
	if NewContext(ctx, nil) != ctx {
		t.Error("nil observer should leave the context unchanged")
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector()
	now := time.Unix(0, 0)
	c.clock = func() time.Time { return now }

	id := c.SpanStart("work", nil)
	now = now.Add(10 * time.Millisecond)
	c.SpanEnd(id)
	id = c.SpanStart("work", nil)
	now = now.Add(30 * time.Millisecond)
	c.SpanEnd(id)
	c.Count("n", 2)
	c.Count("n", 3)
	c.Gauge("g", 1.5)
	c.Gauge("g", 2.5)
	c.Progress("rows", 3, 10)

	s := c.Snapshot()
	w := s.Spans["work"]
	if w.Count != 2 || w.Min != 10*time.Millisecond || w.Max != 30*time.Millisecond || w.Total != 40*time.Millisecond {
		t.Errorf("span summary wrong: %+v", w)
	}
	if w.Mean() != 20*time.Millisecond {
		t.Errorf("mean = %v, want 20ms", w.Mean())
	}
	if s.Counters["n"] != 5 {
		t.Errorf("counter = %d, want 5", s.Counters["n"])
	}
	if s.Gauges["g"] != 2.5 {
		t.Errorf("gauge = %v, want last value 2.5", s.Gauges["g"])
	}
	if s.Progress["rows"] != (Progress{Done: 3, Total: 10}) {
		t.Errorf("progress = %+v", s.Progress["rows"])
	}
	// Ending an unknown span is a no-op.
	c.SpanEnd(9999)
	if c.SpanCount("work") != 2 {
		t.Error("unknown SpanEnd perturbed the summaries")
	}

	var buf bytes.Buffer
	if err := c.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "span work") || !strings.Contains(out, "count n") {
		t.Errorf("summary missing lines:\n%s", out)
	}
}

// TestCollectorConcurrent exercises concurrent emission; the race detector
// in ci.sh turns any unsynchronized access into a failure.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	tw := NewTraceWriter(&bytes.Buffer{})
	o := Tee(c, tw)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := Start(o, "span", Int("i", int64(i)))
				o.Count("ops", 1)
				o.Gauge("last", float64(i))
				o.Progress("work", i, 200)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := c.Counter("ops"); got != 8*200 {
		t.Errorf("ops = %d, want %d", got, 8*200)
	}
	if got := c.SpanCount("span"); got != 8*200 {
		t.Errorf("spans = %d, want %d", got, 8*200)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	sp := Start(tw, "outer", Str("artefact", "fig3"), Int("cells", 40))
	tw.Count("sim.cache.misses", 4)
	tw.Gauge("sim.phase.map.seconds", 12.5)
	tw.Progress("artefacts", 1, 25)
	sp.End()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	byType := map[string]TraceEvent{}
	for _, ev := range events {
		byType[ev.Type] = ev
	}
	span := byType["span"]
	if span.Name != "outer" || span.Attrs["artefact"] != "fig3" || span.Attrs["cells"] != "40" {
		t.Errorf("span event wrong: %+v", span)
	}
	if span.Start == "" {
		t.Error("span missing start timestamp")
	}
	if byType["count"].Delta != 4 || byType["gauge"].Value != 12.5 {
		t.Errorf("count/gauge wrong: %+v %+v", byType["count"], byType["gauge"])
	}
	if byType["progress"].Done != 1 || byType["progress"].Total != 25 {
		t.Errorf("progress wrong: %+v", byType["progress"])
	}
}

// TestTraceZeroValuesSerialized pins the JSONL schema contract: a
// legitimate zero — Gauge(name, 0), Progress(label, 0, total), a
// zero-delta counter — must appear in the record, so trace consumers can
// tell "zero" from "absent".
func TestTraceZeroValuesSerialized(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Gauge("load", 0)
	tw.Progress("rows", 0, 10)
	tw.Count("noop", 0)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	wantKeys := map[string][]string{
		"gauge":    {"value"},
		"count":    {"delta"},
		"progress": {"done", "total"},
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var raw map[string]any
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		typ, _ := raw["type"].(string)
		for _, k := range wantKeys[typ] {
			seen++
			if _, ok := raw[k]; !ok {
				t.Errorf("%s record dropped zero-valued %q: %s", typ, k, line)
			}
		}
	}
	if seen != 4 {
		t.Fatalf("checked %d value-bearing fields, want 4", seen)
	}
	if ev, err := ReadTrace(bytes.NewReader(buf.Bytes())); err != nil || len(ev) != 3 {
		t.Fatalf("round-trip: %d events, err %v", len(ev), err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"type\":\"span\",\"name\":\"a\"}\nnot json\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ReadTrace(strings.NewReader("{\"name\":\"untyped\"}\n")); err == nil {
		t.Error("missing type accepted")
	}
}

func TestTee(t *testing.T) {
	if Tee() != Nop {
		t.Error("empty Tee should be Nop")
	}
	if Tee(nil, Nop) != Nop {
		t.Error("Tee of nil/Nop should be Nop")
	}
	c := NewCollector()
	if Tee(c) != Observer(c) {
		t.Error("single-part Tee should unwrap")
	}
	c2 := NewCollector()
	o := Tee(c, c2)
	sp := Start(o, "x")
	sp.End()
	o.Count("n", 1)
	if c.SpanCount("x") != 1 || c2.SpanCount("x") != 1 {
		t.Error("span not fanned out to both parts")
	}
	if c.Counter("n") != 1 || c2.Counter("n") != 1 {
		t.Error("count not fanned out to both parts")
	}
	// Unknown span end must be ignored.
	o.SpanEnd(424242)
}

func TestPhaseNamesRoundTrip(t *testing.T) {
	for p := Phase(0); p < numPhases; p++ {
		got, ok := ParsePhase(p.String())
		if !ok || got != p {
			t.Errorf("ParsePhase(%q) = %v, %v", p.String(), got, ok)
		}
	}
	for _, k := range []TaskKind{KindJob, KindMap, KindReduce} {
		got, ok := ParseTaskKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseTaskKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParsePhase("no-such-phase"); ok {
		t.Error("unknown phase accepted")
	}
	if _, ok := ParseTaskKind("no-such-kind"); ok {
		t.Error("unknown kind accepted")
	}
	if got := PhaseKey(KindMap, PhaseSort); got != "phase.map.sort" {
		t.Errorf("PhaseKey = %q", got)
	}
}

func TestTraceWriterPhaseRecord(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tw.TaskPhase(PhaseEvent{
		Task:     TaskRef{Job: "wordcount", Kind: KindMap, Index: 0, Worker: "w1", Epoch: 2},
		Phase:    PhaseSort,
		Start:    start,
		Duration: 15 * time.Millisecond,
	})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Type != "phase" || ev.Name != "sort" || ev.Job != "wordcount" ||
		ev.TaskKind != "map" || ev.Task != 0 || ev.Worker != "w1" || ev.Epoch != 2 ||
		ev.DurationNS != (15*time.Millisecond).Nanoseconds() {
		t.Errorf("phase event wrong: %+v", ev)
	}
	if ev.Start == "" {
		t.Error("phase event missing start timestamp")
	}
}

// TestPhaseZeroValuesSerialized extends the zero-value contract to phase
// identity: task index 0 and epoch 0 must appear on the wire, so replayers
// can tell task 0 from an unattributed event.
func TestPhaseZeroValuesSerialized(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.TaskPhase(PhaseEvent{Task: TaskRef{Job: "j", Kind: KindMap}, Phase: PhaseMap})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"task", "epoch", "duration_ns"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("phase record dropped zero-valued %q: %s", k, buf.String())
		}
	}
}

func TestCollectorPhasesAndHistograms(t *testing.T) {
	c := NewCollector()
	ref := TaskRef{Job: "j", Kind: KindMap, Index: 3}
	c.TaskPhase(PhaseEvent{Task: ref, Phase: PhaseMap, Duration: 3 * time.Millisecond})
	c.TaskPhase(PhaseEvent{Task: ref, Phase: PhaseMap, Duration: 5 * time.Millisecond})
	c.TaskPhase(PhaseEvent{Task: ref, Phase: PhaseSort, Duration: time.Millisecond})

	s := c.Snapshot()
	m := s.Spans["phase.map.map"]
	if m.Count != 2 || m.Total != 8*time.Millisecond || m.Min != 3*time.Millisecond || m.Max != 5*time.Millisecond {
		t.Errorf("phase.map.map summary wrong: %+v", m)
	}
	if s.Spans["phase.map.sort"].Count != 1 {
		t.Errorf("phase.map.sort summary missing: %+v", s.Spans)
	}
	h := s.Hists["phase.map.map"]
	if h.Total() != 2 || h.Sum != 8*time.Millisecond {
		t.Errorf("phase histogram wrong: total=%d sum=%v", h.Total(), h.Sum)
	}
	// Spans feed histograms too.
	now := time.Unix(0, 0)
	c.clock = func() time.Time { return now }
	id := c.SpanStart("work", nil)
	now = now.Add(2 * time.Microsecond)
	c.SpanEnd(id)
	if got := c.Snapshot().Hists["work"]; got.Total() != 1 || got.Counts[1] != 1 {
		t.Errorf("span histogram wrong: %+v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Hour, HistBuckets - 1},
	}
	for _, tc := range cases {
		if got := histBucket(tc.d); got != tc.want {
			t.Errorf("histBucket(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	if b, ok := HistBound(0); !ok || b != time.Microsecond {
		t.Errorf("HistBound(0) = %v, %v", b, ok)
	}
	if _, ok := HistBound(HistBuckets - 1); ok {
		t.Error("overflow bucket must be unbounded")
	}
	var h Histogram
	h.observe(3 * time.Microsecond)
	h.observe(3 * time.Microsecond)
	h.observe(100 * time.Hour)
	if h.Total() != 3 || h.Counts[histBucket(3*time.Microsecond)] != 2 || h.Counts[HistBuckets-1] != 1 {
		t.Errorf("histogram counts = %v, want two in the 4µs bucket and one overflow", h.Counts)
	}
}

func TestTeeForwardsPhases(t *testing.T) {
	c1, c2 := NewCollector(), NewCollector()
	o := Tee(c1, c2, NewProgressPrinter(&bytes.Buffer{}))
	EmitPhase(o, PhaseEvent{Task: TaskRef{Kind: KindReduce}, Phase: PhaseReduce, Duration: time.Millisecond})
	if c1.SpanCount("phase.reduce.reduce") != 1 || c2.SpanCount("phase.reduce.reduce") != 1 {
		t.Error("phase not fanned out to both collectors")
	}
	// EmitPhase to a non-PhaseObserver must be a silent no-op.
	EmitPhase(Nop, PhaseEvent{Phase: PhaseMap})
	EmitPhase(NewProgressPrinter(&bytes.Buffer{}), PhaseEvent{Phase: PhaseMap})
}

func TestProgressPrinter(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressPrinter(&buf)
	sp := Start(p, "ignored")
	sp.End()
	p.Count("ignored", 1)
	p.Gauge("ignored", 1)
	p.Progress("artefacts", 2, 25)
	if got := buf.String(); got != "artefacts 2/25\n" {
		t.Errorf("progress output = %q", got)
	}
}

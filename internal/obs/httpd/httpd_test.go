package httpd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heterohadoop/internal/obs"
)

// seededCollector returns a collector with one of everything the renderer
// handles: counter, gauge, progress, a span and a phase histogram.
func seededCollector() *obs.Collector {
	c := obs.NewCollector()
	c.Count("dist.rpc.get_task", 41)
	c.Count("dist.rpc.get_task", 1)
	c.Gauge("engine.parallelism", 4)
	c.Progress("dist.map", 3, 8)
	c.Progress("dist.reduce/job-2", 1, 4)
	sp := obs.Start(c, "dist.task")
	sp.End()
	c.TaskPhase(obs.PhaseEvent{
		Task:     obs.TaskRef{Job: "wc", Kind: obs.KindMap, Index: 2, Worker: "w1", Epoch: 1},
		Phase:    obs.PhaseSort,
		Start:    time.Now(),
		Duration: 3 * time.Millisecond,
	})
	return c
}

func TestMetricsExposition(t *testing.T) {
	srv := httptest.NewServer(New(seededCollector()).Handler())
	defer srv.Close()
	body := get(t, srv.URL+"/metrics")

	for _, want := range []string{
		"# TYPE hh_dist_rpc_get_task_total counter\nhh_dist_rpc_get_task_total 42\n",
		"# TYPE hh_engine_parallelism gauge\nhh_engine_parallelism 4\n",
		`hh_progress_done{label="dist.map"} 3`,
		`hh_progress_total{label="dist.map"} 8`,
		`hh_progress_done{label="dist.reduce",job="job-2"} 1`,
		`hh_progress_total{label="dist.reduce",job="job-2"} 4`,
		"# TYPE hh_dist_task_seconds histogram",
		"# TYPE hh_phase_map_sort_seconds histogram",
		"hh_phase_map_sort_seconds_count 1",
		`_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	c := obs.NewCollector()
	ref := obs.TaskRef{Job: "wc", Kind: obs.KindReduce}
	for _, d := range []time.Duration{500 * time.Nanosecond, 2 * time.Millisecond, time.Hour} {
		c.TaskPhase(obs.PhaseEvent{Task: ref, Phase: obs.PhaseReduce, Duration: d})
	}
	srv := httptest.NewServer(New(c).Handler())
	defer srv.Close()
	body := get(t, srv.URL+"/metrics")
	// The smallest bucket (1µs) holds the 500ns observation; +Inf holds all
	// three. Cumulative counts must never decrease down the bucket list.
	if !strings.Contains(body, "hh_phase_reduce_reduce_seconds_bucket{le=\"1e-06\"} 1") {
		t.Errorf("first bucket not cumulative-1:\n%s", body)
	}
	if !strings.Contains(body, "hh_phase_reduce_reduce_seconds_bucket{le=\"+Inf\"} 3") {
		t.Errorf("+Inf bucket not 3:\n%s", body)
	}
	if !strings.Contains(body, "hh_phase_reduce_reduce_seconds_count 3") {
		t.Errorf("count not 3:\n%s", body)
	}
}

func TestStatusEndpoints(t *testing.T) {
	type job struct {
		State string `json:"state"`
		Phase string `json:"phase"`
	}
	srv := httptest.NewServer(New(obs.NewCollector(),
		WithJobStatus(func() any { return job{State: "running", Phase: "map"} }),
		WithTaskStatus(func(jobID string) any {
			if jobID != "" {
				return []string{jobID + "/map-0"}
			}
			return []string{"map-0"}
		}),
	).Handler())
	defer srv.Close()

	var j job
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/jobs")), &j); err != nil {
		t.Fatal(err)
	}
	if j.State != "running" || j.Phase != "map" {
		t.Errorf("/jobs = %+v", j)
	}
	var tasks []string
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tasks")), &tasks); err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0] != "map-0" {
		t.Errorf("/tasks = %v", tasks)
	}
	// The ?job= filter must reach the injected function.
	tasks = nil
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/tasks?job=job-7")), &tasks); err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0] != "job-7/map-0" {
		t.Errorf("/tasks?job=job-7 = %v", tasks)
	}
}

func TestStatusEndpointsWithoutInjection(t *testing.T) {
	srv := httptest.NewServer(New(obs.NewCollector()).Handler())
	defer srv.Close()
	if got := strings.TrimSpace(get(t, srv.URL+"/jobs")); got != "[]" {
		t.Errorf("/jobs without injection = %q, want []", got)
	}
	if got := strings.TrimSpace(get(t, srv.URL+"/tasks")); got != "[]" {
		t.Errorf("/tasks without injection = %q, want []", got)
	}
}

func TestPprofAndIndexServed(t *testing.T) {
	srv := httptest.NewServer(New(obs.NewCollector()).Handler())
	defer srv.Close()
	if body := get(t, srv.URL+"/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline empty")
	}
	if body := get(t, srv.URL+"/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index does not list endpoints: %q", body)
	}
}

func TestServeBindsEphemeralPort(t *testing.T) {
	s := New(seededCollector())
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := get(t, "http://"+addr.String()+"/metrics")
	if !strings.Contains(body, "hh_dist_rpc_get_task_total 42") {
		t.Errorf("live server metrics missing counter:\n%s", body)
	}
}

// wattModel is a fixed-power test model (joules = watts x wall seconds).
type wattModel struct {
	watts float64
	class string
}

func (m wattModel) PhaseJoules(ev obs.PhaseEvent) float64 { return m.watts * ev.Duration.Seconds() }
func (m wattModel) ClassName() string                     { return m.class }

func TestEnergyMetricsExposition(t *testing.T) {
	c := obs.NewCollector()
	c.SetEnergyModel(wattModel{watts: 10, class: "little"})
	t0 := time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)
	c.TaskPhase(obs.PhaseEvent{
		Task: obs.TaskRef{Job: "wc", Kind: obs.KindMap}, Phase: obs.PhaseMap,
		Start: t0, Duration: 2 * time.Second,
	})
	c.TaskPhase(obs.PhaseEvent{
		Task: obs.TaskRef{Job: "wc", Kind: obs.KindReduce, Class: "big"}, Phase: obs.PhaseReduce,
		Start: t0.Add(2 * time.Second), Duration: time.Second,
	})
	srv := httptest.NewServer(New(c).Handler())
	defer srv.Close()
	body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"# TYPE hh_energy_joules counter",
		`hh_energy_joules{job="wc",phase="map",class="little"} 20`,
		`hh_energy_joules{job="wc",phase="reduce",class="big"} 10`,
		"# TYPE hh_edp gauge",
		`hh_edp{job="wc"} 90`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestEnergySeriesAbsentWithoutModel pins the compatibility contract: a
// collector with no energy model renders a /metrics page with no energy
// series at all.
func TestEnergySeriesAbsentWithoutModel(t *testing.T) {
	srv := httptest.NewServer(New(seededCollector()).Handler())
	defer srv.Close()
	body := get(t, srv.URL+"/metrics")
	if strings.Contains(body, "hh_energy_joules") || strings.Contains(body, "hh_edp") {
		t.Errorf("/metrics exports energy series without a model:\n%s", body)
	}
}

// TestHostileLabelValues feeds job names containing every character the
// exposition format escapes — backslash, double quote, newline — through
// both labelled series families (progress and energy) and checks each is
// escaped exactly once. A renderer that wraps the escaped value in %q
// double-escapes the backslashes and fails here.
func TestHostileLabelValues(t *testing.T) {
	hostile := "job\\with\"quotes\nand newline"
	c := obs.NewCollector()
	c.SetEnergyModel(wattModel{watts: 1, class: "big"})
	c.Progress("dist.map/"+hostile, 1, 2)
	c.TaskPhase(obs.PhaseEvent{
		Task: obs.TaskRef{Job: hostile, Kind: obs.KindMap}, Phase: obs.PhaseMap,
		Duration: time.Second,
	})
	srv := httptest.NewServer(New(c).Handler())
	defer srv.Close()
	body := get(t, srv.URL+"/metrics")

	escaped := `job\\with\"quotes\nand newline`
	for _, want := range []string{
		`hh_progress_done{label="dist.map",job="` + escaped + `"} 1`,
		`hh_energy_joules{job="` + escaped + `",phase="map",class="big"} 1`,
		`hh_edp{job="` + escaped + `"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing singly-escaped %q in:\n%s", want, body)
		}
	}
	if strings.Contains(body, `\\\\`) || strings.Contains(body, `\\\"`) {
		t.Errorf("label values double-escaped:\n%s", body)
	}
	// A raw newline inside a label value would split the line and corrupt
	// the exposition; every occurrence must be the two-byte escape.
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, "and newline") && !strings.Contains(line, `\nand newline`) {
			t.Errorf("raw newline leaked into exposition line %q", line)
		}
	}
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"dist.tasks.speculative": "dist_tasks_speculative",
		"phase.map.merge-fetch":  "phase_map_merge_fetch",
		"a..b--c":                "a_b_c",
		"9lives":                 "_9lives",
		"":                       "unnamed",
	} {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

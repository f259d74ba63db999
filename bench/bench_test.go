package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testOptions(t *testing.T, seconds float64) options {
	return options{seed: 7, seconds: seconds, divisor: tinyDivisor, scratch: t.TempDir(), procs: 2}
}

// checkReport holds a run's report to the declared metric list.
func checkReport(t *testing.T, rep report, declared []decl) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a clean run", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(declared) {
		t.Errorf("%d metrics emitted, %d declared", len(rep.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			t.Errorf("declared metric %s not emitted", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: unit %q emitted, %q declared", d.Name, m.Unit, d.Unit)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q breaks the naming rule", d.Name)
		}
	}
}

// TestEveryWorkloadTiny runs each workload end to end and layer by layer at
// 1/256 scale: every output must verify against the reference, the staged
// pass included, and the emitted names must be the declared ones.
func TestEveryWorkloadTiny(t *testing.T) {
	for _, s := range specs {
		s := s.scaled(tinyDivisor)
		t.Run(s.name, func(t *testing.T) {
			if !nameRE.MatchString(s.name) {
				t.Errorf("workload name %q breaks the naming rule", s.name)
			}
			rep, err := runEndToEnd(s, testOptions(t, 0.05))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEndMetrics)
			for _, d := range endToEndMetrics {
				if rep.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics are never 0", d.Name, rep.Metrics[d.Name].Value)
				}
			}

			opt := testOptions(t, 0.1)
			rep, err = runLayers(s, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayerMetrics)
			spills := rep.Metrics["mapreduce.spills"].Value
			if (s.kind == onEngineOOC) != (spills > 0) {
				t.Errorf("mapreduce.spills = %v on %s", spills, s.name)
			}
			if wire := rep.Metrics["mapreduce.wire_mb"].Value; (s.kind == onCluster) != (wire > 0) {
				t.Errorf("mapreduce.wire_mb = %v on %s", wire, s.name)
			}
			if _, err := os.Stat(opt.scratch + "/layers-" + s.name + ".jsonl"); err != nil {
				t.Error(err)
			}
			left, _ := os.ReadDir(opt.scratch)
			if len(left) != 1 {
				t.Errorf("run left %d entries in its scratch directory, want only the span file", len(left))
			}
		})
	}
}

// TestManifest holds BENCHMARK.json to the declarations in this package and
// to the limits the acceptance driver sets.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	if n := len(mf.Workloads); n < 2 || n > 8 || n != len(specs) {
		t.Fatalf("%d workloads in the manifest, %d specs", n, len(specs))
	}
	for i, w := range mf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest has %q / %q, spec has %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []decl, max int) {
		if len(got) != len(want) || len(got) > max {
			t.Fatalf("%s: %d in the manifest, %d declared, at most %d allowed", kind, len(got), len(want), max)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: manifest %+v, declared %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", mf.EndToEnd, endToEndMetrics, 16)
	same("per_layer", mf.PerLayer, perLayerMetrics, 128)
	seen := map[string]bool{}
	for _, d := range append(append([]decl{}, endToEndMetrics...), perLayerMetrics...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEndMetrics {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", mf.RunSeconds)
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "bench" {
		t.Errorf("paths = %v", mf.Paths)
	}
}

// TestDigest pins what the oracle's digest must and must not tell apart.
func TestDigest(t *testing.T) {
	lines := "b\t2\na\t1\nc\n"
	var whole, chunked, reordered, changed digest
	whole.Write([]byte(lines))
	for i := 0; i < len(lines); i++ {
		chunked.Write([]byte(lines[i : i+1]))
	}
	reordered.add([]byte("a"), []byte("1"))
	reordered.add([]byte("b"), []byte("2"))
	reordered.add([]byte("c"), nil)
	changed.Write([]byte("b\t2\na\t2\nc\n"))
	if whole.sum() != chunked.sum() || whole.descents != chunked.descents {
		t.Error("digest depends on how the output was chunked")
	}
	if whole.sum() != reordered.sum() {
		t.Error("digest depends on record order")
	}
	if whole.sum() == changed.sum() {
		t.Error("digest misses a changed value")
	}
	if whole.descents != 1 || reordered.descents != 0 {
		t.Errorf("descents = %d and %d, want 1 and 0", whole.descents, reordered.descents)
	}
	want := expectation{sum: reordered.sum(), records: 3}
	if err := want.check(&reordered); err != nil {
		t.Error(err)
	}
	if err := want.check(&whole); err == nil {
		t.Error("an output that steps backwards passed a sort's expectation")
	}
}

// TestVerdict pins the three outcomes of a comparison row.
func TestVerdict(t *testing.T) {
	row := func(better string, vals ...float64) endToEndResult {
		return endToEndResult{decl: decl{Name: "m", Better: better, Bound: 0.10}, Values: vals, summary: summarize(vals)}
	}
	base := row("lower", 1.00, 1.01, 0.99, 1.00)
	for _, c := range []struct {
		name string
		b    endToEndResult
		want string
	}{
		{"same", row("lower", 1.02, 1.00, 1.01, 1.00), "ok"},
		{"slower", row("lower", 1.20, 1.21, 1.19, 1.20), "worse"},
		{"noisy", row("lower", 0.7, 1.4, 1.0, 1.1), "unresolved"},
		{"noisy but every run faster", row("lower", 0.5, 0.9, 0.6, 0.8), "ok"},
	} {
		if got := verdict(base, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := verdict(row("higher", 100, 101, 99, 100), row("higher", 80, 81, 79, 80)); got != "worse" {
		t.Errorf("throughput drop: verdict %q, want worse", got)
	}
}

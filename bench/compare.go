package main

// compare.go sets two result files side by side, one row per (workload,
// end-to-end metric): the repeatability check for two recordings of one
// commit, and the no-regression check for a parent and a change.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (resultFile, error) {
	var r resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges B against its base A. A metric is worse when B's median is
// on the wrong side of A's by more than the bound. When either side's
// interquartile spread is wider than the bound the medians cannot resolve a
// difference of that size: the row is unresolved, unless every value of B is
// better than every value of A.
func verdict(a, b endToEndResult) string {
	lower := a.Better == "lower"
	worseBy := (b.Median - a.Median) / a.Median
	if !lower {
		worseBy = -worseBy
	}
	noisy := a.spread() > a.Bound || b.spread() > a.Bound
	if noisy {
		if (lower && b.Max < a.Min) || (!lower && b.Min > a.Max) {
			return "ok"
		}
		return "unresolved"
	}
	if worseBy > a.Bound {
		return "worse"
	}
	return "ok"
}

// compareFiles prints the comparison and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	fmt.Fprintf(w, "A = %s (commit %.12s, %d CPU)   B = %s (commit %.12s, %d CPU)\n",
		pathA, a.Env.GitCommit, a.Env.NumCPU, pathB, b.Env.GitCommit, b.Env.NumCPU)
	fmt.Fprintf(w, "%-18s %-12s %-5s %11s %22s %11s %22s %9s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "B/A", "bound", "verdict")
	anyWorse := false
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-18s missing from B\n", wa.Name)
			anyWorse = true
			continue
		}
		for _, d := range endToEndMetrics {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if ma.N == 0 || mb.N == 0 {
				continue
			}
			v := verdict(ma, mb)
			if v == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-18s %-12s %-5s %11.5g %10.5g..%-10.5g %11.5g %10.5g..%-10.5g %9.4f %5.0f%%  %s\n",
				wa.Name, d.Name, d.Unit, ma.Median, ma.Q1, ma.Q3, mb.Median, mb.Q1, mb.Q3,
				mb.Median/ma.Median, 100*ma.Bound, v)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-18s failed operations rose from %d to %d\n", wa.Name, wa.Failed, wb.Failed)
			anyWorse = true
		}
	}
	return anyWorse, nil
}

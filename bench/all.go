package main

// all.go is the one command that runs every workload: it plays the
// acceptance driver's part, starting one child process per (round, workload)
// so peak RSS and heap state belong to a single workload, interleaving the
// rounds so machine drift spreads over all workloads, and writing every
// value it saw to one result file.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env stamps where and how a result file was recorded.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Scale      int     `json:"scale_divisor"`
	Recorded   string  `json:"recorded"`
}

// endToEndResult is one end-to-end metric of one workload over the rounds.
type endToEndResult struct {
	decl
	Values []float64 `json:"values"` // one per round, each what that run reported
	summary
}

// workloadResult is everything recorded about one workload.
type workloadResult struct {
	Name        string                    `json:"name"`
	Why         string                    `json:"why"`
	InputBytes  int                       `json:"input_bytes"`
	BlockBytes  int                       `json:"block_bytes"`
	Reducers    int                       `json:"reducers"`
	Clients     int                       `json:"clients"`
	Workers     int                       `json:"workers"`
	Attempted   int                       `json:"attempted"`
	Failed      int                       `json:"failed"`
	FailedRatio float64                   `json:"failed_ratio"`
	EndToEnd    map[string]endToEndResult `json:"end_to_end"`
	PerLayer    map[string]metric         `json:"per_layer,omitempty"`
}

type resultFile struct {
	Env       env              `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// runChild runs one workload in a child process and parses its last line.
func runChild(exe string, s spec, opt options, seed int64, trace int) (report, error) {
	scale := "full"
	if opt.divisor > 1 {
		scale = "tiny"
	}
	cmd := exec.Command(exe,
		"--workload", s.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(opt.seconds),
		"--trace", fmt.Sprint(trace), "-scale", scale, "-scratch", opt.scratch)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%s (trace %d): %w", s.name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("%s: unreadable result line: %w", s.name, err)
	}
	return rep, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload for the given rounds (round r with seed+r, as
// the driver varies seeds between runs), optionally one traced run each,
// prints every metric by name and unit, and writes the result file.
func runAll(opt options, rounds int, layers bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := resultFile{Env: env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: opt.procs, GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, GitCommit: gitCommit(),
		Seed: opt.seed, Seconds: opt.seconds, Rounds: rounds, Scale: opt.divisor,
		Recorded: time.Now().UTC().Format(time.RFC3339),
	}}
	for _, s := range specs {
		s = s.scaled(opt.divisor)
		res.Workloads = append(res.Workloads, workloadResult{
			Name: s.name, Why: s.why, InputBytes: s.inputBytes, BlockBytes: s.blockBytes,
			Reducers: s.reducers, Clients: s.clients, Workers: opt.procs,
			EndToEnd: map[string]endToEndResult{},
		})
	}

	for r := 0; r < rounds; r++ {
		for i, s := range specs {
			rep, err := runChild(exe, s, opt, opt.seed+int64(r), 0)
			if err != nil {
				return err
			}
			w := &res.Workloads[i]
			w.Attempted += rep.Attempted
			w.Failed += rep.Failed
			for _, d := range endToEndMetrics {
				e := w.EndToEnd[d.Name]
				e.decl = d
				e.Values = append(e.Values, rep.Metrics[d.Name].Value)
				w.EndToEnd[d.Name] = e
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %-18s job_s %.4f\n", r+1, rounds, s.name, rep.Metrics["job_s"].Value)
		}
	}
	if layers {
		var spans bytes.Buffer
		for i, s := range specs {
			rep, err := runChild(exe, s, opt, opt.seed, 1)
			if err != nil {
				return err
			}
			w := &res.Workloads[i]
			w.Attempted += rep.Attempted
			w.Failed += rep.Failed
			w.PerLayer = rep.Metrics
			part := filepath.Join(opt.scratch, "layers-"+s.name+".jsonl")
			b, err := os.ReadFile(part)
			if err != nil {
				return err
			}
			spans.Write(b)
			os.Remove(part)
		}
		path := filepath.Join(filepath.Dir(out), "layers.jsonl")
		if err := os.WriteFile(path, spans.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}

	failed := 0
	for i := range res.Workloads {
		w := &res.Workloads[i]
		for name, e := range w.EndToEnd {
			e.summary = summarize(e.Values)
			w.EndToEnd[name] = e
		}
		if w.Attempted > 0 {
			w.FailedRatio = float64(w.Failed) / float64(w.Attempted)
		}
		failed += w.Failed
	}
	printResult(res)
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "result written to", out)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// printResult prints every metric by name with its unit: the end-to-end
// table with the spread between rounds, then the per-layer columns.
func printResult(res resultFile) {
	e := res.Env
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s  %s  commit %.12s  seed %d  %g s x %d rounds\n\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.OSArch, e.GitCommit, e.Seed, e.Seconds, e.Rounds)
	fmt.Printf("%-18s %-12s %-5s %12s %12s %12s %12s %12s %8s %6s\n",
		"workload", "metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound")
	for _, w := range res.Workloads {
		for _, d := range endToEndMetrics {
			m := w.EndToEnd[d.Name]
			fmt.Printf("%-18s %-12s %-5s %12.5g %12.5g %12.5g %12.5g %12.5g %7.1f%% %5.0f%%\n",
				w.Name, d.Name, d.Unit, m.Median, m.Q1, m.Q3, m.Min, m.Max, 100*m.spread(), 100*d.Bound)
		}
		fmt.Printf("%-18s %-12s %-5s %12g   (%d of %d operations failed)\n",
			w.Name, "failed_ratio", "ratio", w.FailedRatio, w.Failed, w.Attempted)
	}
	if res.Workloads[0].PerLayer == nil {
		return
	}
	fmt.Printf("\n%-32s %-6s", "per-layer metric", "unit")
	for _, w := range res.Workloads {
		fmt.Printf(" %16s", w.Name)
	}
	fmt.Println()
	for _, d := range perLayerMetrics {
		fmt.Printf("%-32s %-6s", d.Name, d.Unit)
		for _, w := range res.Workloads {
			fmt.Printf(" %16.5g", w.PerLayer[d.Name].Value)
		}
		fmt.Println()
	}
}

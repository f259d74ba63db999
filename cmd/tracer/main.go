// Command tracer analyses a JSONL observability trace (cmd/hadoopd -trace,
// cmd/hadoopsim -real -trace, cmd/experiments -trace) offline. By default it
// replays the trace's phase events into per-run timelines and prints, for
// every (job, epoch) run: the per-phase breakdown, the paper's four-way
// map/sort/shuffle/reduce split, the job critical path, and any straggler
// tasks. Replay is lenient — malformed lines are counted and skipped, never
// fatal — so a trace truncated by a crash still analyses.
//
// Usage:
//
//	tracer trace.jsonl                  # breakdown + paper split + critical path
//	tracer -gantt -width 100 trace.jsonl
//	tracer -json trace.jsonl            # machine-readable reports
//	tracer -straggler 2 trace.jsonl     # flag tasks busy > 2x the kind median
//
// With -check the command is a strict validator instead (absorbing the old
// tracecheck gate): every line must decode as an obs.TraceEvent and at
// least one span must be present; -artefacts additionally requires an
// "expt.artefact" span per listed id — the CI gate over cmd/experiments.
//
//	tracer -check -artefacts table3,fig9 trace.jsonl
//
// With -energy each run's spans are mapped through the per-class power
// models (internal/obs/energy) into estimated joules: per-job EDP, the
// four-way map/sort/shuffle/reduce energy split, and — when the trace
// mixes core classes — a big-vs-little comparison table.
//
//	tracer -energy trace.jsonl
//	tracer -energy -default-class little trace.jsonl   # untagged rows
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"heterohadoop/internal/obs"
	"heterohadoop/internal/obs/energy"
	"heterohadoop/internal/obs/timeline"
)

func main() {
	var (
		gantt      = flag.Bool("gantt", false, "also render an ASCII Gantt chart per run")
		width      = flag.Int("width", 80, "Gantt chart width in columns")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON reports instead of text")
		stragglerK = flag.Float64("straggler", 1.5, "straggler threshold: busy time > k x same-kind median")
		check      = flag.Bool("check", false, "strict validation mode: every line must decode, spans must exist")
		artefacts  = flag.String("artefacts", "", "with -check: comma-separated artefact ids that must have expt.artefact spans")
		energyRpt  = flag.Bool("energy", false, "estimate per-run energy and EDP from the per-class power models")
		defClass   = flag.String("default-class", "", "with -energy: core class assumed for rows with no class tag (big|little|profile.json)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracer [flags] trace.jsonl")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	if *check {
		if err := checkTrace(f, *artefacts); err != nil {
			fatal(err)
		}
		return
	}

	tr, err := timeline.Replay(f)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if err := tr.WriteJSON(os.Stdout, *stragglerK); err != nil {
			fatal(err)
		}
		return
	}
	if tr.Skipped > 0 {
		fmt.Printf("tracer: skipped %d malformed of %d lines\n", tr.Skipped, tr.Lines)
	}
	if len(tr.Runs) == 0 {
		fmt.Printf("tracer: no phase events in %d lines (trace predates phase telemetry, or the run had no observer)\n", tr.Lines)
		return
	}
	w := os.Stdout
	if *energyRpt {
		// One resolver for the whole trace: profiles are loaded once per
		// class name, unknown classes resolve to nil (counted per run as
		// unattributed rather than mis-modelled).
		resolve := profileResolver()
		var energies []timeline.RunEnergy
		for _, run := range tr.Runs {
			re := run.Energy(resolve, *defClass)
			re.WriteEnergy(w)
			energies = append(energies, re)
		}
		timeline.WriteClassComparison(w, energies)
		return
	}
	for _, run := range tr.Runs {
		run.WriteBreakdown(w)
		run.WritePaperSplit(w)
		run.WriteCriticalPath(w)
		run.WriteStragglers(w, *stragglerK)
		if *gantt {
			run.WriteGantt(w, *width)
		}
	}
}

// profileResolver maps class names to power models, caching each profile
// after the first load. A class Select cannot resolve (neither built-in
// nor a readable JSON profile) maps to nil — timeline counts those
// intervals as unattributed instead of guessing a model.
func profileResolver() timeline.ModelResolver {
	cache := map[string]obs.EnergyModel{}
	return func(class string) obs.EnergyModel {
		if m, ok := cache[class]; ok {
			return m
		}
		var m obs.EnergyModel
		if class != "" {
			if p, err := energy.Select(class); err == nil {
				m = p
			}
		}
		cache[class] = m
		return m
	}
}

// checkTrace is the strict gate the old tracecheck command implemented:
// the whole file must decode (obs.ReadTrace fails on any bad line), at
// least one span must be present, and each listed artefact id must be
// covered by an expt.artefact span.
func checkTrace(f *os.File, artefacts string) error {
	events, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	spans := 0
	seen := map[string]bool{}
	for _, ev := range events {
		if ev.Type != "span" {
			continue
		}
		spans++
		if ev.Name == "expt.artefact" {
			seen[ev.Attrs["id"]] = true
		}
	}
	if spans == 0 {
		return fmt.Errorf("tracer: no span events in trace")
	}
	if artefacts != "" {
		var missing []string
		for _, id := range strings.Split(artefacts, ",") {
			id = strings.TrimSpace(id)
			if id != "" && !seen[id] {
				missing = append(missing, id)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("tracer: missing expt.artefact spans for: %s", strings.Join(missing, ", "))
		}
	}
	fmt.Printf("tracer: %d events, %d spans ok\n", len(events), spans)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

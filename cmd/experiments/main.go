// Command experiments regenerates the paper's tables and figures from the
// calibrated models.
//
// Usage:
//
//	experiments                      # regenerate everything, in the paper's order
//	experiments -list                # list artefact ids
//	experiments -only fig3,table3
//	experiments -format csv -outdir results/   # one CSV per artefact
//	experiments -v                   # report span and counter summaries on stderr
//	experiments -trace run.jsonl     # stream a JSONL span/counter trace
//	experiments -progress            # live artefact progress on stderr
//
// Interrupting the run (SIGINT/SIGTERM) cancels the evaluation at the next
// simulation and the partial trace is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"heterohadoop/internal/expt"
	"heterohadoop/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list artefact ids and exit")
	only := flag.String("only", "", "comma-separated artefact ids to regenerate (default: all)")
	format := flag.String("format", "text", "output format: text|csv|md")
	outdir := flag.String("outdir", "", "write one file per artefact into this directory (default stdout)")
	chart := flag.String("chart", "", "render this column as an ASCII bar chart instead of a table")
	verbose := flag.Bool("v", false, "print span and counter summaries to stderr")
	trace := flag.String("trace", "", "stream a JSONL observability trace to this file")
	progress := flag.Bool("progress", false, "print artefact completion progress to stderr")
	flag.Parse()

	if *list {
		for _, g := range expt.All() {
			fmt.Printf("%-8s %s\n", g.ID, g.Name)
		}
		return
	}

	gens, err := selectGenerators(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *format != "text" && *format != "csv" && *format != "md" {
		fmt.Fprintf(os.Stderr, "unknown format %q (text|csv|md)\n", *format)
		os.Exit(2)
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Assemble the observer stack: -v aggregates in memory, -trace streams
	// JSONL, -progress prints completion lines. With none of them the
	// evaluation runs on the allocation-free no-op path.
	var parts []obs.Observer
	var collector *obs.Collector
	if *verbose {
		collector = obs.NewCollector()
		parts = append(parts, collector)
	}
	var tw *obs.TraceWriter
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		tw = obs.NewTraceWriter(f)
		parts = append(parts, tw)
	}
	if *progress {
		parts = append(parts, obs.NewProgressPrinter(os.Stderr))
	}
	ob := obs.Tee(parts...)
	ctx = obs.NewContext(ctx, ob)

	tables, err := generate(ctx, ob, gens)
	// Flush whatever was traced, even on failure or interrupt (os.Exit
	// below would skip a defer).
	if tw != nil {
		if cerr := tw.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, tbl := range tables {
		if err := render(tbl, *format, *outdir, *chart); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *verbose {
		if err := collector.WriteSummary(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}

// generate runs the generators in order, reporting progress, and stops at
// the first failure. Every table is generated before any is rendered, so a
// failure prints nothing to stdout.
func generate(ctx context.Context, ob obs.Observer, gens []expt.Generator) ([]expt.Table, error) {
	if ob.Enabled() {
		ob.Progress("artefacts", 0, len(gens))
	}
	tables := make([]expt.Table, 0, len(gens))
	for i, g := range gens {
		tbl, err := g.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", g.ID, err)
		}
		tables = append(tables, tbl)
		if ob.Enabled() {
			ob.Progress("artefacts", i+1, len(gens))
		}
	}
	return tables, nil
}

// selectGenerators resolves -only to an ordered generator list, rejecting
// every unknown id upfront — before any artefact is generated — with a
// message listing the valid ids.
func selectGenerators(only string) ([]expt.Generator, error) {
	if only == "" {
		return expt.All(), nil
	}
	var gens []expt.Generator
	var unknown []string
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		g, err := expt.ByID(id)
		if err != nil {
			unknown = append(unknown, id)
			continue
		}
		gens = append(gens, g)
	}
	if len(unknown) > 0 {
		var valid []string
		for _, g := range expt.All() {
			valid = append(valid, g.ID)
		}
		sort.Strings(valid)
		return nil, fmt.Errorf("unknown artefact id(s): %s\nvalid ids: %s",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("-only selected no artefacts")
	}
	return gens, nil
}

// render writes one table to stdout or its per-artefact file.
func render(tbl expt.Table, format, outdir, chart string) error {
	var w io.Writer = os.Stdout
	if outdir != "" {
		ext := ".txt"
		switch format {
		case "csv":
			ext = ".csv"
		case "md":
			ext = ".md"
		}
		f, err := os.Create(filepath.Join(outdir, tbl.ID+ext))
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch {
	case chart != "":
		return tbl.RenderBars(w, chart, 48)
	case format == "csv":
		return tbl.WriteCSV(w)
	case format == "md":
		return tbl.WriteMarkdown(w)
	default:
		return tbl.Fprint(w)
	}
}

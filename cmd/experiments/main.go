// Command experiments regenerates the tables and figures of the paper's
// evaluation section, one table per entry of experiments.Runners.
//
// Usage:
//
//	experiments [-rows N] [-seed S] [-workers W] [-run fig11,fig12a,...|all]
//
// Each experiment prints a paper-style table to stdout. Sweep points run
// concurrently on W workers (0 = all cores) with deterministic output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	rows := flag.Int("rows", 20000, "synthetic data set size (the paper uses ~20000)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	run := flag.String("run", "all", "comma-separated experiment names, or 'all': "+names())
	workers := flag.Int("workers", 0, "worker goroutines per experiment (0 = all cores, 1 = sequential); results are identical either way")
	flag.Parse()

	selected := map[string]bool{}
	for _, n := range strings.Split(*run, ",") {
		selected[strings.TrimSpace(n)] = true
	}
	cfg := experiments.Config{Rows: *rows, Seed: *seed, Workers: *workers}

	ran := 0
	for _, r := range experiments.Runners {
		if !selected["all"] && !selected[r.Name] {
			continue
		}
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.Name, err)
			os.Exit(1)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: rendering %s: %v\n", r.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", r.Name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing selected; known: %s\n", names())
		os.Exit(2)
	}
}

func names() string {
	out := make([]string, len(experiments.Runners))
	for i, r := range experiments.Runners {
		out[i] = r.Name
	}
	return strings.Join(out, ",")
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all                 # everything, 1:128 scale
//	experiments -run fig4 -scale 64      # one figure, closer to full size
//	experiments -run fig2 -quick         # trimmed sweeps
//	experiments -run all -out results/   # also write CSV files
//	experiments -run all -parallel 1     # sequential (identical output)
//
// Each experiment prints an ASCII rendition of its figures to stdout and,
// with -out, writes one CSV per figure for external plotting.
//
// Every experiment's simulation points run on a bounded worker pool
// (-parallel, default all CPUs); results and -v progress lines arrive in
// declaration order, so output does not depend on the pool size.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profiling"
)

func main() {
	runName := flag.String("run", "all", "experiment to run (all, table1, fig1..fig12)")
	scale := flag.Int("scale", 128, "size scale divisor (1 = the paper's full sizes)")
	quick := flag.Bool("quick", false, "trim sweeps for a fast pass")
	parallel := flag.Int("parallel", 0, "simulation worker pool size (0 = all CPUs, 1 = sequential; results are identical)")
	outDir := flag.String("out", "", "directory for CSV output (optional)")
	verbose := flag.Bool("v", false, "log each simulation as it completes")
	list := flag.Bool("list", false, "list available experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	defer profiling.Start(*cpuprofile, *memprofile, "experiments")()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}

	opts := experiments.Options{Scale: *scale, Quick: *quick, Parallel: *parallel}
	if *verbose {
		opts.Progress = os.Stderr
	}

	var names []string
	if *runName == "all" {
		names = experiments.Names()
	} else {
		for _, n := range strings.Split(*runName, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(1, "experiments: %v", err)
		}
	}

	for _, name := range names {
		runner, ok := experiments.Lookup(name)
		if !ok {
			fatal(2, "experiments: unknown experiment %q (have: %s)",
				name, strings.Join(experiments.Names(), ", "))
		}
		fmt.Printf("==> %s\n", name)
		rep, err := runner(opts)
		if err != nil {
			fatal(1, "experiments: %s: %v", name, err)
		}
		fmt.Printf("%s\n\n", rep.Description)
		for _, tbl := range rep.Tables {
			fmt.Println(tbl)
		}
		for i, fig := range rep.Figures {
			fmt.Println(fig.ASCII(72, 18))
			if *outDir != "" {
				path := filepath.Join(*outDir, fmt.Sprintf("%s_%d.csv", rep.Name, i))
				if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
					fatal(1, "experiments: writing %s: %v", path, err)
				}
				fmt.Printf("  wrote %s\n", path)
			}
		}
		fmt.Println()
	}
}

// fatal finalizes any in-progress profiles (os.Exit skips defers), reports
// the error, and exits.
func fatal(code int, format string, args ...any) {
	profiling.Flush()
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

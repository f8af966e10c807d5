// Command tracegen synthesizes block-level traces in the repository's
// binary or text format, using the paper's workload model (§4): an
// Impressions-style file server sampled into working sets, 80% of I/Os
// drawn from the working set, Poisson request sizes, uniform hosts and
// threads.
//
// Usage:
//
//	tracegen -wss-blocks 100000 -writes 30 -o trace.fctr
//	tracegen -wss-blocks 50000 -hosts 2 -shared -format text -o trace.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	out := flag.String("o", "", "output file (required)")
	format := flag.String("format", "binary", "output format: binary or text")
	wssBlocks := flag.Int64("wss-blocks", 100000, "working set size in 4 KiB blocks")
	serverBlocks := flag.Int64("server-blocks", 0, "file server size in blocks (default 5x working set)")
	totalBlocks := flag.Int64("total-blocks", 0, "trace volume in blocks (default 4x working set)")
	writes := flag.Float64("writes", 30, "write percentage")
	wsFrac := flag.Float64("ws-frac", 0.8, "fraction of I/Os from the working set")
	hosts := flag.Int("hosts", 1, "number of hosts")
	threads := flag.Int("threads", 8, "threads per host")
	shared := flag.Bool("shared", false, "hosts share one working set")
	meanIO := flag.Float64("mean-io", 4, "mean I/O size in blocks (Poisson)")
	seed := flag.Uint64("seed", 1, "generator seed")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o is required")
		os.Exit(2)
	}

	server := *serverBlocks
	if server == 0 {
		server = 5 * *wssBlocks
	}
	fsCfg := tracegen.DefaultFileSetConfig(server)
	fsCfg.Seed = *seed + 1000
	fs, err := tracegen.GenerateFileSet(fsCfg)
	die(err)

	gen, err := tracegen.NewGenerator(tracegen.Config{
		Seed:               *seed,
		Hosts:              *hosts,
		ThreadsPerHost:     *threads,
		WorkingSetBlocks:   *wssBlocks,
		SharedWorkingSet:   *shared,
		WorkingSetFraction: *wsFrac,
		WriteFraction:      *writes / 100,
		TotalBlocks:        *totalBlocks,
		MeanIOBlocks:       *meanIO,
		FileSet:            fs,
	})
	die(err)

	f, err := os.Create(*out)
	die(err)
	defer f.Close()

	var count uint64
	switch *format {
	case "binary":
		w, err := trace.NewBinaryWriter(f)
		die(err)
		for {
			op, ok := gen.Next()
			if !ok {
				break
			}
			die(w.Write(op))
		}
		die(w.Flush())
		count = w.Count()
	case "text":
		w := trace.NewTextWriter(f)
		for {
			op, ok := gen.Next()
			if !ok {
				break
			}
			die(w.Write(op))
		}
		die(w.Flush())
		count = w.Count()
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown format %q\n", *format)
		os.Exit(2)
	}
	fmt.Printf("wrote %d ops (%d blocks volume, %d warmup) to %s\n",
		count, gen.TotalBlocks(), gen.WarmupBlocks(), *out)
}

// die exits on err, naming the command once: the generator's own errors
// already start with "tracegen:".
func die(err error) {
	if err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, "tracegen:") {
			msg = "tracegen: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

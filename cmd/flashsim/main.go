// Command flashsim runs client-side flash caching simulations and prints
// the measured latencies and cache statistics.
//
// Usage (paper baseline at 1:128 scale):
//
//	flashsim -arch naive -ram-policy p1 -flash-policy a \
//	         -ram 8 -flash 64 -wss 60 -writes 30 -scale 128
//
// The run flags are the fields of flashsim.RunConfig, registered over
// flashsim.DefaultRunConfig(128) by its RegisterFlags and built by its
// Config method — the same struct flashsimd decodes a run request's
// "config" into, so every knob here has the same name, units and meaning
// over HTTP (see docs/SERVICE.md). The -filer-* and -object-* flags fill
// its scenario-style filer block.
//
// -wss and -writes accept comma-separated lists; multiple values declare a
// point grid (the cross product, working-set major) that runs on a bounded
// worker pool (-parallel, default all CPUs). Results print in declaration
// order whatever the pool size.
//
//	flashsim -wss 40,60,80 -writes 10,30 -parallel 4
//
// Multi-host runs can shard one simulation across cores (-shards): hosts
// are partitioned over parallel event engines with results bit-identical
// for every shard count — the callback consistency protocol (-protocol),
// recovered starts (-recovered) and scenario runs included. -shards 0
// (the default) picks GOMAXPROCS for multi-host runs; a single-host
// steady-state run stays on the sequential engine, and a single-host
// scenario runs as a one-shard cluster. Any value >= 1 forces the cluster
// executor; a count above -hosts runs as one shard per host. Reports
// (-report-json) echo the resolved configuration (flashsim.Resolve): the
// shard count that ran and the filer layout a scenario's filer block set:
//
//	flashsim -hosts 256 -shared-wss -shards 0
//	flashsim -hosts 256 -shared-wss -protocol -shards 8
//
// Replaying a trace file instead of the synthetic workload:
//
//	flashsim -trace workload.fctr -warmup-blocks 100000
//
// Running a scripted scenario (a built-in name or a JSON file) instead of
// a steady-state run, optionally exporting the time-resolved telemetry
// (CSV, or NDJSON when the path ends in .ndjson; "-" writes to stdout).
// Scenarios always run on the cluster (a single-host scenario at the
// default -shards 0 is one shard, byte-identical to -shards 1):
//
//	flashsim -scenario crash-recovery -persistent -scale 2048
//	flashsim -scenario crash-recovery -hosts 4 -shards 4 -persistent
//	flashsim -scenario my-scenario.json -telemetry telemetry.csv
//	flashsim -list-scenarios
//
// Observability (see docs/OBSERVABILITY.md): sampled request-lifecycle
// tracing exported as Chrome trace-event JSON (load in
// https://ui.perfetto.dev; validate with tools/tracecheck), versioned
// machine-readable run reports, and wall-clock self-profiling of sharded
// runs. None of it perturbs simulated results:
//
//	flashsim -trace-sample 0.01 -trace-out trace.json
//	flashsim -report-json report.json
//	flashsim -hosts 8 -shards 4 -wall-profile -epochstats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/flashsim"
	"repro/internal/profiling"
)

func main() {
	rc := flashsim.DefaultRunConfig(128)
	rc.RegisterFlags(flag.CommandLine)
	wssGB := flag.String("wss", fmt.Sprint(rc.WSSGB), "working set size(s) in paper GB, comma-separated")
	writes := flag.String("writes", fmt.Sprint(rc.WritePct), "write percentage(s), comma-separated")
	parallel := flag.Int("parallel", 0, "worker pool size for multi-point sweeps (0 = all CPUs)")
	scenarioName := flag.String("scenario", "", "run a scripted scenario: a built-in name or a JSON file path")
	listScenarios := flag.Bool("list-scenarios", false, "list built-in scenarios and exit")
	telemetryPath := flag.String("telemetry", "", "write scenario telemetry to this file (.ndjson for NDJSON, else CSV; - for stdout)")
	tracePath := flag.String("trace", "", "replay a binary trace file instead of synthesizing")
	warmupBlocks := flag.Int64("warmup-blocks", 0, "warmup volume when replaying a trace")
	epochstats := flag.Bool("epochstats", false, "after a sharded run, print barrier-schedule statistics: epochs executed, mean epoch length, messages per barrier (plus the wall-clock breakdown with -wall-profile)")
	traceOut := flag.String("trace-out", "", "write sampled request-lifecycle spans as Chrome trace-event JSON to this file (- for stdout; load in ui.perfetto.dev); implies -trace-sample 0.01 when that is unset")
	reportJSON := flag.String("report-json", "", "write a machine-readable run report (schema flashsim-report/2) to this file (- for stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	defer profiling.Start(*cpuprofile, *memprofile, "flashsim")()

	if *listScenarios {
		for _, name := range flashsim.BuiltinScenarioNames() {
			sc, err := flashsim.BuiltinScenario(name)
			die(err)
			fmt.Printf("%-16s %s\n", name, sc.Description)
		}
		return
	}

	wssList, err := parseFloats(*wssGB)
	die(err)
	writesList, err := parseFloats(*writes)
	die(err)

	if *traceOut != "" && rc.TraceSample == 0 {
		rc.TraceSample = 0.01
	}
	// point is the resolved configuration of one grid point: the one the
	// run executes and its report echoes.
	point := func(wss, wr float64, sc *flashsim.Scenario) flashsim.Config {
		p := rc
		p.WSSGB, p.WritePct = wss, wr
		cfg, err := p.Config()
		die(err)
		cfg, err = flashsim.Resolve(cfg, sc)
		die(err)
		return cfg
	}
	header := func(wss, wr float64) string {
		return fmt.Sprintf("%s %s/%s ram=%gGB flash=%gGB wss=%gGB writes=%g%% scale=1:%d",
			rc.Arch, rc.RAMPolicy, rc.FlashPolicy, rc.RAMGB, rc.FlashGB, wss, wr, rc.Scale)
	}

	if *scenarioName != "" {
		if len(wssList) > 1 || len(writesList) > 1 {
			die(fmt.Errorf("a scenario run takes a single -wss/-writes point"))
		}
		if *tracePath != "" {
			die(fmt.Errorf("-scenario and -trace are mutually exclusive"))
		}
		var sc *flashsim.Scenario
		if strings.HasSuffix(*scenarioName, ".json") {
			sc, err = flashsim.LoadScenario(*scenarioName)
		} else {
			sc, err = flashsim.BuiltinScenario(*scenarioName)
		}
		die(err)
		// Scenario runs always execute on the cluster: -shards 0 on one
		// host runs one shard, and the multi-host auto default (applied by
		// RunConfig.Config) picks GOMAXPROCS — scenario results are
		// bit-identical for every shard count, so the output does not
		// depend on this machine's core count.
		cfg := point(wssList[0], writesList[0], sc)
		res, err := flashsim.RunScenario(cfg, sc)
		die(err)
		fmt.Println(header(wssList[0], writesList[0]))
		fmt.Print(res)
		printEpochStats(*epochstats, &res.Result)
		die(exportRun(cfg, &res.Result, func() *flashsim.Report { return flashsim.NewScenarioReport(cfg, res) },
			*traceOut, *reportJSON))
		die(writeTelemetry(*telemetryPath, res.Telemetry))
		return
	}
	if *telemetryPath != "" {
		die(fmt.Errorf("-telemetry requires -scenario"))
	}

	if *tracePath != "" {
		if len(wssList) > 1 || len(writesList) > 1 {
			die(fmt.Errorf("trace replay takes a single -wss/-writes point"))
		}
		f, err := os.Open(*tracePath)
		die(err)
		defer f.Close()
		r, err := flashsim.OpenBinaryTrace(f)
		die(err)
		cfg := point(wssList[0], writesList[0], nil)
		res, err := flashsim.RunTrace(cfg, r, *warmupBlocks)
		die(err)
		fmt.Println(header(wssList[0], writesList[0]))
		fmt.Print(res)
		printEpochStats(*epochstats, res)
		die(exportRun(cfg, res, func() *flashsim.Report { return flashsim.NewReport(cfg, res) },
			*traceOut, *reportJSON))
		return
	}

	// The cross product of the sweep lists is a point grid; the pool
	// streams results back in declaration order, so single-point runs
	// print exactly what they always did.
	var cfgs []flashsim.Config
	for _, wss := range wssList {
		for _, wr := range writesList {
			cfgs = append(cfgs, point(wss, wr, nil))
		}
	}
	if len(cfgs) > 1 && (*traceOut != "" || *reportJSON != "") {
		die(fmt.Errorf("-trace-out and -report-json take a single -wss/-writes point"))
	}
	_, err = flashsim.RunGrid(cfgs, *parallel, func(i int, res *flashsim.Result) {
		fmt.Println(header(wssList[i/len(writesList)], writesList[i%len(writesList)]))
		fmt.Print(res)
		printEpochStats(*epochstats, res)
		die(exportRun(cfgs[i], res, func() *flashsim.Report { return flashsim.NewReport(cfgs[i], res) },
			*traceOut, *reportJSON))
		if len(cfgs) > 1 && i < len(cfgs)-1 {
			fmt.Println()
		}
	})
	die(err)
}

// exportRun writes one run's observability artifacts — the Chrome trace
// and the machine-readable report (built by report) — each gated on its
// flag.
func exportRun(cfg flashsim.Config, res *flashsim.Result, report func() *flashsim.Report,
	traceOut, reportJSON string) error {
	if traceOut != "" {
		if err := withOutput(traceOut, func(w io.Writer) error {
			return flashsim.WriteChromeTrace(w, res.Trace, cfg.Timing)
		}); err != nil {
			return err
		}
	}
	if reportJSON != "" {
		return withOutput(reportJSON, report().WriteJSON)
	}
	return nil
}

// withOutput opens path for writing ("-" is stdout) and passes it to fn.
func withOutput(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printEpochStats reports the barrier schedule of a sharded run: how many
// epochs the coordinator executed, how long the mean epoch was in
// simulated time, and how many cross-shard messages each barrier carried
// on average, followed by each filer backend partition's service counts
// and barrier queue depths — and, when the run profiled itself
// (-wall-profile), the wall-clock breakdown. Sequential runs have no
// barrier schedule (epochs == 0) and print nothing.
func printEpochStats(enabled bool, res *flashsim.Result) {
	if !enabled || res.Epochs == 0 {
		return
	}
	fmt.Printf("epochs %d  mean epoch %.1f us  messages/barrier %.2f\n", res.Epochs,
		1e6*res.SimulatedSeconds/float64(res.Epochs), float64(res.BarrierMessages)/float64(res.Epochs))
	for p, st := range res.FilerPartitions {
		fmt.Printf("filer partition %d: %d serviced (%d fast, %d slow, %d object, %d writes)  max queue %d  mean queue %.2f\n",
			p, st.Serviced(), st.FastReads, st.SlowReads, st.ObjectReads, st.Writes,
			st.MaxBarrierQueue, st.MeanBarrierQueue)
		if st.DegradedReads > 0 || st.DegradedWrites > 0 {
			fmt.Printf("filer partition %d: degraded service: %d reads, %d writes\n",
				p, st.DegradedReads, st.DegradedWrites)
		}
		if len(st.Replicas) > 1 {
			for r, rs := range st.Replicas {
				state := "live"
				if !rs.Live {
					state = "down"
				}
				fmt.Printf("  replica %d.%d [%s]: %d fast, %d slow, %d object, %d write acks, %d resyncs (%d blocks)\n",
					p, r, state, rs.FastReads, rs.SlowReads, rs.ObjectReads, rs.Writes,
					rs.Resyncs, rs.ResyncBlocks)
			}
		}
	}
	if res.WallProfile != nil {
		fmt.Print(res.WallProfile.Summary())
	}
}

// writeTelemetry exports a scenario's telemetry series. An empty path
// skips the export; "-" writes to stdout; a .ndjson suffix selects NDJSON,
// anything else CSV.
func writeTelemetry(path string, ts *flashsim.TimeSeries) error {
	if path == "" {
		return nil
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if strings.HasSuffix(path, ".ndjson") {
		return ts.WriteNDJSON(out)
	}
	return ts.WriteCSV(out)
}

// parseFloats parses a comma-separated list of numbers.
func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad sweep value %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func die(err error) {
	if err != nil {
		profiling.Flush() // os.Exit skips defers; salvage requested profiles
		msg := err.Error()
		if !strings.HasPrefix(msg, "flashsim:") {
			msg = "flashsim: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

// Command flashbench is the repository's benchmark. It measures four
// workloads — the paper's figures, a 1024-host fleet, the crash-recovery
// scenario on 256 hosts, and a live loop against the flashsimd daemon —
// each in a child process of its own, checks their outputs, and prints
// the end-to-end metrics (with -trace 1, the per-layer metrics) by name
// with their units. It times calls into each layer's public functions from
// outside; the program itself carries no instrumentation for it.
//
// Run it from the repository root with bench/run.sh; see README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// setupProbes is how many set-up-only children measure setup_s, besides
// the measuring child's own set-up.
const setupProbes = 20

// childGrace is how far a child may overrun its budget before it is
// killed and its workload counted as failed.
const childGrace = 60 * time.Second

// resultSchema identifies the format of result.json.
const resultSchema = "flashbench-result/1"

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	out     string
	// expected is an expected-hash file replacing the embedded one; tests
	// use it to make an output check fail.
	expected string
}

// resultFile is result.json: everything one invocation measured.
type resultFile struct {
	Schema    string           `json:"schema"`
	StartedAt time.Time        `json:"started_at"`
	Env       environment      `json:"env"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Smoke     bool             `json:"smoke"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Detail holds the absolute numbers behind the metrics (medians,
	// 95th percentiles, throughputs) from the untraced run.
	Detail map[string]float64 `json:"detail"`
	Hashes map[string]string  `json:"hashes,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flashbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "measure only this workload (default: all four)")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 25, "measurement budget per workload, in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced run and prints the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes, one unit of work per workload")
	out := fs.String("out", ".bench_out", "directory for result.json and the traced run's files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "flashbench: usage: flashbench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-smoke] [-out dir]")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "flashbench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
	var err error
	if o.out, err = filepath.Abs(*out); err == nil {
		err = os.MkdirAll(o.out, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "flashbench: %v\n", err)
		return 2
	}

	rf := resultFile{
		Schema: resultSchema, StartedAt: time.Now().UTC(), Env: readEnvironment(o.seed),
		Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
	}
	code := 0
	for _, w := range selected {
		wr := measureWorkload(w, o, stderr)
		if wr.Failed > 0 || wr.Attempted == 0 {
			code = 1
		}
		rf.Workloads = append(rf.Workloads, wr)
	}
	if err := writeJSONFile(filepath.Join(o.out, "result.json"), rf); err != nil {
		fmt.Fprintf(stderr, "flashbench: %v\n", err)
		code = 1
	}
	printTable(stdout, rf)
	if len(selected) == 1 {
		printDriverLine(stdout, rf.Workloads[0], o.trace)
	}
	return code
}

// measureWorkload runs a workload's children: the set-up probes, the
// untraced measurement, and with -trace 1 the traced one, each taking
// half the budget.
func measureWorkload(w *workload, o options, stderr io.Writer) workloadResult {
	wr := workloadResult{Name: w.name}
	fail := func(err error) {
		wr.Attempted++
		wr.Failed++
		wr.Errors = append(wr.Errors, err.Error())
		fmt.Fprintf(stderr, "flashbench: %s: %v\n", w.name, err)
	}
	spec := childSpec{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Out: o.out, Expected: o.expected,
	}
	if o.trace {
		spec.Seconds /= 2
	}

	var setups []float64
	probe := spec
	probe.SetupOnly = true
	for range setupProbes {
		res, err := runChild(probe, stderr)
		if err != nil {
			fail(err)
			continue
		}
		setups = append(setups, res.SetupS)
	}

	plain, err := runChild(spec, stderr)
	if err != nil {
		fail(err)
		return wr
	}
	wr.add(plain)
	wr.Hashes = plain.Hashes
	wr.Metrics = endToEndMetrics(plain, append(setups, plain.SetupS))
	wr.Detail = detail(plain)
	if !o.trace {
		return wr
	}

	spec.Trace = true
	traced, err := runChild(spec, stderr)
	if err != nil {
		fail(err)
		return wr
	}
	wr.add(traced)
	for _, key := range sortedKeys(traced.Hashes) {
		if h, p := traced.Hashes[key], plain.Hashes[key]; h != p {
			fail(fmt.Errorf("%s: traced run's output hash %s differs from the untraced run's %s", key, h, p))
		}
	}
	if err := checkSpans(artifactPath(o.out, w.name, "spans.json")); err != nil {
		fail(err)
	}
	shares, traces, err := profileLayers(artifactPath(o.out, w.name, "cpu.pprof"))
	if err == nil {
		err = os.WriteFile(artifactPath(o.out, w.name, "traces.txt"), traces, 0o644)
	}
	if err != nil {
		fail(err)
		return wr
	}
	wr.PerLayer = perLayerMetrics(traced, plain, shares)
	return wr
}

// add folds a child's operation counts into the workload's.
func (wr *workloadResult) add(r *childResult) {
	wr.Attempted += r.Attempted
	wr.Failed += r.Failed
	wr.Errors = append(wr.Errors, r.Errors...)
}

// runChild runs one child to completion and returns its result.
func runChild(spec childSpec, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(spec.Seconds*float64(time.Second))+childGrace)
	defer cancel()
	spec.ExecNanos = time.Now().UnixNano()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(specJSON))
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// artifactPath names one of a traced run's output files.
func artifactPath(out, workload, suffix string) string {
	return filepath.Join(out, workload+"."+suffix)
}

// checkSpans validates the traced run's span file as Chrome trace JSON.
func checkSpans(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := obs.ValidateChromeTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if n == 0 {
		return fmt.Errorf("%s: no spans", path)
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// printTable prints every metric by name with its unit.
func printTable(w io.Writer, rf resultFile) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit")
	for _, wr := range rf.Workloads {
		fmt.Fprintf(tw, "%s\toperations\t%d attempted, %d failed\t\n", wr.Name, wr.Attempted, wr.Failed)
		for _, set := range []map[string]metric{wr.Metrics, wr.PerLayer} {
			for _, k := range sortedKeys(set) {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", wr.Name, k, set[k].Value, set[k].Unit)
			}
		}
	}
	tw.Flush()
}

// printDriverLine prints the one-line JSON summary that ends a
// single-workload run: the end-to-end metrics, or with -trace 1 the
// per-layer metrics.
func printDriverLine(w io.Writer, wr workloadResult, traced bool) {
	metrics := wr.Metrics
	if traced {
		metrics = wr.PerLayer
	}
	if metrics == nil {
		metrics = map[string]metric{}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Failed == 0 && wr.Attempted > 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", b)
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Each workload is measured in a child process of its own, a re-exec of
// the harness binary, so its peak RSS and allocations belong to it alone.
// childEnv carries the child's JSON spec; the child prints one childResult
// as JSON on standard output.
const childEnv = "FLASHBENCH_CHILD"

// childSpec tells a child what to measure.
type childSpec struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Smoke    bool    `json:"smoke"`
	// SetupOnly children exit after set-up: the set-up time probes.
	SetupOnly bool `json:"setup_only"`
	// Trace turns on spans, the CPU profile and wall profiles, written to
	// Out.
	Trace bool   `json:"trace"`
	Out   string `json:"out"`
	// Expected is an expected-hash file replacing the embedded one.
	Expected string `json:"expected,omitempty"`
	// ExecNanos is the parent's wall clock just before the exec; set-up
	// time runs from it.
	ExecNanos int64 `json:"exec_ns"`
}

// Sample keys with a fixed meaning; workloads add their own per-layer
// samples (see perLayerMetrics for the naming rule).
const (
	sampleWall       = "wall_ms"          // wall time of each unit of work
	sampleSimSeconds = "sim_s"            // simulated seconds per unit
	sampleFileSet    = "setup.fileset_ms" // file-set generation during set-up
	samplePeakRSS    = "peak_rss_mib"     // resident-set high-water mark per operation
)

// childResult is what a child measured.
type childResult struct {
	SetupS float64 `json:"setup_s"`
	// Attempted and Failed count operations: a paper figure, a simulation
	// rep, a daemon run. A failed output check fails its operation.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Units counts completed units of work in WallS seconds of
	// measurement, which used CPUS seconds of CPU.
	Units         int                  `json:"units"`
	WallS         float64              `json:"wall_s"`
	CPUS          float64              `json:"cpu_s"`
	AllocsPerUnit float64              `json:"allocs_per_unit"`
	GOMAXPROCS    int                  `json:"gomaxprocs"`
	Samples       map[string][]float64 `json:"samples"`
	// Hashes holds each checked output's hash, for the parent to compare
	// across children.
	Hashes map[string]string `json:"hashes,omitempty"`
}

// maxErrors caps the failure messages a child keeps.
const maxErrors = 20

// child is the measuring side of one workload.
type child struct {
	spec   childSpec
	want   map[string]string // pinned output hashes that apply to this run
	rec    *recorder         // nil unless traced
	budget time.Duration
	start  time.Time

	mu  sync.Mutex
	res childResult
}

// childMain runs one child and returns its exit code.
func childMain(specJSON string, stdout io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "flashbench child: spec: %v\n", err)
		return 2
	}
	w, ok := lookupWorkload(spec.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "flashbench child: unknown workload %q\n", spec.Workload)
		return 2
	}
	want, err := expectedHashes(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashbench child: %v\n", err)
		return 2
	}
	c := &child{
		spec:   spec,
		want:   want,
		budget: time.Duration(spec.Seconds * float64(time.Second)),
		res: childResult{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Samples:    make(map[string][]float64),
			Hashes:     make(map[string]string),
		},
	}
	if spec.Trace {
		c.rec = newRecorder()
	}
	work, stop, err := w.setup(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flashbench child: %s set-up: %v\n", w.name, err)
		return 1
	}
	defer stop()
	c.res.SetupS = time.Since(time.Unix(0, spec.ExecNanos)).Seconds()
	if !spec.SetupOnly {
		if err := c.measure(work); err != nil {
			fmt.Fprintf(os.Stderr, "flashbench child: %s: %v\n", w.name, err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(&c.res); err != nil {
		fmt.Fprintf(os.Stderr, "flashbench child: %v\n", err)
		return 1
	}
	return 0
}

// measure runs the workload's measurement loop, with the CPU profile and
// spans around it when traced.
func (c *child) measure(work func()) error {
	var profile *os.File
	if c.spec.Trace {
		var err error
		if profile, err = os.Create(artifactPath(c.spec.Out, c.spec.Workload, "cpu.pprof")); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(profile); err != nil {
			profile.Close()
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu := cpuSeconds()
	resetErr := resetPeakRSS()
	c.start = time.Now()

	work()

	c.res.WallS = time.Since(c.start).Seconds()
	c.res.CPUS = cpuSeconds() - cpu
	runtime.ReadMemStats(&ms)
	c.res.AllocsPerUnit = ratio(float64(ms.Mallocs-mallocs), float64(c.res.Units))
	if len(c.res.Samples[samplePeakRSS]) == 0 {
		// The daemon's operations overlap, so its peak is the whole loop's.
		c.samplePeakRSS(resetErr)
	}
	if !c.spec.Trace {
		return nil
	}
	pprof.StopCPUProfile()
	if err := profile.Close(); err != nil {
		return err
	}
	f, err := os.Create(artifactPath(c.spec.Out, c.spec.Workload, "spans.json"))
	if err != nil {
		return err
	}
	if err := c.rec.writeChrome(f, "flashbench "+c.spec.Workload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// more reports whether a loop that has completed done units should start
// another: always the first; in a smoke run no more; otherwise only while
// the median unit so far still fits in the budget.
func (c *child) more(done int) bool {
	if done == 0 {
		return true
	}
	if c.spec.Smoke {
		return false
	}
	c.mu.Lock()
	est := median(c.res.Samples[sampleWall])
	c.mu.Unlock()
	return time.Since(c.start)+time.Duration(est*float64(time.Millisecond)) <= c.budget
}

// sequential runs op as back-to-back units of work for the budget; each
// unit gets a root span named unit.
func (c *child) sequential(unit string, op func(parent spanRef)) {
	for i := 0; c.more(i); i++ {
		// Each unit starts from a collected heap rather than paying for
		// its predecessor's garbage; on the 1024-host fleet this cuts the
		// unit-to-unit spread by a third.
		runtime.GC()
		sp := c.rec.unit(unit, int64(i+1), 0)
		t := time.Now()
		op(sp)
		c.unitDone(time.Since(t))
		c.rec.end(sp)
	}
}

// peakRSSOf runs op, one operation that runs alone, and samples the
// resident set's peak while it ran. The peak is taken per operation
// because the maximum over a whole run grows with the number of
// operations it happened to fit, and because the median over a run's
// operations repeats where one operation's peak, set by when the
// collector happened to run, does not.
func (c *child) peakRSSOf(op func()) {
	resetErr := resetPeakRSS()
	op()
	c.samplePeakRSS(resetErr)
}

// resetPeakRSS restarts the resident set's high-water mark (VmHWM).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// samplePeakRSS records the resident set's high-water mark since the reset
// that returned resetErr. A failed reading counts as a failed operation.
func (c *child) samplePeakRSS(resetErr error) {
	mib, err := peakRSSMiB()
	if err = errors.Join(resetErr, err); err != nil {
		c.outcome(fmt.Errorf("peak resident set: %w", err))
		return
	}
	c.sample(samplePeakRSS, mib)
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// unitDone records one completed unit of work.
func (c *child) unitDone(d time.Duration) {
	c.mu.Lock()
	c.res.Units++
	c.res.Samples[sampleWall] = append(c.res.Samples[sampleWall], float64(d.Nanoseconds())/1e6)
	c.mu.Unlock()
}

// sample records one measurement of a per-unit quantity.
func (c *child) sample(key string, v float64) {
	c.mu.Lock()
	c.res.Samples[key] = append(c.res.Samples[key], v)
	c.mu.Unlock()
}

// sampleMillis records a duration sample in milliseconds.
func (c *child) sampleMillis(key string, d time.Duration) {
	c.sample(key, float64(d.Nanoseconds())/1e6)
}

// outcome counts one attempted operation, failed when err is non-nil.
func (c *child) outcome(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.Attempted++
	if err == nil {
		return
	}
	c.res.Failed++
	if len(c.res.Errors) < maxErrors {
		c.res.Errors = append(c.res.Errors, err.Error())
	}
	fmt.Fprintf(os.Stderr, "flashbench: %s: %v\n", c.spec.Workload, err)
}

// verify checks an output against its pinned hash, if any, and against
// the first hash this child saw for the same output: every rep of a
// deterministic simulation must produce identical bytes.
func (c *child) verify(key, output string) error {
	sum := sha256.Sum256([]byte(output))
	got := hex.EncodeToString(sum[:])
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, ok := c.want[key]; ok && want != got {
		return fmt.Errorf("%s: output hash %s, want pinned %s", key, got, want)
	}
	if prev, ok := c.res.Hashes[key]; ok && prev != got {
		return fmt.Errorf("%s: output hash %s differs from an earlier rep's %s", key, got, prev)
	}
	c.res.Hashes[key] = got
	return nil
}

// expectedFile is testdata/expected.json: the pinned output hashes.
type expectedFile struct {
	// Figures pins each paper figure's report hash. The figures fix their
	// own seeds and a smoke run regenerates a subset at the same scale, so
	// these hold for every run.
	Figures map[string]string `json:"figures"`
	// Seed1 and SmokeSeed1 pin the cluster workloads' output hashes at
	// -seed 1, at the full and the smoke sizes.
	Seed1      map[string]string `json:"seed1"`
	SmokeSeed1 map[string]string `json:"smoke_seed1"`
}

//go:embed testdata/expected.json
var embeddedExpected []byte

// expectedHashes returns the pinned hashes that apply to a child, keyed as
// verify keys them.
func expectedHashes(spec childSpec) (map[string]string, error) {
	data := embeddedExpected
	if spec.Expected != "" {
		var err error
		if data, err = os.ReadFile(spec.Expected); err != nil {
			return nil, err
		}
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("expected hashes: %w", err)
	}
	want := make(map[string]string)
	for fig, h := range f.Figures {
		want[figureKey(fig)] = h
	}
	seed1 := f.Seed1
	if spec.Smoke {
		seed1 = f.SmokeSeed1
	}
	if spec.Seed == 1 {
		for name, h := range seed1 {
			want[name] = h
		}
	}
	return want, nil
}

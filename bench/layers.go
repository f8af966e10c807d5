package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path"
	"strings"
	"time"
)

// This file charges a CPU profile to the repository's layers. It reads the
// text `go tool pprof -traces -lines` prints: one block per distinct stack,
// its sampled time on the first line, frames innermost first, each as
// "<function> <file>:<line>".
//
// A sample belongs to its innermost frame inside the repository, so the
// runtime and map helpers a layer calls are charged to that layer. Samples
// with no repository frame are the runtime's own (GC workers, scheduler),
// the HTTP server's connection handling below serve's handlers, or the
// benchmark's HTTP client. Every sample lands in exactly one layer, so the
// shares sum to 100%.

// layerNames lists the layers in report order.
var layerNames = []string{
	"sim", "cache", "core.host", "core.cluster", "filer", "flashsim",
	"tracegen", "devices", "stats", "serve", "runner", "experiments",
	"harness", "runtime.gc", "runtime.sched", "other",
}

// packageLayer maps a repository package to its layer. internal/core is
// split by source file (coreFileLayer).
var packageLayer = map[string]string{
	"repro/internal/sim":         "sim",
	"repro/internal/cache":       "cache",
	"repro/internal/consistency": "core.host",
	"repro/internal/filer":       "filer",
	"repro/flashsim":             "flashsim",
	"repro/internal/scenario":    "flashsim",
	"repro/internal/validate":    "flashsim",
	"repro/internal/tracegen":    "tracegen",
	"repro/internal/trace":       "tracegen",
	"repro/internal/rng":         "tracegen",
	"repro/internal/netsim":      "devices",
	"repro/internal/blockdev":    "devices",
	"repro/internal/ftl":         "devices",
	"repro/internal/stats":       "stats",
	"repro/internal/obs":         "stats",
	"repro/internal/serve":       "serve",
	"repro/internal/runner":      "runner",
	"repro/internal/runner/pool": "runner",
	"repro/internal/experiments": "experiments",
	"main":                       "harness",
}

// coreFileLayer splits internal/core: the sharded executor's files are the
// cluster layer, the flash device model is a device, the rest is the host
// request path (host, driver, writeback, req and their helpers).
var coreFileLayer = map[string]string{
	"cluster.go":      "core.cluster",
	"clusterproto.go": "core.cluster",
	"exchange.go":     "core.cluster",
	"lookahead.go":    "core.cluster",
	"residency.go":    "core.cluster",
	"flashdev.go":     "devices",
}

// frame is one stack frame of a pprof trace.
type frame struct{ fn, file string }

// funcPackage returns the import path of a symbolized Go function name,
// e.g. "repro/internal/core" for "repro/internal/core.(*Host).read".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// repoFrameLayer returns the layer of a repository frame, or "" for a
// frame outside the repository.
func repoFrameLayer(f frame) string {
	pkg := funcPackage(f.fn)
	if pkg == "repro/internal/core" {
		if l, ok := coreFileLayer[path.Base(f.file)]; ok {
			return l
		}
		return "core.host"
	}
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, "repro/") {
		return "other"
	}
	return ""
}

// gcRoots are the runtime functions whose presence marks garbage-collector
// work done off any user goroutine.
var gcRoots = []string{"runtime.gc", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge"}

// stackLayer charges one stack (innermost frame first) to a layer.
func stackLayer(frames []frame) string {
	for _, f := range frames {
		if l := repoFrameLayer(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		for _, root := range gcRoots {
			if strings.HasPrefix(f.fn, root) {
				return "runtime.gc"
			}
		}
		switch {
		case strings.HasPrefix(f.fn, "net/http.(*conn)."):
			return "serve"
		case strings.HasPrefix(f.fn, "net/http.(*persistConn)."), strings.HasPrefix(f.fn, "net/http.(*Transport)."):
			return "harness"
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[len(frames)-1].fn, "runtime.") {
		return "runtime.sched"
	}
	return "other"
}

// parseTraces reads `go tool pprof -traces -lines` output and returns the
// sampled time charged to each layer.
func parseTraces(r io.Reader) (map[string]time.Duration, error) {
	byLayer := make(map[string]time.Duration)
	var (
		value  time.Duration
		frames []frame
		inBody bool
	)
	flush := func() {
		if inBody && len(frames) > 0 {
			byLayer[stackLayer(frames)] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			value = -1
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if value < 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			value = d
			fields = fields[1:]
		}
		if len(fields) == 0 {
			continue
		}
		f := frame{fn: fields[0]}
		if len(fields) > 1 {
			f.file, _, _ = strings.Cut(fields[1], ":")
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	flush()
	return byLayer, nil
}

// layerShares converts per-layer time into percentages of the total; every
// layer in layerNames is present.
func layerShares(byLayer map[string]time.Duration) (map[string]float64, error) {
	var total time.Duration
	for _, d := range byLayer {
		total += d
	}
	if total <= 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	shares := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		shares[l] = 100 * float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

// profileLayers runs pprof over a CPU profile and returns the layer shares
// and pprof's trace text.
func profileLayers(profile string) (map[string]float64, []byte, error) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		return nil, nil, fmt.Errorf("layer attribution needs the go tool: %w", err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(goTool, "tool", "pprof", "-traces", "-lines", profile)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	byLayer, err := parseTraces(bytes.NewReader(stdout.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	shares, err := layerShares(byLayer)
	return shares, stdout.Bytes(), err
}

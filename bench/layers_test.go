package main

import (
	"math"
	"os"
	"testing"
)

func TestFrameLayerMap(t *testing.T) {
	for _, tc := range []struct {
		fn, file, want string
	}{
		{"repro/internal/sim.(*Engine).Step", "engine.go", "sim"},
		{"repro/internal/cache.(*LRU).Get", "lru.go", "cache"},
		{"repro/internal/core.(*Host).read", "/x/internal/core/host.go", "core.host"},
		{"repro/internal/core.opStep", "/x/internal/core/driver.go", "core.host"},
		{"repro/internal/core.(*Cluster).gather", "/x/internal/core/cluster.go", "core.cluster"},
		{"repro/internal/core.mergeOutboxes", "/x/internal/core/exchange.go", "core.cluster"},
		{"repro/internal/core.(*residency).add", "/x/internal/core/residency.go", "core.cluster"},
		{"repro/internal/core.(*flashDevice).submit", "/x/internal/core/flashdev.go", "devices"},
		{"repro/internal/netsim.(*Segment).Send2", "netsim.go", "devices"},
		{"repro/internal/filer.(*Filer).Read", "filer.go", "filer"},
		{"repro/flashsim.RunScenario", "scenario.go", "flashsim"},
		{"repro/internal/scenario.(*Scenario).Clone", "scenario.go", "flashsim"},
		{"repro/internal/rng.(*RNG).Uint64", "rng.go", "tracegen"},
		{"repro/internal/stats.AppendRowNDJSON", "series.go", "stats"},
		{"repro/internal/obs.(*WallCollector).EpochEnd", "wall.go", "stats"},
		{"repro/internal/serve.(*Server).handleStream", "v1.go", "serve"},
		{"repro/internal/runner/pool.(*Queue).worker", "queue.go", "runner"},
		{"repro/internal/experiments.Fig2", "fig2_fig5.go", "experiments"},
		{"main.(*child).sequential", "child.go", "harness"},
		{"repro/internal/newpkg.F", "f.go", "other"},
		{"runtime.mallocgc", "malloc.go", ""},
		{"net/http.(*conn).serve", "server.go", ""},
	} {
		if got := repoFrameLayer(frame{tc.fn, tc.file}); got != tc.want {
			t.Errorf("repoFrameLayer(%s, %s) = %q, want %q", tc.fn, tc.file, got, tc.want)
		}
	}
}

// TestParseTracesFixture charges a canned `go tool pprof -traces -lines`
// output: runtime and map helpers go to their repository caller, stacks
// without one to the runtime, the HTTP server or client, and the shares
// add up to 100%.
func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof-traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byLayer, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := layerShares(byLayer)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim":           30,
		"cache":         20, // map lookup charged to its caller
		"core.host":     10,
		"core.cluster":  5, // mallocgc charged to its caller
		"devices":       5,
		"runtime.gc":    10,
		"serve":         5, // the server's connection goroutine
		"harness":       9, // the benchmark's own code and HTTP client
		"runtime.sched": 4,
		"other":         2,
	}
	sum := 0.0
	for _, l := range layerNames {
		got := shares[l]
		sum += got
		if math.Abs(got-want[l]) > 1e-9 {
			t.Errorf("%s share = %v%%, want %v%%", l, got, want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100%%", sum)
	}
}

func TestLayerSharesRejectsEmptyProfile(t *testing.T) {
	if _, err := layerShares(nil); err == nil {
		t.Fatal("empty profile accepted")
	}
}

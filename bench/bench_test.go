package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the harness's child process: the
// harness re-execs its own executable, which under go test is this binary.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

// runHarness runs the harness with args and returns its exit code, its
// standard output and the result file it wrote. The harness's standard
// error goes to the test log.
func runHarness(t *testing.T, args ...string) (int, string, resultFile) {
	t.Helper()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-out", out), &stdout, &stderr)
	t.Logf("stderr:\n%s", stderr.Bytes())
	data, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatalf("exit %d, no result file: %v\n%s", code, err, stderr.Bytes())
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		t.Fatal(err)
	}
	return code, stdout.String(), rf
}

// TestSmoke runs every workload once at tiny sizes and checks the
// accounting: no failed operation and every end-to-end metric measured.
func TestSmoke(t *testing.T) {
	code, stdout, rf := runHarness(t, "-smoke")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout)
	}
	if len(rf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in result, want %d", len(rf.Workloads), len(workloads))
	}
	for _, wr := range rf.Workloads {
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed: %v", wr.Name, wr.Attempted, wr.Failed, wr.Errors)
		}
		for _, d := range endToEnd {
			m, ok := wr.Metrics[d.name]
			if !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", wr.Name, d.name, m, d.unit)
			}
		}
	}
	if rf.Env.Go == "" || rf.Env.NProc == 0 || rf.Env.Seed != 1 {
		t.Errorf("environment not recorded: %+v", rf.Env)
	}
}

// TestSmokeCountsFailedCheck edits one pinned figure hash and expects
// exactly that figure to count as a failed operation, a non-zero exit and
// an incorrect summary line.
func TestSmokeCountsFailedCheck(t *testing.T) {
	var f expectedFile
	if err := json.Unmarshal(embeddedExpected, &f); err != nil {
		t.Fatal(err)
	}
	f.Figures["fig1"] = strings.Repeat("0", 64)
	dir := t.TempDir()
	path := filepath.Join(dir, "expected.json")
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("paper-figs")
	var stderr bytes.Buffer
	wr := measureWorkload(w, options{seed: 1, smoke: true, out: dir, expected: path}, &stderr)
	t.Logf("stderr:\n%s", stderr.Bytes())
	if wr.Attempted != len(smokeFigures) || wr.Failed != 1 {
		t.Errorf("%d attempted, %d failed; want %d attempted, 1 failed", wr.Attempted, wr.Failed, len(smokeFigures))
	}
	var line bytes.Buffer
	printDriverLine(&line, wr, false)
	var summary struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal(line.Bytes(), &summary); err != nil {
		t.Fatalf("summary line %q: %v", line.Bytes(), err)
	}
	if summary.Correct || summary.Failed != 1 {
		t.Errorf("summary line %+v, want incorrect with 1 failed", summary)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the harness's workloads and
// metric tables in step with BENCHMARK.json at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, want)
	}
	check := func(kind string, got []metricDef, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		var decl []metricDef
		for _, d := range declared {
			decl = append(decl, metricDef{d.Name, d.Unit})
		}
		if !slices.Equal(got, decl) {
			t.Errorf("%s metrics differ:\nharness        %v\nBENCHMARK.json %v", kind, got, decl)
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

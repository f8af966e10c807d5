// Command compare judges a change against its parent from two directories
// of benchmark results, per workload and metric.
//
// Usage, from bench/:
//
//	go run ./compare <parent-dir> <change-dir>
//
// Each directory holds the result.json files (at any depth) of runs of one
// commit with identical settings. Runs pair up in start order, parent run
// i with change run i, and the two sides must have alternated which ran
// first. For each metric the verdict is:
//
//   - improved: at least ten pairs, the change wins at least nine tenths of
//     them (ties count for neither), its median is better, and the medians
//     differ by more than the parent's interquartile range, with no more
//     failed operations than the parent;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - no regression: neither, with the parent's spread within the bound;
//   - unresolved: everything else — too few or non-alternating pairs, a
//     spread wider than the bound (unless every change run beats every
//     parent run), or a per-layer metric, which has no bound.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
	"time"
)

// minPairs is the fewest parent/change pairs a verdict other than
// unresolved needs.
const minPairs = 10

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// result is the part of a result.json compare reads.
type result struct {
	StartedAt time.Time `json:"started_at"`
	Workloads []struct {
		Name     string                             `json:"name"`
		Failed   int                                `json:"failed"`
		Metrics  map[string]struct{ Value float64 } `json:"metrics"`
		PerLayer map[string]struct{ Value float64 } `json:"per_layer"`
	} `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// specPath is the benchmark definition, with each metric's direction and
// bound, relative to bench/.
const specPath = "../BENCHMARK.json"

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: compare <parent-dir> <change-dir>")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	parent, err := loadResults(args[0])
	if err == nil {
		var change []result
		change, err = loadResults(args[1])
		if err == nil {
			report(stdout, spec, parent, change)
			return 0
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 1
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every result.json under dir, in start order.
func loadResults(dir string) ([]result, error) {
	var rs []result
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "result.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		rs = append(rs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no result.json files", dir)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].StartedAt.Before(rs[j].StartedAt) })
	return rs, nil
}

// alternating reports whether paired runs alternated which side started
// first.
func alternating(parent, change []result) bool {
	for i := 1; i < len(parent) && i < len(change); i++ {
		if parent[i].StartedAt.Before(change[i].StartedAt) == parent[i-1].StartedAt.Before(change[i-1].StartedAt) {
			return false
		}
	}
	return true
}

// series collects one metric of one workload from every run, with the
// workload's failed operations summed; ok is false when any run lacks it.
func series(rs []result, workload, metric string) (vals []float64, failed int, ok bool) {
	for _, r := range rs {
		found := false
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			m, in := w.Metrics[metric]
			if !in {
				m, in = w.PerLayer[metric]
			}
			if in {
				vals = append(vals, m.Value)
				failed += w.Failed
				found = true
			}
		}
		if !found {
			return nil, 0, false
		}
	}
	return vals, failed, true
}

func report(w io.Writer, spec *benchSpec, parent, change []result) {
	note := ""
	switch {
	case len(parent) != len(change):
		note = fmt.Sprintf("%d parent runs but %d change runs", len(parent), len(change))
	case !alternating(parent, change):
		note = "pairs did not alternate which side ran first"
	}
	var workloads []string
	for _, wr := range parent[0].Workloads {
		workloads = append(workloads, wr.Name)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median\twins\tverdict")
	for _, wl := range workloads {
		for _, m := range slices.Concat(spec.EndToEnd, spec.PerLayer) {
			p, pFailed, okP := series(parent, wl, m.Name)
			c, cFailed, okC := series(change, wl, m.Name)
			if !okP || !okC {
				continue
			}
			v := judge(p, c, m.Better == "higher", m.Bound)
			if v.verdict == improved && cFailed > pFailed {
				v.verdict, v.reason = unresolved, "more failed operations than the parent"
			}
			if note != "" {
				v.verdict, v.reason = unresolved, note
			}
			q := quartiles(p)
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g\t%d/%d\t%s",
				wl, m.Name, median(p), q[0], q[2], median(c), v.wins, v.pairs, v.verdict)
			if v.reason != "" {
				fmt.Fprintf(tw, " (%s)", v.reason)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}

const (
	improved     = "improved"
	noRegression = "no regression"
	regressed    = "regressed"
	unresolved   = "unresolved"
)

type judgement struct {
	verdict     string
	reason      string
	wins, pairs int
}

// judge applies the verdict rule to paired values: parent[i] ran beside
// change[i]. A nil bound marks a metric that carries none.
func judge(parent, change []float64, higherBetter bool, bound *float64) judgement {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	n := min(len(parent), len(change))
	j := judgement{pairs: n}
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	if n < minPairs {
		j.verdict, j.reason = unresolved, fmt.Sprintf("fewer than %d pairs", minPairs)
		return j
	}
	mp, mc := median(parent), median(change)
	q := quartiles(parent)
	if 10*j.wins >= 9*n && better(mc, mp) && math.Abs(mc-mp) > q[2]-q[0] {
		j.verdict = improved
		return j
	}
	if bound == nil {
		j.verdict, j.reason = unresolved, "no bound"
		return j
	}
	allBetter := true
	for _, c := range change[:n] {
		for _, p := range parent[:n] {
			allBetter = allBetter && better(c, p)
		}
	}
	if mp != 0 && (q[2]-q[0])/math.Abs(mp) > *bound && !allBetter {
		j.verdict, j.reason = unresolved, "spread wider than the bound"
		return j
	}
	worse := (mc - mp) / math.Abs(mp)
	if higherBetter {
		worse = -worse
	}
	if worse > *bound {
		j.verdict = regressed
		return j
	}
	j.verdict = noRegression
	return j
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	var q [3]float64
	if n == 0 {
		return q
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - 4*j
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

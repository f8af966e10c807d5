package main

import (
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	bound := 0.1
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		bound          *float64
		want           string
	}{
		{"faster wins every pair", base, scaled(0.9), false, &bound, improved},
		{"same speed", base, scaled(1.0), false, &bound, noRegression},
		{"slower within the bound", base, scaled(1.05), false, &bound, noRegression},
		{"slower beyond the bound", base, scaled(1.2), false, &bound, regressed},
		{"higher is better", base, scaled(0.8), true, &bound, regressed},
		{"parent spread wider than the bound", noisy, noisy, false, &bound, unresolved},
		{"too few pairs", base[:5], scaled(0.5)[:5], false, &bound, unresolved},
		{"no bound, no gain", base, base, false, nil, unresolved},
		{"no bound, clear gain", base, scaled(0.5), false, nil, improved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := judge(tc.parent, tc.change, tc.higherBetter, tc.bound); got.verdict != tc.want {
				t.Errorf("verdict %q (%s), want %q", got.verdict, got.reason, tc.want)
			}
		})
	}
}

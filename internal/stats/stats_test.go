package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLatencyAccumBasics(t *testing.T) {
	var a LatencyAccum
	if a.Count() != 0 || a.Sum() != 0 || a.Max() != 0 {
		t.Fatal("zero accum not zero")
	}
	a.Add(10)
	a.Add(30)
	a.Add(20)
	if a.Count() != 3 || a.Sum() != 60 || a.Max() != 30 {
		t.Fatalf("accum wrong: %+v", a)
	}
}

func TestLatencyAccumMeanMicros(t *testing.T) {
	var a LatencyAccum
	a.Add(1500 * sim.Nanosecond)
	a.Add(2500 * sim.Nanosecond)
	if got := a.MeanMicros(); got != 2.0 {
		t.Fatalf("MeanMicros = %v", got)
	}
	var empty LatencyAccum
	if empty.MeanMicros() != 0 {
		t.Fatal("empty MeanMicros not 0")
	}
}

func TestLatencyAccumMerge(t *testing.T) {
	var a, b LatencyAccum
	a.Add(10)
	b.Add(30)
	b.Add(50)
	a.Merge(&b)
	if a.Count() != 3 || a.Sum() != 90 || a.Max() != 50 {
		t.Fatalf("merge wrong: count=%d sum=%v max=%v", a.Count(), a.Sum(), a.Max())
	}
	var empty LatencyAccum
	a.Merge(&empty) // no-op
	if a.Count() != 3 || a.Sum() != 90 || a.Max() != 50 {
		t.Fatal("merging empty changed the accumulator")
	}
	empty.Merge(&a)
	if empty != a {
		t.Fatalf("merging into empty = %+v, want %+v", empty, a)
	}
}

func TestLatencyAccumProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		var a LatencyAccum
		var sum, max sim.Time
		for _, s := range samples {
			a.Add(sim.Time(s))
			sum += sim.Time(s)
			if sim.Time(s) > max {
				max = sim.Time(s)
			}
		}
		return a.Count() == uint64(len(samples)) && a.Sum() == sum && a.Max() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(100 * sim.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Add(8 * sim.Millisecond)
	}
	if h.accum.Count() != 110 {
		t.Fatalf("count = %d", h.accum.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 50*sim.Microsecond || p50 > 200*sim.Microsecond {
		t.Fatalf("p50 = %v, want ~100us", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 4*sim.Millisecond {
		t.Fatalf("p99 = %v, want ~8ms", p99)
	}
	if h.Quantile(0) > p50 || h.Quantile(1) < p99 {
		t.Fatal("quantiles not monotone")
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile not 0")
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Add(0)       // clamps to bucket 0
	h.Add(1 << 62) // clamps to last bucket
	if h.buckets[0] != 1 || h.buckets[120] != 1 || h.accum.Count() != 2 {
		t.Fatal("extremes not clamped to the end buckets")
	}
}

func TestSeriesAndFigureCSV(t *testing.T) {
	fig := NewFigure("Read Latency", "wss", "us")
	s1 := fig.AddSeries("no flash")
	s2 := fig.AddSeries("64G flash")
	s1.Add(10, 100)
	s1.Add(20, 200)
	s2.Add(10, 50)
	csv := fig.CSV()
	if !strings.Contains(csv, "# Read Latency") {
		t.Fatal("missing title")
	}
	if !strings.Contains(csv, "wss,no flash,64G flash") {
		t.Fatalf("missing header: %q", csv)
	}
	if !strings.Contains(csv, "10,100.000,50.000") {
		t.Fatalf("missing joined row: %q", csv)
	}
	if !strings.Contains(csv, "20,200.000,") {
		t.Fatalf("missing gap row: %q", csv)
	}
}

func TestFigureASCII(t *testing.T) {
	fig := NewFigure("T", "x", "y")
	s := fig.AddSeries("s")
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	out := fig.ASCII(40, 10)
	if !strings.Contains(out, "o") {
		t.Fatal("no points plotted")
	}
	if !strings.Contains(out, "o = s") {
		t.Fatal("no legend")
	}
	empty := NewFigure("E", "x", "y")
	if !strings.Contains(empty.ASCII(40, 10), "no data") {
		t.Fatal("empty figure should say no data")
	}
}

func TestFigureASCIIDegenerate(t *testing.T) {
	fig := NewFigure("T", "x", "y")
	s := fig.AddSeries("s")
	s.Add(5, 7) // single point: min==max on both axes
	out := fig.ASCII(30, 6)
	if !strings.Contains(out, "o") {
		t.Fatal("single point not plotted")
	}
}

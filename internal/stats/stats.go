// Package stats provides the measurement substrate: latency accumulators,
// log-scaled histograms, and series containers used by the experiment
// harness to emit the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// LatencyAccum accumulates a stream of latencies.
type LatencyAccum struct {
	count uint64
	sum   sim.Time
	max   sim.Time
}

// Add records one sample.
func (a *LatencyAccum) Add(t sim.Time) {
	if t > a.max {
		a.max = t
	}
	a.count++
	a.sum += t
}

// Count returns the number of samples.
func (a *LatencyAccum) Count() uint64 { return a.count }

// Sum returns the total of all samples.
func (a *LatencyAccum) Sum() sim.Time { return a.sum }

// MeanMicros returns the mean in microseconds as a float64.
func (a *LatencyAccum) MeanMicros() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.count) / float64(sim.Microsecond)
}

// Max returns the largest sample (0 with no samples).
func (a *LatencyAccum) Max() sim.Time { return a.max }

// Merge folds other into a.
func (a *LatencyAccum) Merge(other *LatencyAccum) {
	if other.max > a.max {
		a.max = other.max
	}
	a.count += other.count
	a.sum += other.sum
}

// Histogram is a logarithmically bucketed latency histogram covering
// 1 ns to ~1000 s with 10 buckets per decade.
type Histogram struct {
	buckets [121]uint64
	accum   LatencyAccum
}

func bucketFor(t sim.Time) int {
	if t < 1 {
		t = 1
	}
	b := int(math.Floor(10 * math.Log10(float64(t))))
	if b < 0 {
		b = 0
	}
	if b >= 121 {
		b = 120
	}
	return b
}

// Add records one sample.
func (h *Histogram) Add(t sim.Time) {
	h.buckets[bucketFor(t)]++
	h.accum.Add(t)
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.accum.Merge(&other.accum)
}

// Quantile returns an approximate quantile (q in [0,1]) using bucket lower
// bounds; adequate for reporting p50/p99 shapes.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.accum.Count() == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.accum.Count()))
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			return sim.Time(math.Pow(10, float64(i)/10))
		}
	}
	return h.accum.Max()
}

// HistogramBucket is one exported histogram bucket: the bucket's lower
// bound in nanoseconds and its sample count.
type HistogramBucket struct {
	LowNanos sim.Time `json:"low_ns"`
	Count    uint64   `json:"count"`
}

// Buckets returns the non-empty buckets in ascending order; bucket lower
// bounds follow the 10-per-decade log grid Quantile interpolates on.
// Machine-readable exports serialize this instead of the raw array so a
// sparse histogram stays small.
func (h *Histogram) Buckets() []HistogramBucket {
	var out []HistogramBucket
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		out = append(out, HistogramBucket{
			LowNanos: sim.Time(math.Pow(10, float64(i)/10)),
			Count:    c,
		})
	}
	return out
}

// Point is one (x, y) sample of a plotted series.
type Point struct {
	X float64
	Y float64
}

// Series is a named line on a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Figure collects the series that regenerate one paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure returns an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries registers and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// CSV renders the figure as CSV with one column per series, joining on X.
func (f *Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(s.Name)
	}
	b.WriteString("\n")
	// Collect the union of X values in order.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			found := false
			for _, p := range s.Points {
				if p.X == x {
					fmt.Fprintf(&b, ",%.3f", p.Y)
					found = true
					break
				}
			}
			if !found {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ASCII renders a crude monospace plot of the figure, good enough to read
// shapes in a terminal.
func (f *Figure) ASCII(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	var minX, maxX, minY, maxY float64
	first := true
	for _, s := range f.Series {
		for _, p := range s.Points {
			if first {
				minX, maxX, minY, maxY = p.X, p.X, p.Y, p.Y
				first = false
				continue
			}
			minX = math.Min(minX, p.X)
			maxX = math.Max(maxX, p.X)
			minY = math.Min(minY, p.Y)
			maxY = math.Max(maxY, p.Y)
		}
	}
	if first {
		return f.Title + ": (no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "ox+*#@%&"
	for si, s := range f.Series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			cx := int((p.X - minX) / (maxX - minX) * float64(width-1))
			cy := int((p.Y - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - cy
			grid[row][cx] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [y: %s %.1f..%.1f | x: %s %g..%g]\n",
		f.Title, f.YLabel, minY, maxY, f.XLabel, minX, maxX)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	for si, s := range f.Series {
		fmt.Fprintf(&b, "   %c = %s\n", marks[si%len(marks)], s.Name)
	}
	return b.String()
}

package experiments

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// quickOpts runs experiments at a tiny scale so the whole suite stays fast
// while still crossing the fits-in-flash / falls-out-of-flash boundary.
func quickOpts() Options {
	return Options{Scale: 4096, Quick: true}
}

func findSeries(t *testing.T, fig *stats.Figure, name string) *stats.Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figure %q has no series %q", fig.Title, name)
	return nil
}

func pointAt(t *testing.T, s *stats.Series, x float64) float64 {
	t.Helper()
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	t.Fatalf("series %q has no point at x=%g (have %v)", s.Name, x, s.Points)
	return 0
}

func TestNamesAndLookup(t *testing.T) {
	names := Names()
	if len(names) != 23 {
		t.Fatalf("want 23 experiments (table1, 12 figures, 9 extensions, validate), got %d: %v", len(names), names)
	}
	for _, n := range names {
		if _, ok := Lookup(n); !ok {
			t.Fatalf("Lookup(%q) failed", n)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestTable1(t *testing.T) {
	rep, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 {
		t.Fatal("table missing")
	}
	for _, want := range []string{"RAM read", "Flash read", "88", "21", "7952", "90%"} {
		if !strings.Contains(rep.Tables[0], want) {
			t.Fatalf("table missing %q:\n%s", want, rep.Tables[0])
		}
	}
}

func TestFig1Shape(t *testing.T) {
	rep, err := Fig1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	read := findSeries(t, fig, "read latency")
	write := findSeries(t, fig, "write latency")
	if len(read.Points) < 5 || len(write.Points) < 5 {
		t.Fatalf("too few points: %d read, %d write", len(read.Points), len(write.Points))
	}
	// Write latency is flat: last bucket within 30% of first (paper:
	// "a single average write latency from beginning to end").
	wFirst, wLast := write.Points[0].Y, write.Points[len(write.Points)-1].Y
	if wLast > wFirst*1.3 || wLast < wFirst*0.7 {
		t.Fatalf("write latency drifted: first %.1f last %.1f", wFirst, wLast)
	}
	// Read latency degrades as the device fills (weak relationship).
	rFirst, rLast := read.Points[0].Y, read.Points[len(read.Points)-1].Y
	if rLast < rFirst {
		t.Fatalf("read latency improved with wear: first %.1f last %.1f", rFirst, rLast)
	}
}

func TestFig2Shape(t *testing.T) {
	rep, err := Fig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	readFig, writeFig := rep.Figures[0], rep.Figures[1]
	// Quick policy order: s, a, p1, n; combo index = ram*4 + flash.
	naiveW := findSeries(t, writeFig, "naive")
	ss := pointAt(t, naiveW, 0) // (s, s): fully synchronous
	aa := pointAt(t, naiveW, 5) // (a, a): fully asynchronous
	// The synchronous chain costs RAM (0.4) + flash (21) + data packet
	// (41) + filer write (92) + ack (8.2) ~= 163 us before queueing.
	if ss < 120 {
		t.Fatalf("naive (s,s) write latency %.1f us; expected filer-speed writes", ss)
	}
	if aa > 5 {
		t.Fatalf("naive (a,a) write latency %.1f us; expected RAM-speed writes", aa)
	}
	// The paper's headline: policy does not matter for reads except at
	// the synchronous corners. Compare (a,a) with (p1,p1).
	naiveR := findSeries(t, readFig, "naive")
	raa := pointAt(t, naiveR, 5)
	rpp := pointAt(t, naiveR, 10)
	if diff := raa - rpp; diff > raa*0.3 || diff < -raa*0.3 {
		t.Fatalf("read latency differs across benign policies: a/a=%.1f p1/p1=%.1f", raa, rpp)
	}
	// Unified writes expose flash latency: higher than naive's (a,a).
	uniW := findSeries(t, writeFig, "unified")
	if pointAt(t, uniW, 5) <= aa {
		t.Fatalf("unified (a,a) write %.1f not above naive %.1f", pointAt(t, uniW, 5), aa)
	}
	if len(rep.Tables) == 0 {
		t.Fatal("fig2 table missing")
	}
}

func TestFig3Shape(t *testing.T) {
	rep, err := Fig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	flash := findSeries(t, fig, "8G RAM, 64G flash, Naive")
	ramSpeed := findSeries(t, fig, "8G RAM, 64G RAM, Naive")
	// At a flash-fitting working set the RAM-speed variant must be
	// faster: the gap is the flash medium's latency contribution.
	if pointAt(t, ramSpeed, 40) >= pointAt(t, flash, 40) {
		t.Fatalf("flash-at-RAM-speed (%.1f) not faster than real flash (%.1f)",
			pointAt(t, ramSpeed, 40), pointAt(t, flash, 40))
	}
}

func TestFig4Shape(t *testing.T) {
	rep, err := Fig4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	noFlash := findSeries(t, fig, "No flash")
	flash64 := findSeries(t, fig, "64 GB flash")
	flash128 := findSeries(t, fig, "128 GB flash")
	// Working set fits 64 GB flash: dramatic improvement.
	if pointAt(t, flash64, 40) >= pointAt(t, noFlash, 40)/2 {
		t.Fatalf("64G flash at 40GB WS (%.1f) not dramatically better than none (%.1f)",
			pointAt(t, flash64, 40), pointAt(t, noFlash, 40))
	}
	// Far beyond all caches, flash still helps but less.
	if pointAt(t, flash64, 320) >= pointAt(t, noFlash, 320) {
		t.Fatalf("64G flash worse than none at 320GB WS")
	}
	// Bigger flash is never worse at the crossover point.
	if pointAt(t, flash128, 80) > pointAt(t, flash64, 80)*1.1 {
		t.Fatalf("128G flash (%.1f) worse than 64G (%.1f) at 80GB",
			pointAt(t, flash128, 80), pointAt(t, flash64, 80))
	}
}

func TestFig5Shape(t *testing.T) {
	rep, err := Fig5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	lo := findSeries(t, fig, "No flash; 80% prefetch rate")
	hi := findSeries(t, fig, "No flash; 95% prefetch rate")
	// Prefetch rate dominates at large working sets.
	if pointAt(t, hi, 320) >= pointAt(t, lo, 320) {
		t.Fatalf("95%% prefetch (%.1f) not faster than 80%% (%.1f)",
			pointAt(t, hi, 320), pointAt(t, lo, 320))
	}
}

func TestFig6Shape(t *testing.T) {
	rep, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	writeA := findSeries(t, fig, "Write (a)")
	writeP1 := findSeries(t, fig, "Write (p1)")
	// With async write-through, a tiny RAM cache suffices as a write
	// buffer (paper: 256 KB); x is in KB, 64 blocks = 256 KB.
	tiny := pointAt(t, writeA, 256)
	if tiny > 25 {
		t.Fatalf("async write with 256KB RAM costs %.1f us; want near flash speed", tiny)
	}
	// The periodic syncer cannot keep a tiny cache clean: p1 writes at
	// 256 KB are far worse than async.
	if pointAt(t, writeP1, 256) < tiny*2 {
		t.Fatalf("p1 (%.1f) not worse than a (%.1f) at 256KB RAM",
			pointAt(t, writeP1, 256), tiny)
	}
}

func TestFig7Shape(t *testing.T) {
	rep, err := Fig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	readA := findSeries(t, fig, "Read (a)")
	// RAM-sized working set: big RAM (last point) beats tiny RAM (256KB),
	// since the whole working set fits in the full-size cache.
	last := readA.Points[len(readA.Points)-1].Y
	if last >= pointAt(t, readA, 256) {
		t.Fatalf("full RAM (%.1f) not faster than 256KB (%.1f) on RAM-sized WS",
			last, pointAt(t, readA, 256))
	}
}

func TestFig8Shape(t *testing.T) {
	rep, err := Fig8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	readFig := rep.Figures[0]
	r80 := findSeries(t, readFig, "Read (80 GB)")
	// Flat until high write percentages.
	lo, mid := pointAt(t, r80, 10), pointAt(t, r80, 60)
	if mid > lo*1.4 || mid < lo*0.6 {
		t.Fatalf("read latency not stable: 10%%=%.1f 60%%=%.1f", lo, mid)
	}
}

func TestFig9Shape(t *testing.T) {
	rep, err := Fig9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	naive := findSeries(t, fig, "Read naive (80 GB)")
	// Latency scales with flash speed: PCM-like (1us) beats 88us flash.
	if pointAt(t, naive, 1) >= pointAt(t, naive, 88) {
		t.Fatalf("faster flash (%.1f) not faster than slow flash (%.1f)",
			pointAt(t, naive, 1), pointAt(t, naive, 88))
	}
}

func TestFig10Shape(t *testing.T) {
	rep, err := Fig10(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := rep.Figures[0]
	warm := findSeries(t, fig, "64 GB flash warmed")
	cold := findSeries(t, fig, "64 GB flash, not warmed")
	noFlash := findSeries(t, fig, "No flash warmed")
	// At a flash-fitting working set: warm flash clearly beats cold
	// flash, which still beats (or ties) nothing at all.
	if pointAt(t, warm, 40) >= pointAt(t, cold, 40) {
		t.Fatalf("warmed (%.1f) not faster than cold (%.1f)",
			pointAt(t, warm, 40), pointAt(t, cold, 40))
	}
	if pointAt(t, cold, 40) > pointAt(t, noFlash, 40)*1.2 {
		t.Fatalf("cold flash (%.1f) much worse than no flash (%.1f)",
			pointAt(t, cold, 40), pointAt(t, noFlash, 40))
	}
}

func TestFig11Shape(t *testing.T) {
	rep, err := Fig11(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	invalFig := rep.Figures[0]
	flash := findSeries(t, invalFig, "64 GB flash (60 GB)")
	noFlash := findSeries(t, invalFig, "No flash (60 GB)")
	// Flash's larger caches hold far more shared blocks, so a much
	// larger fraction of writes invalidate.
	if pointAt(t, flash, 30) <= pointAt(t, noFlash, 30) {
		t.Fatalf("flash invalidation rate (%.1f%%) not above no-flash (%.1f%%)",
			pointAt(t, flash, 30), pointAt(t, noFlash, 30))
	}
}

func TestFig12Shape(t *testing.T) {
	rep, err := Fig12(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	invalFig := rep.Figures[0]
	flash := findSeries(t, invalFig, "64 GB flash")
	// Invalidation rate is high for flash-fitting working sets and
	// drops off beyond.
	if pointAt(t, flash, 40) <= pointAt(t, flash, 320) {
		t.Fatalf("invalidation rate did not drop out-of-cache: 40GB=%.1f%% 320GB=%.1f%%",
			pointAt(t, flash, 40), pointAt(t, flash, 320))
	}
	if pointAt(t, flash, 40) < 30 {
		t.Fatalf("fitting-WS invalidation rate only %.1f%%, want high", pointAt(t, flash, 40))
	}
}

// TestOptionDefaults: the zero Options run at the default 1:128 scale
// over the full working-set sweep.
func TestOptionDefaults(t *testing.T) {
	var o Options
	if o.scale() != 128 {
		t.Fatalf("default scale %d, want 128", o.scale())
	}
	if n := len(wssSweepGB(o)); n != 12 {
		t.Fatalf("full sweep has %d points, want 12", n)
	}
}

// TestTimeToThresholdCensored: a series that never reaches the threshold
// reports the censoring value.
func TestTimeToThresholdCensored(t *testing.T) {
	ts := stats.NewTimeSeries("t", "hit")
	ts.Append(1, []float64{0.2})
	ts.Append(2, []float64{0.4})
	if got := timeToThreshold(ts, "hit", 0, 0.9, 99); got != 99 {
		t.Fatalf("got %v, want the censoring value 99", got)
	}
	if got := timeToThreshold(ts, "hit", 0, 0.3, 99); got != 2 {
		t.Fatalf("got %v, want 2", got)
	}
}

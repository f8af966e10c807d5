package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// The sampling decision is a pure function of (host, seq): repeated
// evaluation must agree, the boundary rates must be exact, and a
// mid-range rate must land near its nominal fraction (the hash is a
// fixed permutation, so the observed rate is itself deterministic).
func TestSamplerDeterminism(t *testing.T) {
	tr := NewTracer(0.1)
	for seq := uint64(1); seq <= 1000; seq++ {
		if tr.sampled(3, seq) != tr.sampled(3, seq) {
			t.Fatalf("seq %d: decision not stable", seq)
		}
	}
	all, none := NewTracer(1), NewTracer(0)
	hits := 0
	const n = 100000
	for seq := uint64(1); seq <= n; seq++ {
		if !all.sampled(0, seq) {
			t.Fatalf("rate 1 skipped seq %d", seq)
		}
		if none.sampled(0, seq) {
			t.Fatalf("rate 0 sampled seq %d", seq)
		}
		if tr.sampled(0, seq) {
			hits++
		}
	}
	if got := float64(hits) / n; got < 0.08 || got > 0.12 {
		t.Errorf("rate 0.1 sampled %.4f of %d requests", got, n)
	}
}

// NextSampled peeks without consuming: the value it predicts must be
// exactly what the following StartReq returns.
func TestNextSampledPeeks(t *testing.T) {
	ht := NewTracer(0.25).Host(7)
	for i := 0; i < 2000; i++ {
		want := ht.NextSampled()
		if got := ht.StartReq(); got != want {
			t.Fatalf("request %d: NextSampled %d, StartReq %d", i, want, got)
		}
	}
	if ht.seq != 2000 {
		t.Fatalf("sequence advanced to %d, want 2000", ht.seq)
	}
}

// Host registers each buffer once and returns the same one thereafter.
func TestHostRegistration(t *testing.T) {
	tr := NewTracer(1)
	h2 := tr.Host(2)
	if tr.Host(2) != h2 {
		t.Fatal("Host(2) not stable")
	}
	if tr.Host(0) == h2 || tr.Host(0) != tr.Host(0) {
		t.Fatal("host buffers aliased or unstable")
	}
}

// Spans merges per-host buffers into the documented deterministic
// order: start time, then host, then sequence, then stage.
func TestSpansOrdering(t *testing.T) {
	tr := NewTracer(1)
	a, b := tr.Host(1), tr.Host(0)
	a.Add(2, KindRead, 11, 500, 900)
	a.Add(1, KindRead, 10, 100, 300)
	b.Add(1, KindQueue, 0, 100, 100)
	b.Add(1, KindWrite, 12, 100, 400)
	// Same start, host, sequence and kind: the earlier end goes first.
	b.Add(3, KindRead, 13, 700, 800)
	b.Add(3, KindRead, 14, 700, 750)
	spans := tr.Spans()
	if len(spans) != 6 {
		t.Fatalf("merged %d spans, want 6", len(spans))
	}
	want := []Span{
		{Host: 0, Kind: KindQueue, Seq: 1, Key: 0, Start: 100, End: 100},
		{Host: 0, Kind: KindWrite, Seq: 1, Key: 12, Start: 100, End: 400},
		{Host: 1, Kind: KindRead, Seq: 1, Key: 10, Start: 100, End: 300},
		{Host: 1, Kind: KindRead, Seq: 2, Key: 11, Start: 500, End: 900},
		{Host: 0, Kind: KindRead, Seq: 3, Key: 14, Start: 700, End: 750},
		{Host: 0, Kind: KindRead, Seq: 3, Key: 13, Start: 700, End: 800},
	}
	for i, s := range spans {
		if s != want[i] {
			t.Errorf("span %d: got %+v, want %+v", i, s, want[i])
		}
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < kindCount; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Errorf("kind %d has no export name", k)
		}
		if seen[name] {
			t.Errorf("kind name %q duplicated", name)
		}
		seen[name] = true
	}
	if kindCount.String() != "unknown" {
		t.Error("out-of-range kind should render unknown")
	}
}

// appendMicros renders simulated nanoseconds as decimal microseconds.
func TestAppendMicros(t *testing.T) {
	cases := []struct {
		t    sim.Time
		want string
	}{
		{0, "0"},
		{1000, "1"},
		{1500, "1.500"},
		{1234567, "1234.567"},
		{42, "0.042"},
	}
	for _, tc := range cases {
		if got := string(appendMicros(nil, tc.t)); got != tc.want {
			t.Errorf("appendMicros(%d) = %q, want %q", tc.t, got, tc.want)
		}
	}
}

// The Chrome writer and validator agree: every span written comes back
// as one validated complete event, and per-host metadata rides along.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(1)
	tr.Host(0).Add(1, KindRead, 5, 0, 2500)
	tr.Host(0).Add(1, KindRAMHit, 5, 100, 100)
	tr.Host(3).Add(2, KindFiler, 9, 1000, 9000)
	spans := tr.Spans()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, buf.String())
	}
	if n != len(spans) {
		t.Fatalf("validated %d spans, wrote %d", n, len(spans))
	}
	for _, want := range []string{`"name":"host 0"`, `"name":"host 3"`, `"name":"ram_hit"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace missing %s", want)
		}
	}

	// A namer may refine names; returning "" keeps the stage name.
	buf.Reset()
	err = WriteChromeTrace(&buf, spans, ChromeOptions{Namer: func(s Span) string {
		if s.Kind == KindFiler {
			return "filer_fast"
		}
		return ""
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"filer_fast"`) ||
		!strings.Contains(buf.String(), `"name":"read"`) {
		t.Errorf("namer not applied:\n%s", buf.String())
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	bad := []string{
		`not json`,
		`{}`,
		`{"traceEvents":[{"ph":"X","ts":1,"dur":1,"pid":0,"tid":0}]}`,     // no name
		`{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":1}]}`,          // no pid/tid
		`{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"dur":1}]}`, // no ts
		`{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":0,"tid":0}]}`,  // bad phase
		`{"traceEvents":[{"name":"x","ph":"X","ts":-1,"dur":1,"pid":0,"tid":0}]}`,
		`{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":0,"tid":0}]}`, // no dur
	}
	for _, s := range bad {
		if _, err := ValidateChromeTrace(strings.NewReader(s)); err == nil {
			t.Errorf("accepted %s", s)
		}
	}
	n, err := ValidateChromeTrace(strings.NewReader(`{"traceEvents":[]}`))
	if err != nil || n != 0 {
		t.Errorf("empty trace: %d, %v", n, err)
	}
}

// The wall collector's cumulative accounting: per-shard execution
// snapshots, barrier wait only in parallel mode, epoch-length gauges,
// and one series row per wallStride epochs plus the partial at Finish.
func TestWallCollectorAccounting(t *testing.T) {
	c := NewWallCollector(2, true)
	exec := make([]int64, 2)
	epochs := wallStride + 3
	for i := 1; i <= epochs; i++ {
		c.EpochStart()
		exec[0] += 1000
		exec[1] += 3000
		c.EpochEnd(exec, sim.Time(i)*sim.Microsecond, sim.Time(i)*sim.Millisecond)
	}
	c.AddMerge(5 * time.Millisecond)
	c.AddFiler1(2 * time.Millisecond)
	c.AddFiler2(time.Millisecond)
	p := c.Finish(sim.Time(epochs) * sim.Millisecond)

	if p.Epochs != uint64(epochs) {
		t.Errorf("epochs %d, want %d", p.Epochs, epochs)
	}
	if p.ExecNanos[0] != exec[0] || p.ExecNanos[1] != exec[1] {
		t.Errorf("exec %v, want %v", p.ExecNanos, exec)
	}
	if p.ExecTotalNanos() != exec[0]+exec[1] {
		t.Errorf("exec total %d", p.ExecTotalNanos())
	}
	// The epoch span is real wall time (near zero in this loop), so the
	// wait bucket only needs to be non-negative here; the sleep-driven
	// test below pins its sign and magnitude.
	if p.BarrierWaitNanos < 0 {
		t.Errorf("barrier wait %d ns negative", p.BarrierWaitNanos)
	}
	if p.MinEpochSim != sim.Microsecond || p.MaxEpochSim != sim.Time(epochs)*sim.Microsecond {
		t.Errorf("epoch gauges %s..%s", p.MinEpochSim, p.MaxEpochSim)
	}
	if p.MergeNanos != int64(5*time.Millisecond) || p.FilerPhase1Nanos != int64(2*time.Millisecond) ||
		p.FilerPhase2Nanos != int64(time.Millisecond) {
		t.Errorf("coordinator buckets %d/%d/%d", p.MergeNanos, p.FilerPhase1Nanos, p.FilerPhase2Nanos)
	}
	// (max-min)/mean with per-shard 1000 and 3000 ns/epoch: 2000/2000 = 1.
	if got := p.Imbalance(); got < 0.99 || got > 1.01 {
		t.Errorf("imbalance %f, want 1", got)
	}
	if p.Series.Len() != 2 {
		t.Errorf("series rows %d, want 2 (full window + Finish partial)", p.Series.Len())
	}
	if p.Series.NumColumns() != 6 {
		t.Errorf("series columns %d", p.Series.NumColumns())
	}
}

// A parallel epoch whose span (real time) dwarfs the shards' reported
// execution charges nearly the whole span to barrier wait, for every
// shard.
func TestWallCollectorBarrierWait(t *testing.T) {
	c := NewWallCollector(2, true)
	exec := make([]int64, 2)
	const epochs = 3
	for i := 1; i <= epochs; i++ {
		c.EpochStart()
		time.Sleep(2 * time.Millisecond)
		exec[0] += 1000
		exec[1] += 3000
		c.EpochEnd(exec, sim.Microsecond, sim.Time(i)*sim.Millisecond)
	}
	p := c.Finish(epochs * sim.Millisecond)
	// Each epoch spans >= 2 ms while each shard executed only a few µs,
	// so both shards wait nearly the whole span: >= 2 ms per shard-epoch
	// minus the reported execution.
	minWait := int64(epochs)*2*int64(time.Millisecond)*2 - p.ExecTotalNanos()
	if p.BarrierWaitNanos < minWait {
		t.Errorf("barrier wait %d ns, want >= %d", p.BarrierWaitNanos, minWait)
	}
	if share := p.BarrierShare(); share < 0.9 || share >= 1 {
		t.Errorf("barrier share %f, want near 1", share)
	}
}

// Inline (non-parallel) runs charge no barrier wait by construction.
func TestWallCollectorInlineNoBarrier(t *testing.T) {
	c := NewWallCollector(2, false)
	exec := []int64{100, 900}
	c.EpochStart()
	c.EpochEnd(exec, sim.Microsecond, sim.Millisecond)
	p := c.Finish(sim.Millisecond)
	if p.BarrierWaitNanos != 0 {
		t.Errorf("inline run charged %d ns barrier wait", p.BarrierWaitNanos)
	}
	if p.BarrierShare() != 0 {
		t.Errorf("inline barrier share %f", p.BarrierShare())
	}
	if !strings.Contains(p.Summary(), "share 0.0%") {
		t.Errorf("summary:\n%s", p.Summary())
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	if imbalance(nil) != 0 || imbalance([]int64{0, 0}) != 0 || imbalance([]int64{5000}) != 0 {
		t.Error("degenerate imbalance not 0")
	}
}

func TestWallProfileEmptyBarrierShare(t *testing.T) {
	var p WallProfile
	if s := p.BarrierShare(); s != 0 {
		t.Fatalf("empty profile barrier share %v, want 0", s)
	}
}

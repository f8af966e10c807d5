package flashsim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

// smallConfig returns a fast config (1:1024 scale) for tests.
func smallConfig() Config { return ScaledConfig(1024) }

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunBaseline(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadLatencyMicros <= 0 || res.WriteLatencyMicros <= 0 {
		t.Fatalf("latencies not measured: %+v", res)
	}
	// Baseline naive with p1/a: writes land in RAM at ~0.4 us; allow for
	// occasional eviction stalls.
	if res.WriteLatencyMicros > 5 {
		t.Fatalf("write latency %.2f us too high for naive baseline", res.WriteLatencyMicros)
	}
	// 60 GB working set in 64 GB flash: flash hit rate should be high.
	if res.FlashHitRate < 0.5 {
		t.Fatalf("flash hit rate %.2f too low for fitting working set", res.FlashHitRate)
	}
	if res.OpsCompleted == 0 || res.Events == 0 || res.SimulatedSeconds <= 0 {
		t.Fatal("run bookkeeping empty")
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.ReadLatencyMicros != b.ReadLatencyMicros ||
		a.WriteLatencyMicros != b.WriteLatencyMicros ||
		a.Events != b.Events {
		t.Fatalf("same config diverged: %+v vs %+v", a, b)
	}
}

func TestRunSeedMatters(t *testing.T) {
	cfg := smallConfig()
	a, _ := Run(cfg)
	cfg.Workload.Seed = 99
	b, _ := Run(cfg)
	if a.Events == b.Events && a.ReadLatencyMicros == b.ReadLatencyMicros {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestNoFlashVsFlash(t *testing.T) {
	cfg := smallConfig()
	with, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FlashBlocks = 0
	without, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: a flash cache dramatically improves read
	// latency when the working set exceeds RAM (paper Figure 4).
	if with.ReadLatencyMicros >= without.ReadLatencyMicros {
		t.Fatalf("flash (%.1f us) not better than no flash (%.1f us)",
			with.ReadLatencyMicros, without.ReadLatencyMicros)
	}
	if without.FlashHitRate != 0 {
		t.Fatal("phantom flash hits without flash")
	}
}

func TestColdStartWorse(t *testing.T) {
	cfg := smallConfig()
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ColdStart = true
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cold caches must hurt read latency (paper Figure 10).
	if cold.ReadLatencyMicros <= warm.ReadLatencyMicros {
		t.Fatalf("cold start (%.1f us) not worse than warmed (%.1f us)",
			cold.ReadLatencyMicros, warm.ReadLatencyMicros)
	}
}

func TestUnifiedArchRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Arch = Unified
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unified exposes flash write latency for ~8/9 of writes.
	if res.WriteLatencyMicros < 5 {
		t.Fatalf("unified write latency %.2f us suspiciously low", res.WriteLatencyMicros)
	}
}

func TestTwoHostsSharedWorkingSet(t *testing.T) {
	cfg := smallConfig()
	cfg.Hosts = 2
	cfg.Workload.SharedWorkingSet = true
	cfg.Workload.WorkingSetBlocks /= 2 // keep runtime modest
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksWrittenShared == 0 {
		t.Fatal("registry saw no writes")
	}
	if res.InvalidationFraction <= 0 {
		t.Fatal("no invalidations with a shared working set")
	}
}

func TestRunTraceExplicitSource(t *testing.T) {
	cfg := smallConfig()
	ops := []trace.Op{
		{Host: 0, Thread: 0, Kind: trace.Read, File: 1, Block: 0, Count: 8},
		{Host: 0, Thread: 0, Kind: trace.Write, File: 1, Block: 0, Count: 8},
	}
	res, err := RunTrace(cfg, trace.NewSliceSource(ops), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksIssued != 16 {
		t.Fatalf("blocks issued = %d, want 16", res.BlocksIssued)
	}
}

// TestRunTraceRejectsBadTrace: a binary trace cut mid-record and a
// zero-length op both fail the run on either executor, instead of running
// the prefix and reporting success.
func TestRunTraceRejectsBadTrace(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := w.Write(trace.Op{Thread: uint16(i % 8), Kind: trace.Read, File: 1, Block: uint32(i), Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:8+1000*17+5] // header, 1,000 whole 17-byte records and part of one
	zero := []trace.Op{
		{Kind: trace.Read, File: 1, Count: 8},
		{Kind: trace.Write, File: 1, Block: 8},
		{Kind: trace.Read, File: 1, Count: 8},
	}
	for _, shards := range []int{0, 1} {
		cfg := smallConfig()
		cfg.Shards = shards
		src, err := OpenBinaryTrace(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := RunTrace(cfg, src, 0); err == nil || !strings.Contains(err.Error(), "after 1000 ops") {
			t.Errorf("shards %d: truncated trace gave %v, %v; want an error after 1000 ops", shards, res, err)
		}
		if res, err := RunTrace(cfg, trace.NewSliceSource(zero), 0); err == nil || !strings.Contains(err.Error(), "zero-length") {
			t.Errorf("shards %d: zero-length op gave %v, %v; want an error", shards, res, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := smallConfig()
	bad.Hosts = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero hosts accepted")
	}
	bad = smallConfig()
	bad.Workload.WorkingSetBlocks = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero working set accepted")
	}
	bad = smallConfig()
	bad.Timing.FilerFastReadRate = 3
	if _, err := Run(bad); err == nil {
		t.Fatal("bad timing accepted")
	}
	bad = smallConfig()
	bad.ThreadsPerHost = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero threads accepted")
	}
	bad = smallConfig()
	bad.RAMBlocks = -1
	if _, err := Run(bad); err == nil {
		t.Fatal("negative RAM accepted")
	}
}

func TestSharedFileSetReuse(t *testing.T) {
	// Sweeps share one file set, like the paper's single 1.4 TB model.
	cfg := smallConfig()
	res1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := mustFileSet(t, cfg)
	cfg.Workload.FileSet = fs
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same parameters; the shared file set is generated with the same
	// derived seed, so results must match exactly.
	if res1.Events != res2.Events {
		t.Fatalf("shared file set changed results: %d vs %d events", res1.Events, res2.Events)
	}
}

func mustFileSet(t *testing.T, cfg Config) *FileSet {
	t.Helper()
	fs, err := GenerateFileSet(5*cfg.Workload.WorkingSetBlocks, cfg.Workload.Seed+1000)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestPrefetchRateAffectsLatency(t *testing.T) {
	cfg := smallConfig()
	// Working set far beyond flash so the filer dominates.
	cfg.Workload.WorkingSetBlocks = int64(cfg.FlashBlocks) * 3
	cfg.Timing.FilerFastReadRate = 0.95
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Timing.FilerFastReadRate = 0.80
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.ReadLatencyMicros <= fast.ReadLatencyMicros {
		t.Fatalf("80%% prefetch (%.1f) not slower than 95%% (%.1f)",
			slow.ReadLatencyMicros, fast.ReadLatencyMicros)
	}
}

func TestWritePercentSweepStable(t *testing.T) {
	// Read latency should be roughly stable from 10% to 60% writes
	// (paper Figure 8's flat region).
	cfg := smallConfig()
	var lats []float64
	for _, wf := range []float64{0.1, 0.3, 0.6} {
		cfg.Workload.WriteFraction = wf
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, res.ReadLatencyMicros)
	}
	for i := 1; i < len(lats); i++ {
		if math.Abs(lats[i]-lats[0]) > 0.5*lats[0] {
			t.Fatalf("read latency unstable across write fractions: %v", lats)
		}
	}
}

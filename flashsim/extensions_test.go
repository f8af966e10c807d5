package flashsim

import (
	"reflect"
	"testing"
)

func TestPercentilesOrdered(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadP50Micros <= 0 || res.ReadP99Micros < res.ReadP50Micros {
		t.Fatalf("read percentiles disordered: p50=%.1f p99=%.1f",
			res.ReadP50Micros, res.ReadP99Micros)
	}
	if res.WriteP99Micros < res.WriteP50Micros {
		t.Fatalf("write percentiles disordered: p50=%.1f p99=%.1f",
			res.WriteP50Micros, res.WriteP99Micros)
	}
	// With a 90% fast-read rate, the read p99 must reach the slow filer
	// read when the working set does not fully fit.
	if res.ReadP99Micros < res.ReadLatencyMicros {
		t.Fatalf("p99 (%.1f) below mean (%.1f)", res.ReadP99Micros, res.ReadLatencyMicros)
	}
}

func TestFlashReplacementThroughPublicAPI(t *testing.T) {
	for _, kind := range AllReplacements() {
		cfg := smallConfig()
		cfg.FlashReplacement = kind
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.FlashHitRate <= 0 {
			t.Fatalf("%s: no flash hits", kind)
		}
	}
	if _, err := ParseReplacement("2q"); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedWritebackPoliciesThroughPublicAPI(t *testing.T) {
	for _, ps := range []string{"d1", "t5000"} {
		pol, err := ParsePolicy(ps)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig()
		cfg.RAMPolicy = ScalePolicy(pol, 1024)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		// Neither policy blocks the requester.
		if res.WriteLatencyMicros > 5 {
			t.Fatalf("%s: write latency %.1f us", ps, res.WriteLatencyMicros)
		}
	}
}

func TestScalePolicyKinds(t *testing.T) {
	d, _ := ParsePolicy("d5")
	scaled := ScalePolicy(d, 1000)
	if scaled.Period >= d.Period {
		t.Fatal("delayed period not scaled")
	}
	tr, _ := ParsePolicy("t100")
	if got := ScalePolicy(tr, 1000); got.Period != tr.Period {
		t.Fatal("trickle period must not scale (it encodes a rate)")
	}
	a, _ := ParsePolicy("a")
	if got := ScalePolicy(a, 1000); got != a {
		t.Fatal("non-periodic policy changed")
	}
}

func TestFTLBackedThroughPublicAPI(t *testing.T) {
	cfg := ScaledConfig(2048)
	cfg.FTLBackedFlash = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlashDeviceWrites == 0 || res.FlashDeviceReads == 0 {
		t.Fatal("FTL-backed device saw no traffic")
	}
	// GC contention makes the FTL device slower than the fixed model.
	cfg.FTLBackedFlash = false
	fixed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadLatencyMicros <= fixed.ReadLatencyMicros {
		t.Fatalf("FTL-backed reads (%.1f) not above fixed-latency reads (%.1f)",
			res.ReadLatencyMicros, fixed.ReadLatencyMicros)
	}
	// Every host write programs at least one NAND page; the fixed device
	// has no NAND to amplify.
	if res.FTLWriteAmplification < 1 || fixed.FTLWriteAmplification != 0 {
		t.Fatalf("write amplification %v FTL-backed, %v fixed; want >= 1 and 0",
			res.FTLWriteAmplification, fixed.FTLWriteAmplification)
	}
}

// TestFTLWriteAmplificationShardInvariant: the run's write amplification
// sums every host's FTL counters, so like the rest of an FTL-backed
// Result it is the same at any shard count. Four hosts at 1:4096 fill
// their flash enough for garbage collection to amplify.
func TestFTLWriteAmplificationShardInvariant(t *testing.T) {
	cfg := ScaledConfig(4096)
	cfg.FTLBackedFlash = true
	cfg.Hosts = 4
	one, two := runWithShards(t, cfg, 1), runWithShards(t, cfg, 2)
	if one.FTLWriteAmplification <= 1 {
		t.Fatalf("write amplification %v, want above 1", one.FTLWriteAmplification)
	}
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("2 shards diverged from 1:\n%+v\n%+v", two, one)
	}
}

func TestPersistentFlashRuntimeCostInvisible(t *testing.T) {
	// The paper's §7.8 headline: doubling the flash write latency for
	// persistence metadata is invisible to the application.
	cfg := smallConfig()
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PersistentFlash = true
	persistent, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if persistent.WriteLatencyMicros > plain.WriteLatencyMicros*1.5 {
		t.Fatalf("persistence visible in write latency: %.2f vs %.2f",
			persistent.WriteLatencyMicros, plain.WriteLatencyMicros)
	}
	if persistent.ReadLatencyMicros > plain.ReadLatencyMicros*1.15 {
		t.Fatalf("persistence visible in read latency: %.1f vs %.1f",
			persistent.ReadLatencyMicros, plain.ReadLatencyMicros)
	}
}

func TestRecoveredStart(t *testing.T) {
	cfg := smallConfig()
	cold := cfg
	cold.ColdStart = true
	coldRes, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	rec := cfg
	rec.RecoveredStart = true
	rec.PersistentFlash = true
	recRes, err := Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery takes real time: scanning metadata for a 16K-block cache
	// plus flushing the crash's dirty blocks.
	if recRes.RecoverySeconds <= 0 {
		t.Fatal("recovery took no time")
	}
	if coldRes.RecoverySeconds != 0 {
		t.Fatal("cold start reported recovery time")
	}
	// The recovered cache serves the working set warm: reads must be
	// substantially faster than the cold restart.
	if recRes.ReadLatencyMicros >= coldRes.ReadLatencyMicros*0.8 {
		t.Fatalf("recovered reads (%.1f us) not clearly faster than cold (%.1f us)",
			recRes.ReadLatencyMicros, coldRes.ReadLatencyMicros)
	}
	// And the warm content should make it comparable to a never-crashed run.
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recRes.ReadLatencyMicros > warm.ReadLatencyMicros*1.5 {
		t.Fatalf("recovered reads (%.1f us) far from warmed (%.1f us)",
			recRes.ReadLatencyMicros, warm.ReadLatencyMicros)
	}
}

func TestRecoveredStartDirtyFlush(t *testing.T) {
	cfg := smallConfig()
	cfg.RecoveredStart = true
	cfg.RecoveryDirtyFraction = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lowDirty := smallConfig()
	lowDirty.RecoveredStart = true
	lowDirty.RecoveryDirtyFraction = 0.01
	res2, err := Run(lowDirty)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoverySeconds <= res2.RecoverySeconds {
		t.Fatalf("flushing 50%% dirty (%.3fs) not slower than 1%% (%.3fs)",
			res.RecoverySeconds, res2.RecoverySeconds)
	}
}

// A lookaside flash cache never holds dirty data, so a recovered start
// finds none to flush whatever RecoveryDirtyFraction says: recovery is
// the metadata scan alone, as with a vanishing dirty fraction, on the
// sequential engine and on the cluster.
func TestRecoveredStartLookasideScanOnly(t *testing.T) {
	for _, shards := range []int{0, 1} {
		run := func(dirty float64) float64 {
			cfg := ScaledConfig(4096)
			cfg.Arch = Lookaside
			cfg.PersistentFlash = true
			cfg.RecoveredStart = true
			cfg.RecoveryDirtyFraction = dirty
			cfg.Shards = shards
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.RecoverySeconds
		}
		scan, defaulted := run(1e-12), run(0)
		if scan <= 0 {
			t.Fatalf("shards=%d: recovery paid no metadata scan", shards)
		}
		if defaulted != scan {
			t.Errorf("shards=%d: recovery took %.6fs, the scan alone %.6fs", shards, defaulted, scan)
		}
	}
}

// TestHostWithoutCaches: with no RAM and no flash every architecture is
// the same host, sending each read and write straight to the filer, so
// naive, lookaside and unified give equal Results, Events included (no
// architecture ticks a syncer over an empty tier), flash misses included:
// no architecture counts a flash miss on a host without flash. A recovered
// start on a unified host without flash has nothing to prefill, scan or
// flush, so it equals the cold start it replaces but for the one event
// that signals recovery done. With RAM but no flash, naive and lookaside
// are the same layered host too: neither has a flash tier to write
// through or fill.
func TestHostWithoutCaches(t *testing.T) {
	run := func(arch Architecture, ram int, start func(*Config)) *Result {
		t.Helper()
		cfg := ScaledConfig(4096)
		cfg.Arch = arch
		cfg.RAMBlocks, cfg.FlashBlocks = ram, 0
		start(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return scrubRuntime(res)
	}
	steady := func(*Config) {}
	want := run(Naive, 0, steady)
	if want.RAMHitRate != 0 || want.FlashHitRate != 0 || want.FilerWrites == 0 {
		t.Fatalf("cacheless host hit a cache or wrote nothing to the filer: %v", want)
	}
	for _, arch := range []Architecture{Lookaside, Unified} {
		got := run(arch, 0, steady)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v differs from naive:\n%v\nwant\n%v", arch, got, want)
		}
	}

	ram := ScaledConfig(4096).RAMBlocks
	if got, want := run(Lookaside, ram, steady), run(Naive, ram, steady); !reflect.DeepEqual(got, want) {
		t.Errorf("RAM-only lookaside differs from naive:\n%v\nwant\n%v", got, want)
	}
	cold := run(Unified, ram, func(c *Config) { c.ColdStart = true })
	rec := run(Unified, ram, func(c *Config) { c.RecoveredStart = true })
	rec.Events--
	if rec.RecoverySeconds != 0 || !reflect.DeepEqual(rec, cold) {
		t.Errorf("recovered unified host without flash:\n%v\nwant its cold start\n%v", rec, cold)
	}
}

func TestConsistencyProtocolCharges(t *testing.T) {
	mk := func(protocol bool) *Result {
		cfg := smallConfig()
		cfg.Hosts = 2
		cfg.Workload.SharedWorkingSet = true
		cfg.Workload.WorkingSetBlocks /= 2
		cfg.ConsistencyProtocol = protocol
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	instant := mk(false)
	protocol := mk(true)
	if instant.ControlMessages != 0 {
		t.Fatal("instant mode sent control messages")
	}
	if protocol.ControlMessages == 0 || protocol.OwnershipAcquires == 0 {
		t.Fatalf("protocol sent no traffic: %+v", protocol)
	}
	// Ownership round trips make shared writes visibly slower than the
	// paper's free invalidation.
	if protocol.WriteLatencyMicros <= instant.WriteLatencyMicros {
		t.Fatalf("protocol writes (%.1f us) not above instant writes (%.1f us)",
			protocol.WriteLatencyMicros, instant.WriteLatencyMicros)
	}
	if protocol.Downgrades == 0 {
		t.Fatal("no read downgrades on a shared read/write working set")
	}
}

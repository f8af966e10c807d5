package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/filer"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// testTiming uses round numbers so path latencies can be asserted exactly.
// Prefetch rate 1 makes the filer deterministic.
func testTiming() Timing {
	return Timing{
		RAMRead:           1,
		RAMWrite:          2,
		FlashRead:         10,
		FlashWrite:        20,
		NetBase:           100,
		NetPerBit:         0,
		FilerFastRead:     1000,
		FilerSlowRead:     1000,
		FilerWrite:        500,
		FilerFastReadRate: 1,
	}
}

// newTestFiler builds the paper's single-partition block filer with the
// timing's service latencies.
func newTestFiler(eng *sim.Engine, seed uint64, tm Timing) *filer.Filer {
	f, err := filer.NewPartitioned(eng, rng.New(seed), filer.Config{
		Partitions:   1,
		FastRead:     tm.FilerFastRead,
		SlowRead:     tm.FilerSlowRead,
		Write:        tm.FilerWrite,
		PrefetchRate: tm.FilerFastReadRate,
	})
	if err != nil {
		panic(err)
	}
	return f
}

type rig struct {
	eng  *sim.Engine
	fsrv *filer.Filer
	host *Host
}

func newRig(t *testing.T, cfg HostConfig, tm Timing) *rig {
	t.Helper()
	eng := &sim.Engine{}
	fsrv := newTestFiler(eng, 1, tm)
	hosts, err := NewHosts(eng, []HostConfig{cfg}, tm, fsrv)
	if err != nil {
		t.Fatal(err)
	}
	hosts[0].setCollect(true)
	return &rig{eng: eng, fsrv: fsrv, host: hosts[0]}
}

// readLat runs a single read to completion and returns its latency.
func (r *rig) readLat(key cache.Key) sim.Time {
	start := r.eng.Now()
	var end sim.Time
	r.host.read(key, funcCont(func() { end = r.eng.Now() }))
	r.eng.Run()
	return end - start
}

func (r *rig) writeLat(key cache.Key) sim.Time {
	start := r.eng.Now()
	var end sim.Time
	r.host.write(key, funcCont(func() { end = r.eng.Now() }))
	r.eng.Run()
	return end - start
}

func baseCfg(arch Architecture) HostConfig {
	return HostConfig{
		ID:          0,
		RAMBlocks:   8,
		FlashBlocks: 64,
		Arch:        arch,
		RAMPolicy:   PolicyP1,
		FlashPolicy: PolicyAsync,
	}
}

func TestPolicyParseAndString(t *testing.T) {
	for _, s := range []string{"s", "a", "p1", "p5", "p15", "p30", "n"} {
		p, err := ParsePolicy(s)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", s, err)
		}
		if p.String() != s {
			t.Fatalf("round trip %q -> %q", s, p.String())
		}
	}
	if _, err := ParsePolicy("x"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := ParsePolicy("p0"); err == nil {
		t.Fatal("p0 accepted")
	}
	if p, err := ParsePolicy("p7"); err != nil || p.Period != 7*sim.Second {
		t.Fatalf("custom period: %v %v", p, err)
	}
	if len(AllPolicies()) != 7 {
		t.Fatal("AllPolicies should return the paper's seven")
	}
}

func TestArchitectureParseAndString(t *testing.T) {
	for _, s := range []string{"naive", "lookaside", "unified"} {
		a, err := ParseArchitecture(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != s {
			t.Fatalf("round trip %q", s)
		}
	}
	if _, err := ParseArchitecture("bogus"); err == nil {
		t.Fatal("bad architecture accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseCfg(Naive)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.RAMBlocks = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative RAM accepted")
	}
	bad = good
	bad.RAMPolicy = Policy{Kind: Periodic, Period: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero period accepted")
	}
	bad = good
	bad.FlashReplacement = cache.ReplacementKind(99)
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown flash replacement accepted")
	}
	// NewHosts validates every config, and the timing, before it sizes
	// the engine's caches from them.
	eng := &sim.Engine{}
	if _, err := NewHosts(eng, []HostConfig{good, bad}, testTiming(), newTestFiler(eng, 1, testTiming())); err == nil {
		t.Fatal("NewHosts accepted an unknown flash replacement")
	}
	if _, err := NewHosts(eng, []HostConfig{good}, Timing{RAMRead: -1}, newTestFiler(eng, 1, testTiming())); err == nil {
		t.Fatal("NewHosts accepted a negative timing")
	}
	if err := (Timing{RAMRead: -1}).Validate(); err == nil {
		t.Fatal("negative timing accepted")
	}
	tm := DefaultTiming()
	tm.FilerFastReadRate = 2
	if err := tm.Validate(); err == nil {
		t.Fatal("bad prefetch rate accepted")
	}
}

func TestDefaultTimingMatchesTable1(t *testing.T) {
	tm := DefaultTiming()
	if tm.RAMRead != 400*sim.Nanosecond || tm.RAMWrite != 400*sim.Nanosecond {
		t.Fatal("RAM timings wrong")
	}
	if tm.FlashRead != 88*sim.Microsecond || tm.FlashWrite != 21*sim.Microsecond {
		t.Fatal("flash timings wrong")
	}
	if tm.NetBase != 8200*sim.Nanosecond || tm.NetPerBit != 1*sim.Nanosecond {
		t.Fatal("network timings wrong")
	}
	if tm.FilerFastRead != 92*sim.Microsecond || tm.FilerSlowRead != 7952*sim.Microsecond ||
		tm.FilerWrite != 92*sim.Microsecond || tm.FilerFastReadRate != 0.90 {
		t.Fatal("filer timings wrong")
	}
}

func TestNaiveReadMissPath(t *testing.T) {
	r := newRig(t, baseCfg(Naive), testTiming())
	// Cold miss: request packet (100) + filer read (1000) + response
	// packet (100) + RAM fill write (2). The flash install write is
	// asynchronous and not charged to the requester.
	if lat := r.readLat(1); lat != 1202 {
		t.Fatalf("cold miss latency %v, want 1202", lat)
	}
	st := r.host.Stats()
	if st.RAMMisses != 1 || st.FlashMisses != 1 || st.FilerFetches != 1 {
		t.Fatalf("miss counters wrong: %+v", st)
	}
}

// TestBackgroundLaneKeepsReadFillsUncontended locks the reason each host
// has two segments: background writeback data rides its own lane, so a
// cold read miss issued alongside it costs exactly the uncontended 1202
// of TestNaiveReadMissPath. On one shared lane the read's request packet
// would queue behind the writeback's data packet for one packet time.
func TestBackgroundLaneKeepsReadFillsUncontended(t *testing.T) {
	t.Run("separate-lanes", func(t *testing.T) {
		r := newRig(t, baseCfg(Naive), testTiming())
		h := r.host
		wbDone := sim.Time(-1)
		h.writeBlockToFiler(99, bgLane, funcCont(func() { wbDone = r.eng.Now() }), 0)
		var readDone sim.Time
		h.read(1, funcCont(func() { readDone = r.eng.Now() }))
		r.eng.Run()
		if wbDone < 0 {
			t.Fatal("background writeback never completed")
		}
		if readDone != 1202 {
			t.Fatalf("cold miss beside a background writeback took %v, want 1202", readDone)
		}
	})
}

func TestNaiveReadRAMHit(t *testing.T) {
	r := newRig(t, baseCfg(Naive), testTiming())
	r.readLat(1) // fill
	if lat := r.readLat(1); lat != 1 {
		t.Fatalf("RAM hit latency %v, want 1", lat)
	}
	if r.host.Stats().RAMHits != 1 {
		t.Fatal("RAM hit not counted")
	}
}

func TestNaiveReadFlashHit(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMBlocks = 2
	r := newRig(t, cfg, testTiming())
	// Fill three blocks; block 1 is evicted from the 2-block RAM but
	// remains in flash.
	r.readLat(1)
	r.readLat(2)
	r.readLat(3)
	// Flash hit: flash read (10) + RAM fill write (2).
	if lat := r.readLat(1); lat != 12 {
		t.Fatalf("flash hit latency %v, want 12", lat)
	}
	if r.host.Stats().FlashHits != 1 {
		t.Fatal("flash hit not counted")
	}
}

func TestNaiveWriteLandsInRAM(t *testing.T) {
	r := newRig(t, baseCfg(Naive), testTiming())
	// Periodic RAM policy: the application only waits for the RAM write.
	if lat := r.writeLat(1); lat != 2 {
		t.Fatalf("write latency %v, want 2 (RAM write only)", lat)
	}
	e := r.host.ram.Peek(1)
	if e == nil || !e.Dirty {
		t.Fatal("written block not dirty in RAM")
	}
}

func TestSyncRAMPolicyBlocksToFlash(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = PolicySync
	cfg.FlashPolicy = PolicyP1
	r := newRig(t, cfg, testTiming())
	// RAM write (2) + flash write (20).
	if lat := r.writeLat(1); lat != 22 {
		t.Fatalf("sync-to-flash write latency %v, want 22", lat)
	}
	if e := r.host.flash.Peek(1); e == nil || !e.Dirty {
		t.Fatal("block not dirty in flash after sync writeback")
	}
	if e := r.host.ram.Peek(1); e == nil || e.Dirty {
		t.Fatal("RAM copy should be clean after write-through")
	}
}

func TestSyncSyncPolicyBlocksToFiler(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = PolicySync
	cfg.FlashPolicy = PolicySync
	r := newRig(t, cfg, testTiming())
	// RAM write (2) + flash write (20) + data packet (100) + filer write
	// (500) + ack packet (100).
	if lat := r.writeLat(1); lat != 722 {
		t.Fatalf("fully synchronous write latency %v, want 722", lat)
	}
	if e := r.host.flash.Peek(1); e == nil || e.Dirty {
		t.Fatal("flash copy should be clean after write-through to filer")
	}
}

func TestAsyncPolicyDoesNotBlock(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = PolicyAsync
	cfg.FlashPolicy = PolicyAsync
	r := newRig(t, cfg, testTiming())
	if lat := r.writeLat(1); lat != 2 {
		t.Fatalf("async write latency %v, want 2", lat)
	}
	// After the engine drains, the data has still propagated all the way.
	if e := r.host.flash.Peek(1); e == nil || e.Dirty {
		t.Fatal("async writeback did not reach the filer")
	}
	if r.host.Stats().FilerWritebacks != 1 {
		t.Fatal("filer writeback not counted")
	}
}

func TestPeriodicSyncerFlushes(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = Policy{Kind: Periodic, Period: 10000}
	cfg.FlashPolicy = PolicyNone
	r := newRig(t, cfg, testTiming())
	r.host.write(1, cont{})
	r.eng.RunUntil(5000)
	if e := r.host.ram.Peek(1); e == nil || !e.Dirty {
		t.Fatal("block should still be dirty before syncer fires")
	}
	r.eng.RunUntil(20000)
	if e := r.host.ram.Peek(1); e == nil || e.Dirty {
		t.Fatal("syncer did not flush dirty RAM block")
	}
	if e := r.host.flash.Peek(1); e == nil || !e.Dirty {
		t.Fatal("flushed block should be dirty in flash (flash policy none)")
	}
	r.host.stopSyncers()
	r.eng.Run()
}

func TestNonePolicyEvictionWritebacks(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMBlocks = 4
	cfg.FlashBlocks = 8
	cfg.RAMPolicy = PolicyNone
	cfg.FlashPolicy = PolicyNone
	r := newRig(t, cfg, testTiming())
	// Fill RAM with dirty blocks, then keep writing: evictions must write
	// back synchronously and the app sees the flash write latency.
	for k := cache.Key(1); k <= 4; k++ {
		r.writeLat(k)
	}
	lat := r.writeLat(5)
	// Eviction writeback to flash (20) + RAM write (2) = 22.
	if lat != 22 {
		t.Fatalf("eviction write latency %v, want 22", lat)
	}
	if r.host.Stats().SyncEvictions == 0 {
		t.Fatal("sync eviction not counted")
	}
}

func TestNoneNoneConvoyReachesFiler(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMBlocks = 2
	cfg.FlashBlocks = 4
	cfg.RAMPolicy = PolicyNone
	cfg.FlashPolicy = PolicyNone
	r := newRig(t, cfg, testTiming())
	// Write more distinct blocks than RAM+flash hold: flash fills with
	// dirty blocks and evictions convoy to the filer.
	var worst sim.Time
	for k := cache.Key(1); k <= 20; k++ {
		if lat := r.writeLat(k); lat > worst {
			worst = lat
		}
	}
	// A flash eviction writeback costs 100+500+100 = 700 before the RAM
	// eviction (20) and RAM write (2) can proceed.
	if worst < 700 {
		t.Fatalf("worst write latency %v never saw a filer writeback", worst)
	}
	if r.host.Stats().FilerWritebacks == 0 {
		t.Fatal("no filer writebacks")
	}
}

func TestLookasideFlashNeverDirty(t *testing.T) {
	cfg := baseCfg(Lookaside)
	cfg.RAMPolicy = PolicySync
	r := newRig(t, cfg, testTiming())
	// Sync lookaside write: RAM (2) + packet (100) + filer (500) + ack
	// (100) = 702; flash updated afterwards, asynchronously.
	if lat := r.writeLat(1); lat != 702 {
		t.Fatalf("lookaside sync write latency %v, want 702", lat)
	}
	if r.host.flash.DirtyLen() != 0 {
		t.Fatal("lookaside flash holds dirty data")
	}
	if e := r.host.flash.Peek(1); e == nil {
		t.Fatal("flash copy not installed after filer write")
	}
}

func TestLookasideAsyncWrite(t *testing.T) {
	cfg := baseCfg(Lookaside)
	cfg.RAMPolicy = PolicyAsync
	r := newRig(t, cfg, testTiming())
	if lat := r.writeLat(1); lat != 2 {
		t.Fatalf("lookaside async write latency %v, want 2", lat)
	}
	r.eng.Run()
	if r.host.flash.DirtyLen() != 0 {
		t.Fatal("lookaside flash dirty")
	}
	if r.host.Stats().FilerWritebacks != 1 {
		t.Fatal("write did not reach filer")
	}
}

func TestSubsetPropertyCleanRAMInFlash(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMBlocks = 4
	cfg.FlashBlocks = 8
	r := newRig(t, cfg, testTiming())
	rnd := rng.New(3)
	for i := 0; i < 500; i++ {
		k := cache.Key(rnd.Intn(32))
		if rnd.Bool(0.3) {
			r.writeLat(k)
		} else {
			r.readLat(k)
		}
	}
	r.host.stopSyncers()
	r.eng.Run()
	// Every clean RAM block must also be in flash (paper §3.2/3.3: the
	// RAM cache is a subset of the flash cache in naive and lookaside).
	for key := cache.Key(0); key < 32; key++ {
		e := r.host.ram.Peek(key)
		if e == nil || e.Dirty {
			continue
		}
		if r.host.flash.Peek(key) == nil {
			t.Fatalf("clean RAM block %d not in flash", key)
		}
	}
}

func TestUnifiedMediumMix(t *testing.T) {
	cfg := baseCfg(Unified)
	cfg.RAMBlocks = 8
	cfg.FlashBlocks = 64
	r := newRig(t, cfg, testTiming())
	for k := cache.Key(0); k < 72; k++ {
		r.readLat(k)
	}
	got := 0
	for k := cache.Key(0); k < 72; k++ {
		if e := r.host.uni.Peek(k); e != nil && e.Medium() == cache.RAM {
			got++
		}
	}
	if got != 8 {
		t.Fatalf("unified resident RAM %d, want 8", got)
	}
}

func TestUnifiedReadLatencyByMedium(t *testing.T) {
	cfg := baseCfg(Unified)
	cfg.RAMBlocks = 1
	cfg.FlashBlocks = 1
	r := newRig(t, cfg, testTiming())
	r.readLat(1)
	r.readLat(2)
	var ramKey, flashKey cache.Key = 1, 2
	if r.host.uni.Peek(1).Medium() != cache.RAM {
		ramKey, flashKey = 2, 1
	}
	if lat := r.readLat(ramKey); lat != 1 {
		t.Fatalf("unified RAM-medium hit %v, want 1", lat)
	}
	if lat := r.readLat(flashKey); lat != 10 {
		t.Fatalf("unified flash-medium hit %v, want 10", lat)
	}
}

func TestUnifiedWriteExposesFlashLatency(t *testing.T) {
	cfg := baseCfg(Unified)
	cfg.RAMBlocks = 0
	cfg.FlashBlocks = 8
	cfg.RAMPolicy = PolicyP1
	cfg.FlashPolicy = PolicyP1
	r := newRig(t, cfg, testTiming())
	// All buffers are flash: every write pays the flash write latency.
	if lat := r.writeLat(1); lat != 20 {
		t.Fatalf("unified flash-buffer write %v, want 20", lat)
	}
	r.host.stopSyncers()
	r.eng.Run()
}

func TestUnifiedDirtyEvictionWritesFiler(t *testing.T) {
	cfg := baseCfg(Unified)
	cfg.RAMBlocks = 1
	cfg.FlashBlocks = 1
	cfg.RAMPolicy = PolicyNone
	cfg.FlashPolicy = PolicyNone
	r := newRig(t, cfg, testTiming())
	r.writeLat(1)
	r.writeLat(2)
	lat := r.writeLat(3) // must evict a dirty block -> filer writeback
	if lat < 700 {
		t.Fatalf("unified dirty eviction latency %v, want >= 700", lat)
	}
}

func TestZeroRAMReadsServedFromFlash(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMBlocks = 0
	r := newRig(t, cfg, testTiming())
	r.readLat(1) // miss, fills flash only
	if lat := r.readLat(1); lat != 10 {
		t.Fatalf("zero-RAM flash hit %v, want 10", lat)
	}
}

func TestZeroRAMWriteGoesToFlash(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMBlocks = 0
	cfg.FlashPolicy = PolicyP1
	r := newRig(t, cfg, testTiming())
	if lat := r.writeLat(1); lat != 20 {
		t.Fatalf("zero-RAM write %v, want 20 (flash write)", lat)
	}
	if e := r.host.flash.Peek(1); e == nil || !e.Dirty {
		t.Fatal("block not dirty in flash")
	}
	r.host.stopSyncers()
	r.eng.Run()
}

// TestZeroRAMLookasideWriteFilerFirst covers a lookaside write with no
// RAM tier to a flash-resident block: the block goes to the filer first
// and the flash copy is rewritten, clean, only after the filer's ack, so
// the write pays the filer round trip.
func TestZeroRAMLookasideWriteFilerFirst(t *testing.T) {
	cfg := baseCfg(Lookaside)
	cfg.RAMBlocks = 0
	r := newRig(t, cfg, testTiming())
	r.readLat(1) // miss, fills flash only
	flashWrites := r.host.FlashDevice().Writes()
	if r.host.flash.Peek(1) == nil || r.fsrv.Writes() != 0 {
		t.Fatal("read fill did not leave a flash copy and an idle filer")
	}
	start := r.eng.Now()
	var end sim.Time
	r.host.write(1, funcCont(func() { end = r.eng.Now() }))
	// Packet (100) + filer write (500) + ack (100) = 700: just before the
	// ack the filer holds the write and flash has not been touched.
	r.eng.RunUntil(start + 699)
	if got := r.fsrv.Writes(); got != 1 {
		t.Fatalf("%d filer writes before the ack, want 1", got)
	}
	if got := r.host.FlashDevice().Writes() - flashWrites; got != 0 {
		t.Fatalf("%d flash writes before the filer ack, want 0", got)
	}
	r.eng.Run()
	if lat := end - start; lat < 700 {
		t.Fatalf("zero-RAM lookaside write %v, want at least the 700 filer round trip", lat)
	}
	if got := r.host.FlashDevice().Writes() - flashWrites; got != 1 {
		t.Fatalf("%d flash writes after the ack, want 1", got)
	}
	if r.fsrv.Writes() != 1 {
		t.Fatalf("%d filer writes, want 1", r.fsrv.Writes())
	}
	if e := r.host.flash.Peek(1); e == nil || e.Dirty || r.host.flash.DirtyLen() != 0 {
		t.Fatal("flash copy missing or dirty after a lookaside write")
	}
}

func TestNoFlashFallsThroughToFiler(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.FlashBlocks = 0
	cfg.RAMBlocks = 2
	cfg.RAMPolicy = PolicySync
	r := newRig(t, cfg, testTiming())
	// Sync write with no flash tier: RAM (2) + filer round trip (700).
	if lat := r.writeLat(1); lat != 702 {
		t.Fatalf("no-flash sync write %v, want 702", lat)
	}
	// Reads miss straight to the filer.
	if lat := r.readLat(9); lat != 1202 {
		t.Fatalf("no-flash miss %v, want 1202", lat)
	}
}

// TestTracedFilerWriteAckSpans runs sync writes through to the filer with
// every request sampled: each filer writeback records its acknowledgement
// leg as a wb_net_down span lasting one down-wire transit, and tracing
// leaves the write latency unchanged.
func TestTracedFilerWriteAckSpans(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.FlashBlocks = 0
	cfg.RAMBlocks = 2
	cfg.RAMPolicy = PolicySync
	tm := testTiming()
	r := newRig(t, cfg, tm)
	tr := obs.NewTracer(1)
	r.host.SetTrace(tr.Host(0))
	const writes = 4
	for k := cache.Key(1); k <= writes; k++ {
		if lat := r.writeLat(k); lat != 702 {
			t.Fatalf("traced sync write %v, want 702", lat)
		}
	}
	acks := 0
	for _, s := range tr.Spans() {
		if s.Kind != obs.KindWBNetDown {
			continue
		}
		acks++
		if d := s.End - s.Start; d != tm.NetBase {
			t.Errorf("wb_net_down span of key %d lasts %v, want one transit %v", s.Key, d, tm.NetBase)
		}
	}
	if acks != writes {
		t.Fatalf("%d wb_net_down spans, want %d", acks, writes)
	}
}

func TestFetchDeduplication(t *testing.T) {
	cfg := baseCfg(Naive)
	r := newRig(t, cfg, testTiming())
	var done int
	r.host.read(1, funcCont(func() { done++ }))
	r.host.read(1, funcCont(func() { done++ }))
	r.eng.Run()
	if done != 2 {
		t.Fatalf("both readers should complete, got %d", done)
	}
	if got := r.host.Stats().FilerFetches; got != 1 {
		t.Fatalf("filer fetches = %d, want 1 (deduplicated)", got)
	}
}

func TestPersistentFlashHasSlowerDeviceWrites(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.PersistentFlash = true
	cfg.RAMPolicy = PolicySync
	cfg.FlashPolicy = PolicyP1
	r := newRig(t, cfg, testTiming())
	// RAM write (2) + doubled flash write (40).
	if lat := r.writeLat(1); lat != 42 {
		t.Fatalf("persistent flash write-through %v, want 42", lat)
	}
	r.host.stopSyncers()
	r.eng.Run()
}

func TestInvalidationBetweenHosts(t *testing.T) {
	tm := testTiming()
	eng := &sim.Engine{}
	cfgs := []HostConfig{baseCfg(Naive), baseCfg(Naive)}
	cfgs[1].ID = 1
	hosts, err := NewHosts(eng, cfgs, tm, newTestFiler(eng, 1, tm))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		h.setCollect(true)
	}
	reg := TrackConsistency(hosts, false)

	// Host 0 reads block 1 (cached), then host 1 writes it.
	var step int
	hosts[0].read(1, funcCont(func() { step = 1 }))
	eng.Run()
	if step != 1 {
		t.Fatal("read never completed")
	}
	if hosts[0].flash.Peek(1) == nil {
		t.Fatal("host 0 should cache block 1")
	}
	hosts[1].write(1, cont{})
	eng.Run()
	if hosts[0].flash.Peek(1) != nil || hosts[0].ram.Peek(1) != nil {
		t.Fatal("host 0's stale copy not invalidated")
	}
	if reg.Invalidations == 0 || reg.WritesInvalidating != 1 {
		t.Fatalf("registry counts wrong: inval=%d writes=%d",
			reg.Invalidations, reg.WritesInvalidating)
	}
	if reg.InvalidationFraction() <= 0 {
		t.Fatal("invalidation fraction zero")
	}
	for _, h := range hosts {
		h.stopSyncers()
	}
	eng.Run()
}

func TestWriteCoalescingEpochs(t *testing.T) {
	// A block re-dirtied while its writeback is in flight must remain
	// dirty when the stale writeback completes.
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = PolicyAsync
	cfg.FlashPolicy = PolicyNone
	r := newRig(t, cfg, testTiming())
	r.host.write(1, cont{})
	// Before the async writeback (which takes >= 20) completes, write
	// again at time 5.
	r.eng.RunUntil(3)
	r.host.write(1, cont{})
	r.eng.Run()
	// The second write's own writeback eventually cleans it; what must
	// never happen is data loss. Drain and verify the final state is
	// clean (both writebacks completed, last epoch wins).
	if e := r.host.ram.Peek(1); e == nil || e.Dirty {
		t.Fatal("final state should be clean after both writebacks")
	}
	// Two writes => two write-through propagations to flash.
	if got := r.host.Stats().FlashWritebacks; got != 2 {
		t.Fatalf("flash writebacks = %d, want 2 (write-through, no coalescing)", got)
	}
}

// TestTracedFlashWritebackSpans: with every request sampled, a naive
// host whose RAM writes through to flash records each write's flash leg
// as a wb_flash span lasting one flash write.
func TestTracedFlashWritebackSpans(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = PolicySync
	tm := testTiming()
	r := newRig(t, cfg, tm)
	tr := obs.NewTracer(1)
	r.host.SetTrace(tr.Host(0))
	const writes = 4
	for k := cache.Key(1); k <= writes; k++ {
		r.writeLat(k)
	}
	n := 0
	for _, s := range tr.Spans() {
		if s.Kind != obs.KindWBFlash {
			continue
		}
		n++
		if d := s.End - s.Start; d != tm.FlashWrite {
			t.Errorf("wb_flash span of key %d lasts %v, want one flash write %v", s.Key, d, tm.FlashWrite)
		}
	}
	if n != writes {
		t.Fatalf("%d wb_flash spans, want %d", n, writes)
	}
}

// TestFaultHooksLeavePinnedEntries: a crash and a full drop remove only
// what the caches offer as victims, so pinned entries stay resident.
func TestFaultHooksLeavePinnedEntries(t *testing.T) {
	r := newRig(t, baseCfg(Naive), testTiming())
	h := r.host
	for k := cache.Key(1); k <= 4; k++ {
		r.readLat(k)
	}
	pinned := 0
	for _, c := range h.tiers {
		for k := cache.Key(1); c != nil && k <= 4; k++ {
			if e := c.Peek(k); e != nil {
				e.Pinned = true
				pinned++
			}
		}
	}
	if pinned == 0 {
		t.Fatal("reads left nothing resident")
	}
	if n := h.dropColdest(1); n != 0 {
		t.Fatalf("drop removed %d pinned entries", n)
	}
	if n := h.Crash(); n != 0 {
		t.Fatalf("crash removed %d pinned entries", n)
	}
	if got := h.ResidentBlocks(); got != pinned {
		t.Fatalf("%d blocks resident, want the %d pinned", got, pinned)
	}
}

func TestEnumStringsUnknown(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{Architecture(9).String(), "arch(9)"},
		{PolicyKind(9).String(), "kind(9)"},
		{Policy{Kind: 9}.String(), "policy(9)"},
		{Policy{Kind: trickle}.String(), "t?"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
	if err := (Policy{Kind: 9}).validate(); err == nil {
		t.Error("unknown policy kind validated")
	}
}

package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestParseExtensionPolicies(t *testing.T) {
	d, err := ParsePolicy("d5")
	if err != nil || d.Kind != Delayed || d.Period != 5*sim.Second {
		t.Fatalf("d5 parsed as %v (%v)", d, err)
	}
	if d.String() != "d5" {
		t.Fatalf("String = %q", d.String())
	}
	tr, err := ParsePolicy("t100")
	if err != nil || tr.Kind != Trickle || tr.Period != sim.Second/100 {
		t.Fatalf("t100 parsed as %v (%v)", tr, err)
	}
	if tr.String() != "t100" {
		t.Fatalf("String = %q", tr.String())
	}
	if err := (Policy{Kind: Delayed}).Validate(); err == nil {
		t.Fatal("delayed without period accepted")
	}
	if err := (Policy{Kind: Trickle}).Validate(); err == nil {
		t.Fatal("trickle without period accepted")
	}
	for _, k := range []PolicyKind{WriteThroughSync, WriteThroughAsync, Periodic, None, Delayed, Trickle} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestDelayedPolicyWritesBackAfterDelay(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = Policy{Kind: Delayed, Period: 10000}
	cfg.FlashPolicy = PolicyNone
	r := newRig(t, cfg, testTiming())
	// The write itself returns at RAM speed.
	if lat := r.writeLat(1); lat != 2 {
		t.Fatalf("delayed write latency %v, want 2", lat)
	}
	// After the engine drained (writeLat ran everything, including the
	// timer), the block must be clean in RAM and dirty in flash.
	if e := r.host.ram.Peek(1); e == nil || e.Dirty {
		t.Fatal("delayed writeback did not happen")
	}
	if e := r.host.flash.Peek(1); e == nil || !e.Dirty {
		t.Fatal("block not in flash after delayed writeback")
	}
}

func TestDelayedPolicyCoalesces(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = Policy{Kind: Delayed, Period: 10000}
	cfg.FlashPolicy = PolicyNone
	r := newRig(t, cfg, testTiming())
	// Three writes inside one delay window coalesce to a single flash
	// writeback (the first two timers see a newer epoch and skip).
	r.host.write(1, cont{})
	r.eng.RunUntil(100)
	r.host.write(1, cont{})
	r.eng.RunUntil(200)
	r.host.write(1, cont{})
	r.eng.Run()
	if got := r.host.Stats().FlashWritebacks; got != 1 {
		t.Fatalf("flash writebacks = %d, want 1 (coalesced)", got)
	}
	if e := r.host.ram.Peek(1); e == nil || e.Dirty {
		t.Fatal("final state not clean")
	}
}

func TestTricklePolicyDrainsSlowly(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = Policy{Kind: Trickle, Period: 1000} // one block per 1000 units
	cfg.FlashPolicy = PolicyNone
	r := newRig(t, cfg, testTiming())
	for k := cache.Key(1); k <= 4; k++ {
		r.host.write(k, cont{})
	}
	r.eng.RunUntil(500)
	if r.host.ram.DirtyLen() != 4 {
		t.Fatalf("dirty before first tick = %d, want 4", r.host.ram.DirtyLen())
	}
	r.eng.RunUntil(1100) // one tick
	if got := r.host.ram.DirtyLen(); got != 3 {
		t.Fatalf("dirty after one tick = %d, want 3", got)
	}
	r.eng.RunUntil(4500) // all four ticks
	if got := r.host.ram.DirtyLen(); got != 0 {
		t.Fatalf("dirty after four ticks = %d, want 0", got)
	}
	r.host.StopSyncers()
	r.eng.Run()
}

func TestFlashReplacementPolicies(t *testing.T) {
	// Every replacement policy must work inside the full stack.
	for _, kind := range []cache.ReplacementKind{
		cache.ReplaceLRU, cache.ReplaceFIFO, cache.ReplaceClock,
		cache.ReplaceSLRU, cache.Replace2Q,
	} {
		cfg := baseCfg(Naive)
		cfg.FlashReplacement = kind
		cfg.RAMBlocks = 4
		cfg.FlashBlocks = 16
		r := newRig(t, cfg, testTiming())
		for i := 0; i < 300; i++ {
			k := cache.Key(i % 40)
			if i%3 == 0 {
				r.writeLat(k)
			} else {
				r.readLat(k)
			}
		}
		r.host.StopSyncers()
		r.eng.Run()
		if err := r.host.flash.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r.host.flash.Len() == 0 {
			t.Fatalf("%s: flash empty after workload", kind)
		}
	}
}

func TestTrickleUnified(t *testing.T) {
	cfg := baseCfg(Unified)
	cfg.RAMBlocks = 2
	cfg.FlashBlocks = 8
	cfg.RAMPolicy = Policy{Kind: Trickle, Period: 1000}
	cfg.FlashPolicy = Policy{Kind: Trickle, Period: 1000}
	r := newRig(t, cfg, testTiming())
	for k := cache.Key(1); k <= 6; k++ {
		r.host.write(k, cont{})
	}
	r.eng.RunUntil(20000)
	if got := r.host.uni.DirtyLen(); got != 0 {
		t.Fatalf("unified dirty after trickle draining = %d", got)
	}
	r.host.StopSyncers()
	r.eng.Run()
}

func TestFTLBackedHost(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.FTLBacked = true
	cfg.RAMBlocks = 8
	cfg.FlashBlocks = 128
	r := newRig(t, cfg, testTiming())
	rnd := rng.New(5)
	for i := 0; i < 2000; i++ {
		k := cache.Key(rnd.Intn(256))
		if rnd.Bool(0.4) {
			r.writeLat(k)
		} else {
			r.readLat(k)
		}
	}
	r.host.StopSyncers()
	r.eng.Run()
	snap, ok := r.host.FTLSnapshot()
	if !ok {
		t.Fatal("FTL snapshot unavailable on FTL-backed host")
	}
	if snap.HostWrites == 0 || snap.NANDPrograms == 0 {
		t.Fatalf("FTL saw no traffic: %+v", snap)
	}
	if snap.WriteAmplification < 1 {
		t.Fatalf("write amplification %v < 1", snap.WriteAmplification)
	}
	if err := r.host.flash.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFixedHostHasNoFTLSnapshot(t *testing.T) {
	r := newRig(t, baseCfg(Naive), testTiming())
	if _, ok := r.host.FTLSnapshot(); ok {
		t.Fatal("fixed-latency host reported an FTL snapshot")
	}
	r.host.StopSyncers()
	r.eng.Run()
}

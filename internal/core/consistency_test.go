package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// newRegistryRig builds n naive hosts on one engine with consistency
// tracked across them. Both writeback policies are none, so a write stays
// dirty in RAM and puts nothing on the wire: every packet a test sees on a
// host's segment beyond its own fetches is protocol traffic.
func newRegistryRig(t *testing.T, n int, protocol, collect bool) (*sim.Engine, []*Host, *ConsistencyStats) {
	t.Helper()
	cfg := baseCfg(Naive)
	cfg.RAMPolicy = PolicyNone
	cfg.FlashPolicy = PolicyNone
	eng, hosts, _ := buildCluster(t, n, cfg, testTiming(), false)
	for _, h := range hosts {
		h.SetCollect(collect)
	}
	return eng, hosts, TrackConsistency(hosts, protocol)
}

// fetch runs one read of key on h to completion.
func fetch(eng *sim.Engine, h *Host, key cache.Key) {
	h.read(key, cont{})
	eng.Run()
}

// store runs one write of key on h to completion and reports whether it
// completed.
func store(eng *sim.Engine, h *Host, key cache.Key) bool {
	done := false
	h.write(key, funcCont(func() { done = true }))
	eng.Run()
	return done
}

func TestRegistryInvalidation(t *testing.T) {
	eng, hosts, st := newRegistryRig(t, 3, false, true)
	for _, h := range hosts {
		fetch(eng, h, 42)
	}
	store(eng, hosts[0], 42)
	if !hosts[0].holds(42) {
		t.Fatal("writer's own copy dropped")
	}
	if hosts[1].holds(42) || hosts[2].holds(42) {
		t.Fatal("remote copies survived")
	}
	if st.BlocksWritten != 1 || st.WritesInvalidating != 1 || st.Invalidations != 2 {
		t.Fatalf("counts: written=%d invalWrites=%d inval=%d",
			st.BlocksWritten, st.WritesInvalidating, st.Invalidations)
	}
	if st.InvalidationFraction() != 1.0 {
		t.Fatalf("fraction = %v", st.InvalidationFraction())
	}
}

func TestRegistryNoRemoteCopies(t *testing.T) {
	eng, hosts, st := newRegistryRig(t, 2, false, true)
	store(eng, hosts[0], 7)
	if st.WritesInvalidating != 0 || st.Invalidations != 0 {
		t.Fatal("phantom invalidations")
	}
	if st.BlocksWritten != 1 {
		t.Fatal("write not counted")
	}
	if st.InvalidationFraction() != 0 {
		t.Fatal("fraction should be 0")
	}
}

func TestRegistryCollectGating(t *testing.T) {
	eng, hosts, st := newRegistryRig(t, 2, false, false)
	fetch(eng, hosts[1], 1)
	store(eng, hosts[0], 1) // not collecting: copy dropped, nothing counted
	if hosts[1].holds(1) {
		t.Fatal("invalidation must happen even during warmup")
	}
	if st.BlocksWritten != 0 || st.Invalidations != 0 {
		t.Fatal("warmup writes counted")
	}
	if st.InvalidationFraction() != 0 {
		t.Fatal("empty fraction should be 0")
	}
}

func TestRegistrySingleHost(t *testing.T) {
	eng, hosts, st := newRegistryRig(t, 1, false, true)
	fetch(eng, hosts[0], 1)
	store(eng, hosts[0], 1)
	if st.WritesInvalidating != 0 || !hosts[0].holds(1) {
		t.Fatal("single host invalidated itself")
	}
}

func TestProtocolAcquireWriteOwnership(t *testing.T) {
	eng, hosts, st := newRegistryRig(t, 2, true, true)
	a, b := hosts[0], hosts[1]
	fetch(eng, b, 9)
	if !store(eng, a, 9) {
		t.Fatal("acquire never completed")
	}
	if b.holds(9) {
		t.Fatal("holder copy survived ownership acquisition")
	}
	if st.OwnershipAcquires != 1 {
		t.Fatalf("acquires = %d", st.OwnershipAcquires)
	}
	// request + grant on writer, callback + ack on holder.
	if st.ControlMessages != 4 {
		t.Fatalf("registry counted %d messages, want 4", st.ControlMessages)
	}

	// Second write to the owned block is silent: no message, and no wait
	// beyond the RAM write.
	before, start := st.ControlMessages, eng.Now()
	if !store(eng, a, 9) || st.ControlMessages != before || eng.Now()-start != testTiming().RAMWrite {
		t.Fatal("owned write was not silent")
	}
}

func TestProtocolAcquireReadDowngrade(t *testing.T) {
	eng, hosts, st := newRegistryRig(t, 2, true, true)
	a, b := hosts[0], hosts[1]

	// Host 0 takes ownership and dirties the block.
	store(eng, a, 5)
	if e := a.ram.Peek(5); e == nil || !e.Dirty {
		t.Fatal("owner's copy should be dirty in RAM")
	}

	// Host 1 reads: owner must flush and downgrade.
	done := false
	b.read(5, funcCont(func() { done = true }))
	eng.Run()
	if !done {
		t.Fatal("read acquire never completed")
	}
	if e := a.ram.Peek(5); e == nil || e.Dirty {
		t.Fatal("owner's dirty copy not flushed on downgrade")
	}
	if st.Downgrades != 1 {
		t.Fatalf("downgrades = %d", st.Downgrades)
	}
	// Subsequent reads are free (block now shared).
	before := st.ControlMessages
	fetch(eng, b, 5)
	if st.ControlMessages != before {
		t.Fatal("shared read cost messages")
	}
}

func TestProtocolInstantModeFree(t *testing.T) {
	eng, hosts, st := newRegistryRig(t, 2, false, true)
	a, b := hosts[0], hosts[1]
	fetch(eng, b, 3)
	start := eng.Now()
	if !store(eng, a, 3) {
		t.Fatal("instant acquire never completed")
	}
	if lat := eng.Now() - start; lat != testTiming().RAMWrite {
		t.Fatalf("instant write took %v, want the bare RAM write %v", lat, testTiming().RAMWrite)
	}
	if b.holds(3) {
		t.Fatal("instant mode did not invalidate")
	}
	if st.ControlMessages != 0 {
		t.Fatal("instant mode sent messages")
	}
	fetch(eng, b, 3)
	if st.Downgrades != 0 {
		t.Fatal("instant mode downgraded")
	}
}

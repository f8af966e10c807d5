package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/trace"
)

// sharedWSClusterSpec is a cluster of hosts reading and writing one shared
// working set, with caches small enough to churn, spread over shards.
func sharedWSClusterSpec(hosts, shards int, cfg HostConfig) ClusterSpec {
	spec := clusterSpecForTest(hosts, shards)
	for i := range spec.Hosts {
		c := cfg
		c.ID = i
		spec.Hosts[i] = c
		var ops []trace.Op
		for j := 0; j < 120; j++ {
			kind := trace.Read
			if (i+j)%4 == 0 {
				kind = trace.Write
			}
			ops = append(ops, trace.Op{
				Host: uint16(i), Thread: uint16(j % 2), Kind: kind,
				File: 1, Block: uint32((7*i + 13*j) % 96), Count: uint32(1 + j%3),
			})
		}
		spec.Sources[i] = trace.NewSliceSource(ops)
	}
	return spec
}

// sharedWSKey is the key of block b of the shared working set.
func sharedWSKey(b int) uint64 { return trace.BlockKey(1, uint32(b%96)) }

// checkHolderSuperset asserts that every shard's holder set covers its
// hosts' cache contents: each shared-working-set key a host holds in any
// tier has the host's bit set, and every slot is indexed under its key.
// It then trims the set to the exact holders — clearing a non-holder's bit
// only spares a probe that would find nothing — so that a missing mark
// shows at the next barrier even when an earlier insertion of the key set
// the bit. It returns how many held keys name a host past the first
// bitmap word.
func checkHolderSuperset(t *testing.T, c *Cluster) (highWord int) {
	t.Helper()
	for s, sh := range c.shards {
		hs := sh.holders
		if n, err := hs.index.Check(); err != nil || n != len(hs.nodes) {
			t.Fatalf("shard %d: index holds %d keys, %d slots (%v)", s, n, len(hs.nodes), err)
		}
		// An op starts below block 96 and spans up to three blocks.
		indexed := 0
		for b := uint32(0); b < 96+2; b++ {
			key := trace.BlockKey(1, b)
			if nd := hs.index.Get(cache.Key(key)); nd != nil {
				if nd.Ref < 0 || int(nd.Ref) >= len(hs.nodes) || nd != &hs.nodes[nd.Ref] {
					t.Fatalf("shard %d key %d: indexed node is not slot %d", s, key, nd.Ref)
				}
				indexed++
			}
		}
		if indexed != len(hs.nodes) {
			t.Fatalf("shard %d: %d of %d slots indexed under a working-set key", s, indexed, len(hs.nodes))
		}
		for b := 0; b < 96; b++ {
			key := sharedWSKey(b)
			set := hs.bitmap(key)
			for li, h := range sh.hosts {
				if !h.holds(key) {
					if set != nil {
						set[li>>6] &^= 1 << uint(li&63)
					}
					continue
				}
				if set == nil || set[li>>6]&(1<<uint(li&63)) == 0 {
					t.Fatalf("shard %d: host %d holds key %d but is not in its holder set", s, h.id(), key)
				}
				if li >= 64 {
					highWord++
				}
			}
		}
	}
	return highWord
}

// TestHolderSetCoversCaches is the holder half of the cluster invariant
// checker: at every barrier of a shared-working-set run whose shards hold
// more than 64 hosts (two-word bitmaps), every host holding a key in any
// tier is in the key's holder set, for layered LRU, a non-LRU flash
// policy, the unified cache, lookaside and a flash-only layered host (whose
// writes insert into flash directly). The layered hosts start from a
// prefilled flash cache, as a recovered run does.
func TestHolderSetCoversCaches(t *testing.T) {
	layered := HostConfig{RAMBlocks: 4, FlashBlocks: 16, Arch: Naive,
		RAMPolicy: PolicyP1, FlashPolicy: PolicyAsync}
	clock := layered
	clock.FlashReplacement = cache.ReplaceClock
	unified := layered
	unified.Arch = Unified
	lookaside := layered
	lookaside.Arch = Lookaside
	noRAM := layered
	noRAM.RAMBlocks = 0
	for _, tc := range []struct {
		name string
		cfg  HostConfig
	}{
		{"layered-lru", layered}, {"layered-clock", clock}, {"unified", unified},
		{"lookaside", lookaside}, {"no-ram", noRAM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const hosts, shards = 140, 2
			c, err := NewCluster(sharedWSClusterSpec(hosts, shards, tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range c.shards {
				if sh.holders.words != 2 {
					t.Fatalf("shard of %d hosts has %d bitmap words, want 2", len(sh.hosts), sh.holders.words)
				}
			}
			rnd := rng.New(1)
			for i, h := range c.Hosts() {
				h.Prefill([]cache.Key{cache.Key(sharedWSKey(i)), cache.Key(sharedWSKey(i + 48))}, 0.5, rnd)
			}
			checkHolderSuperset(t, c)
			c.Start()
			defer c.Close()
			c.StartDrivers(nil)
			c.autoStop = true
			barriers, highWord := 0, 0
			for {
				// Pausing at the pending barrier runs exactly one epoch.
				idle := c.Advance(max(c.end, 1))
				barriers++
				highWord += checkHolderSuperset(t, c)
				if idle {
					break
				}
			}
			if c.Consistency().Invalidations == 0 || highWord == 0 {
				t.Fatalf("%d barriers, %d invalidations, %d second-word holders: the run did not exercise the set",
					barriers, c.Consistency().Invalidations, highWord)
			}
			if got, want := c.OpsCompleted(), uint64(hosts*120); got != want {
				t.Fatalf("%d of %d ops completed", got, want)
			}
		})
	}
}

// TestHolderSetFillAfterProbe covers the race the mark-on-insert rule
// exists for: host 0's fetch of key k is still crossing the filer when the
// barrier probes host 0 for host 1's write of k, so the probe finds no
// copy and the fill lands afterwards with a stale copy. The fill's insert
// marks host 0, and host 1's next write of k drops that copy.
func TestHolderSetFillAfterProbe(t *testing.T) {
	const k = 5
	spec := clusterSpecForTest(2, 1)
	spec.Sources[0] = trace.NewSliceSource([]trace.Op{
		{Host: 0, Kind: trace.Read, File: 1, Block: k, Count: 1},
	})
	ops := []trace.Op{{Host: 1, Kind: trace.Write, File: 1, Block: k, Count: 1}}
	for j := uint32(0); j < 20; j++ {
		ops = append(ops, trace.Op{Host: 1, Kind: trace.Read, File: 1, Block: 1000 + j, Count: 1})
	}
	ops = append(ops, trace.Op{Host: 1, Kind: trace.Write, File: 1, Block: k, Count: 1})
	spec.Sources[1] = trace.NewSliceSource(ops)
	c, err := NewCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := trace.BlockKey(1, k)
	h0 := c.Hosts()[0]
	c.Start()
	defer c.Close()
	c.StartDrivers(nil)
	c.autoStop = true
	probed, refilled := false, false
	for {
		idle := c.Advance(max(c.end, 1))
		if !probed && c.Consistency().BlocksWritten > 0 {
			// The first write's barrier probe has run.
			probed = true
			if inFlight := h0.reqs.fetching(h0, cache.Key(key)) != nil; !inFlight || h0.holds(key) {
				t.Fatal("host 0's fetch is not in flight at the first write's probe")
			}
		}
		if probed && h0.holds(key) {
			refilled = true
		}
		if idle {
			break
		}
	}
	if !probed || !refilled {
		t.Fatalf("probed %v, refilled %v: the run did not fill after the probe", probed, refilled)
	}
	if h0.holds(key) {
		t.Fatal("host 1's second write left host 0's stale copy")
	}
	if all := c.Consistency().Invalidations; all != 1 {
		t.Fatalf("the cluster invalidated %d times, want 1", all)
	}
}

// BenchmarkHolderSetMark times one step of a shard's holder traffic at the
// 1024-host fleet's shard shape (512 hosts, 8 bitmap words) over a
// 2^16-key space whose keys all have slots: one host marks a key as it
// inserts it, and a probe clears another key's bitmap.
func BenchmarkHolderSetMark(b *testing.B) {
	const hosts, keys = 512, 1 << 16
	hs := newHolderSet(hosts)
	for k := 0; k < keys; k++ {
		hs.mark(cache.Key(k), int32(k%hosts))
	}
	k := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.mark(cache.Key(k&(keys-1)), int32(k%hosts))
		clear(hs.bitmap(uint64((k + keys/2) & (keys - 1))))
		k += 7
	}
}

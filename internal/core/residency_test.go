package core

import (
	"testing"

	"repro/internal/cache"
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
		spec.Warmup[i] = 0
	}
	return spec
}

// residentKeys counts the distinct keys resident in any of h's tiers.
func (h *Host) residentKeys() int {
	if h.uni != nil {
		return h.uni.Len()
	}
	n := h.flash.Len()
	for _, k := range h.ram.Keys(nil) {
		if h.flash.Peek(k) == nil {
			n++
		}
	}
	return n
}

// checkResidencyIndex asserts that every shard's index equals its hosts'
// cache contents: each indexed (key, host) pair hits, each slot's count
// matches its bitmap, and each host is indexed for exactly as many keys as
// it holds. It returns how many indexed pairs name a host past the first
// bitmap word.
func checkResidencyIndex(t *testing.T, c *Cluster) (highWord int) {
	t.Helper()
	for s, sh := range c.shards {
		ri := sh.res
		indexed := make([]int, len(sh.hosts))
		live := 0
		for slot := range ri.nodes {
			if ri.n[slot] == 0 {
				continue
			}
			live++
			key := uint64(ri.nodes[slot].Key())
			if nd := ri.index.Get(cache.Key(key)); nd != &ri.nodes[slot] || nd.Ref != int32(slot) {
				t.Fatalf("shard %d key %d: slot %d not indexed", s, key, slot)
			}
			holders := ri.appendLocals(nil, key)
			if len(holders) == 0 || int(ri.n[slot]) != len(holders) {
				t.Fatalf("shard %d key %d: slot count %d, %d holders", s, key, ri.n[slot], len(holders))
			}
			for i, li := range holders {
				if i > 0 && li <= holders[i-1] {
					t.Fatalf("shard %d key %d: holders %v not ascending", s, key, holders)
				}
				if !sh.hosts[li].holds(key) {
					t.Fatalf("shard %d: key %d indexed on host %d, which misses it", s, key, sh.hosts[li].ID())
				}
				indexed[li]++
				if li >= 64 {
					highWord++
				}
			}
		}
		if n, err := ri.index.Check(); err != nil || n != live {
			t.Fatalf("shard %d: index holds %d keys, %d slots live (%v)", s, n, live, err)
		}
		for li, h := range sh.hosts {
			if want := h.residentKeys(); indexed[li] != want {
				t.Fatalf("shard %d host %d: %d keys indexed, %d resident", s, h.ID(), indexed[li], want)
			}
		}
	}
	return highWord
}

// TestResidencyIndexMatchesCaches is the residency half of the cluster
// invariant checker: at every barrier of a shared-working-set run whose
// shards hold more than 64 hosts (two-word bitmaps), the index equals the
// actual cache contents, for layered LRU, a non-LRU flash policy and the
// unified cache.
func TestResidencyIndexMatchesCaches(t *testing.T) {
	layered := HostConfig{RAMBlocks: 4, FlashBlocks: 16, Arch: Naive,
		RAMPolicy: PolicyP1, FlashPolicy: PolicyAsync}
	clock := layered
	clock.FlashReplacement = cache.ReplaceClock
	unified := layered
	unified.Arch = Unified
	for _, tc := range []struct {
		name string
		cfg  HostConfig
	}{{"layered-lru", layered}, {"layered-clock", clock}, {"unified", unified}} {
		t.Run(tc.name, func(t *testing.T) {
			const hosts, shards = 140, 2
			c, err := NewCluster(sharedWSClusterSpec(hosts, shards, tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range c.shards {
				if sh.res.words != 2 {
					t.Fatalf("shard of %d hosts has %d bitmap words, want 2", len(sh.hosts), sh.res.words)
				}
			}
			c.Start()
			defer c.Close()
			c.StartDrivers()
			c.autoStop = true
			barriers, highWord := 0, 0
			for {
				// Pausing at the pending barrier runs exactly one epoch.
				idle := c.Advance(max(c.end, 1))
				barriers++
				highWord += checkResidencyIndex(t, c)
				if idle {
					break
				}
			}
			if c.Consistency().Invalidations == 0 || highWord == 0 {
				t.Fatalf("%d barriers, %d invalidations, %d second-word holders: the run did not exercise the index",
					barriers, c.Consistency().Invalidations, highWord)
			}
			if got, want := c.OpsCompleted(), uint64(hosts*120); got != want {
				t.Fatalf("%d of %d ops completed", got, want)
			}
		})
	}
}

// BenchmarkResidencyUpdate times one step of a shard's residency churn at
// the 1024-host fleet's shape (512 hosts a shard, 8 bitmap words): a fresh
// block becomes resident on one host while the block resident longest, of
// a 2^16-block window, leaves its host.
func BenchmarkResidencyUpdate(b *testing.B) {
	const hosts, window = 512, 1 << 16
	ri := newResidencyIndex(hosts)
	k := 0
	step := func() {
		ri.update(uint64(k), k%hosts, true)
		if old := k - window; old >= 0 {
			ri.update(uint64(old), old%hosts, false)
		}
		k++
	}
	for i := 0; i < 2*window; i++ {
		step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

package core

import (
	"reflect"
	"testing"

	"repro/internal/filer"
	"repro/internal/sim"
	"repro/internal/trace"
)

// clusterSpecForTest builds a small fleet spec over synthetic per-host
// traces: each host interleaves reads and writes over a private block
// range plus a slice of a shared range (so invalidations occur).
func clusterSpecForTest(hosts, shards int) ClusterSpec {
	tm := DefaultTiming()
	cfgs := make([]HostConfig, hosts)
	sources := make([]trace.Source, hosts)
	for i := range cfgs {
		cfgs[i] = HostConfig{
			ID:          i,
			RAMBlocks:   32,
			FlashBlocks: 128,
			Arch:        Naive,
			RAMPolicy:   PolicyP1,
			FlashPolicy: PolicyAsync,
		}
		var ops []trace.Op
		for j := 0; j < 400; j++ {
			kind := trace.Read
			if j%3 == 0 {
				kind = trace.Write
			}
			// Blocks 0..63 are shared across hosts; 1000+256*i private.
			block := uint32(j % 64)
			if j%2 == 0 {
				block = uint32(1000 + 256*i + j%200)
			}
			ops = append(ops, trace.Op{
				Host: uint16(i), Thread: uint16(j % 4), Kind: kind,
				File: 1, Block: block, Count: 1,
			})
		}
		sources[i] = trace.NewSliceSource(ops)
	}
	return ClusterSpec{
		Shards: shards,
		Hosts:  cfgs,
		Timing: tm,
		NewFiler: func(eng *sim.Engine) *filer.Filer {
			return newTestFiler(eng, 7, tm)
		},
		Sources: sources,
	}
}

// runTestCluster runs c to completion with every host collecting after
// its first 100 blocks.
func runTestCluster(c *Cluster) {
	warmup := make([]int64, len(c.Hosts()))
	for i := range warmup {
		warmup[i] = 100
	}
	c.Start()
	defer c.Close()
	c.StartDrivers(warmup)
	c.RunToCompletion()
}

type clusterSnapshot struct {
	Ops, Blocks, Events uint64
	Now                 sim.Time
	Cons                ConsistencyStats
	Fast, Slow, Writes  uint64
	Stats               []HostStats
}

func snapshotCluster(c *Cluster) clusterSnapshot {
	s := clusterSnapshot{
		Ops: c.OpsCompleted(), Blocks: c.BlocksIssued(), Events: c.Events(),
		Now: c.Now(), Cons: c.Consistency(),
		Fast: c.Filer().FastReads(), Slow: c.Filer().SlowReads(), Writes: c.Filer().Writes(),
	}
	for _, h := range c.Hosts() {
		s.Stats = append(s.Stats, *h.Stats())
	}
	return s
}

// TestClusterSingleShardMatchesMulti locks the full invariance chain down
// to one shard: the inline (goroutine-free) single-shard path and the
// parallel multi-shard path execute the identical schedule.
func TestClusterSingleShardMatchesMulti(t *testing.T) {
	var ref clusterSnapshot
	for i, shards := range []int{1, 2, 3, 4} {
		c, err := NewCluster(clusterSpecForTest(4, shards))
		if err != nil {
			t.Fatalf("NewCluster(shards=%d): %v", shards, err)
		}
		if got := len(c.shards); got != shards {
			t.Fatalf("%d shards, want %d", got, shards)
		}
		runTestCluster(c)
		snap := snapshotCluster(c)
		if snap.Ops == 0 || snap.Blocks == 0 {
			t.Fatalf("shards=%d: no work executed: %+v", shards, snap)
		}
		if i == 0 {
			ref = snap
			continue
		}
		if !reflect.DeepEqual(ref, snap) {
			t.Errorf("shards=%d diverged from shards=1:\nref: %+v\ngot: %+v", shards, ref, snap)
		}
	}
}

// TestClusterInvalidationAccounting checks that shared-range writes are
// observed and drop remote copies.
func TestClusterInvalidationAccounting(t *testing.T) {
	c, err := NewCluster(clusterSpecForTest(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	runTestCluster(c)
	cons := c.Consistency()
	if cons.BlocksWritten == 0 {
		t.Error("no block writes observed while collecting")
	}
	if cons.Invalidations == 0 {
		t.Error("shared-range writes dropped no remote copies")
	}
	if cons.WritesInvalidating > cons.BlocksWritten {
		t.Errorf("writes invalidating (%d) exceeds block writes (%d)",
			cons.WritesInvalidating, cons.BlocksWritten)
	}
	if f := cons.InvalidationFraction(); f <= 0 || f > 1 {
		t.Errorf("invalidation fraction %v out of (0,1]", f)
	}
}

// TestClusterProtocolInvariance locks the callback protocol's barrier
// routing at the core level: ownership acquisitions, holder callbacks,
// downgrades and their accounting are bit-identical for every shard count,
// and the traffic is actually exercised (the test trace writes a shared
// block range).
func TestClusterProtocolInvariance(t *testing.T) {
	var ref clusterSnapshot
	for i, shards := range []int{1, 2, 3, 4} {
		spec := clusterSpecForTest(4, shards)
		spec.ConsistencyProtocol = true
		c, err := NewCluster(spec)
		if err != nil {
			t.Fatalf("NewCluster(shards=%d): %v", shards, err)
		}
		runTestCluster(c)
		snap := snapshotCluster(c)
		if i == 0 {
			ref = snap
			if ref.Cons.ControlMessages == 0 || ref.Cons.OwnershipAcquires == 0 {
				t.Fatalf("protocol cluster recorded no protocol traffic: %+v", ref.Cons)
			}
			if ref.Cons.Downgrades == 0 {
				t.Error("shared-range reads forced no downgrades")
			}
			if ref.Cons.BlocksWritten == 0 {
				t.Error("no block writes counted while collecting")
			}
			continue
		}
		if !reflect.DeepEqual(ref, snap) {
			t.Errorf("protocol shards=%d diverged from shards=1:\nref: %+v\ngot: %+v", shards, ref, snap)
		}
	}
}

// TestClusterSpecValidation covers the constructor's error paths.
func TestClusterSpecValidation(t *testing.T) {
	spec := clusterSpecForTest(2, 2)
	spec.Hosts = nil
	if _, err := NewCluster(spec); err == nil {
		t.Error("no hosts should fail")
	}

	spec = clusterSpecForTest(2, 2)
	spec.Sources = spec.Sources[:1]
	if _, err := NewCluster(spec); err == nil {
		t.Error("mismatched sources should fail")
	}

	spec = clusterSpecForTest(2, 2)
	spec.NewFiler = nil
	if _, err := NewCluster(spec); err == nil {
		t.Error("missing filer constructor should fail")
	}

	// The caller names the shard count, from one to the host count: 0 is
	// not a default, and a count above the host count is not clamped.
	for _, shards := range []int{0, -1, 3, 64} {
		if _, err := NewCluster(clusterSpecForTest(2, shards)); err == nil {
			t.Errorf("shards %d should fail", shards)
		}
	}

	// A zero filer service latency leaves no conservative lookahead.
	spec = clusterSpecForTest(2, 2)
	tm := spec.Timing
	tm.FilerFastRead, tm.FilerSlowRead, tm.FilerWrite = 0, 0, 0
	spec.NewFiler = func(eng *sim.Engine) *filer.Filer {
		return newTestFiler(eng, 7, tm)
	}
	if _, err := NewCluster(spec); err == nil {
		t.Error("zero filer latency should fail (no lookahead)")
	}

	c, err := NewCluster(clusterSpecForTest(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.shards); got != 2 {
		t.Errorf("%d shards, want 2", got)
	}
}

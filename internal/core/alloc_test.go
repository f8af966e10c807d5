package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/consistency"
	"repro/internal/filer"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The pooled request path's contract: once a host is warm (request records
// pooled, cache entries recycling through their free lists, the engine's
// heap at its high-water mark), serving a block request allocates nothing —
// independent of how many requests have run.
//
// AllocsPerRun truncates the per-run average, so a rare map rehash (the
// fetch-dedup pending table) still fits this ceiling. It
// locks the *steady state*, where the closure-based predecessor allocated
// on every asynchronous hop and the registry's func() continuation on
// every block.
const allocBudgetPerRequest = 0.0

func TestWarmBlockPathAllocationBudget(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMBlocks = 32
	cfg.FlashBlocks = 128
	// The instant-mode registry every multi-host sequential run carries:
	// each read and write acquires through it.
	r := newRigWithRegistry(t, cfg, testTiming(), consistency.NewRegistry())

	const span = 512 // working set far larger than flash: steady eviction churn
	key := func(i int) cache.Key { return cache.Key(i % span) }

	// Warm: fill caches, populate free lists, grow the event heap.
	for i := 0; i < 4*span; i++ {
		if i%3 == 0 {
			r.host.Write(key(i), nil)
		} else {
			r.host.Read(key(i), nil)
		}
		r.eng.Run()
	}

	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if i%3 == 0 {
			r.host.Write(key(i), nil)
		} else {
			r.host.Read(key(i), nil)
		}
		i++
		r.eng.Run()
	})
	if allocs > allocBudgetPerRequest {
		t.Errorf("warm block request allocated %v per run, budget %v", allocs, allocBudgetPerRequest)
	}
	if r.reg.BlocksWritten() == 0 {
		t.Error("writes bypassed the registry")
	}
}

// A warm RAM hit — the most common event in every experiment — must be
// fully allocation-free.
func TestWarmRAMHitAllocationFree(t *testing.T) {
	cfg := baseCfg(Naive)
	r := newRig(t, cfg, testTiming())

	r.host.Read(1, nil)
	r.eng.Run()
	allocs := testing.AllocsPerRun(2000, func() {
		r.host.Read(1, nil)
		r.eng.Run()
	})
	if allocs != 0 {
		t.Errorf("warm RAM read hit allocated %v per run, want 0", allocs)
	}
}

// loopSource is an endless single-thread trace of one-block reads over a
// handful of blocks: the thread's queue never drains, so the driver holds
// the head-of-line op on every pump.
type loopSource struct{ n uint32 }

func (s *loopSource) Next() (trace.Op, bool) {
	s.n++
	return trace.Op{Kind: trace.Read, File: 1, Block: s.n % 4, Count: 1}, true
}

// TestDriverHeldOpAllocationFree locks the driver's pump: a full thread
// queue parks the next op by value, so completing an op — pump, kick and
// the next op's RAM hit — allocates nothing.
func TestDriverHeldOpAllocationFree(t *testing.T) {
	eng, hosts, _ := buildCluster(t, 1, baseCfg(Naive), testTiming(), false)
	d, err := NewDriver(eng, hosts, nil, &loopSource{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.start()
	completeOne := func() {
		for n := d.opsCompleted; d.opsCompleted == n; {
			eng.Step()
		}
	}
	for i := 0; i < 100; i++ { // warm: cache, op records, event heap
		completeOne()
	}
	notHeld := 0
	allocs := testing.AllocsPerRun(2000, func() {
		completeOne()
		// With an endless source the pump only stops by holding an op at
		// a full queue; the completion's kick may then start one more.
		if d.QueuedOps() < d.window-1 {
			notHeld++
		}
	})
	if notHeld != 0 {
		t.Fatalf("%d completions ended without a held op", notHeld)
	}
	if allocs != 0 {
		t.Errorf("completing an op with a held head-of-line op allocated %v per op, want 0", allocs)
	}
}

// partitionedClusterSpec is clusterSpecForTest over a 4-partition filer.
func partitionedClusterSpec(shards int) ClusterSpec {
	spec := clusterSpecForTest(4, shards)
	tm := spec.Timing
	spec.NewFiler = func(eng *sim.Engine) *filer.Filer {
		f, err := filer.NewPartitioned(eng, rng.New(7), filer.Config{
			Partitions:   4,
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
	return spec
}

// settledGoroutines returns the goroutine count once it has stopped
// changing: a goroutine of an earlier test may still be exiting, and a
// baseline taken mid-exit would make the exact check after Close fail.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n, stable := runtime.NumGoroutine(), 0
	for stable < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count still changing (%d) before Start", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// waitGoroutines polls until the goroutine count returns to want: a worker
// that has signalled its WaitGroup may not have exited yet.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPhase2WorkersAllocationFree locks the barrier's parallel phase 2:
// the persistent partition workers serve a large batch without allocating,
// and Start/Close leave no goroutine behind in either mode.
func TestPhase2WorkersAllocationFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	t.Run("parallel", func(t *testing.T) {
		c, err := NewCluster(partitionedClusterSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		before := settledGoroutines(t)
		c.Start()
		// A batch of 16 per partition: well past the 4×partitions gate.
		const n = 64
		for i := 0; i < n; i++ {
			key := uint64(i)
			c.msgBatch = append(c.msgBatch, filerMsg{
				at: sim.Time(i), host: int32(i % 4), seq: uint64(i),
				part: int32(c.fsrv.Route(key)), write: i%2 == 0, key: key,
			})
		}
		if !c.parallelPhase2() {
			t.Fatalf("batch of %d over %d partitions did not take the parallel branch", n, c.nparts)
		}
		allocs := testing.AllocsPerRun(200, func() {
			for _, sh := range c.shards {
				for p := range sh.inboxLanes {
					sh.inboxLanes[p] = sh.inboxLanes[p][:0]
				}
			}
			c.serviceFiler()
		})
		if allocs != 0 {
			t.Errorf("parallel phase 2 allocated %v per barrier, want 0", allocs)
		}
		delivered := 0
		for _, sh := range c.shards {
			for _, lane := range sh.inboxLanes {
				delivered += len(lane)
			}
		}
		if delivered != n {
			t.Errorf("phase 2 delivered %d of %d completions", delivered, n)
		}
		c.Close()
		waitGoroutines(t, before)
	})

	t.Run("inline", func(t *testing.T) {
		c, err := NewCluster(partitionedClusterSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		before := settledGoroutines(t)
		c.Start()
		if c.partWake != nil {
			t.Fatal("inline cluster started partition workers")
		}
		c.Close()
		waitGoroutines(t, before)
	})
}

// TestReqArenaCarvesSlabs locks the request arena: raising a host's
// in-flight high-water mark by n records allocates one slab per reqSlab
// records (plus one for a partly used slab), not one record at a time.
func TestReqArenaCarvesSlabs(t *testing.T) {
	r := newRig(t, baseCfg(Naive), testTiming())
	const n = 1000
	inFlight := make([]*hostReq, 0, 2*n) // records held, as in-flight steps hold them
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			inFlight = append(inFlight, r.host.getReq())
		}
	})
	if limit := float64((n+reqSlab-1)/reqSlab + 1); allocs > limit {
		t.Errorf("raising the high-water mark by %d records allocated %v times, want <= %v", n, allocs, limit)
	}
	for _, q := range inFlight {
		if q.h != r.host {
			t.Fatal("carved record not bound to its host")
		}
	}
}

// TestClusterShardsShareReqArena checks that a cluster hands each shard's
// arena to every host on it, and that shared records stay bound to the
// host that carved them.
func TestClusterShardsShareReqArena(t *testing.T) {
	c, err := NewCluster(clusterSpecForTest(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.shards {
		for _, h := range sh.hosts {
			if h.reqs != &sh.reqs {
				t.Fatalf("host %d does not carve from its shard's arena", h.ID())
			}
		}
	}
	a, b := c.shards[0].hosts[0], c.shards[0].hosts[1]
	ra, rb := a.getReq(), b.getReq()
	if ra.h != a || rb.h != b {
		t.Fatal("records carved from a shared arena lost their host")
	}
	a.putReq(ra)
	if a.getReq() != ra {
		t.Fatal("a released record did not recycle through its host's free list")
	}
}

// TestResidencyIndexGrowthAllocations locks the slot-array index: indexing
// K distinct resident blocks allocates what a bare map of those keys does
// plus O(log K) array growth, never once per block.
func TestResidencyIndexGrowthAllocations(t *testing.T) {
	const hosts, keys = 100, 4096
	bare := testing.AllocsPerRun(1, func() {
		m := make(map[uint64]int32)
		for k := 0; k < keys; k++ {
			m[uint64(k)] = int32(k)
		}
	})
	var ri *residencyIndex
	allocs := testing.AllocsPerRun(1, func() {
		ri = newResidencyIndex(hosts)
		for k := 0; k < keys; k++ {
			ri.update(uint64(k), k%hosts, true)
		}
	})
	if limit := bare + 40; allocs > limit {
		t.Errorf("indexing %d resident blocks allocated %v times, want <= %v (a bare map: %v)", keys, allocs, limit, bare)
	}
	// Emptied slots recycle: a second generation of blocks reuses them.
	for k := 0; k < keys; k++ {
		ri.update(uint64(k), k%hosts, false)
	}
	allocs = testing.AllocsPerRun(1, func() {
		for k := 0; k < keys; k++ {
			ri.update(uint64(keys+k), k%hosts, true)
			ri.update(uint64(keys+k), k%hosts, false)
		}
	})
	if allocs != 0 {
		t.Errorf("recycled slots allocated %v times, want 0", allocs)
	}
}

// TestResidencyIndexChurnAllocationFree locks the index's steady state: a
// sliding window of resident blocks, each held by two hosts, where every
// step indexes a fresh key and retires the oldest. Retired slots recycle
// and the open-addressed table never rehashes, so the churn allocates
// nothing once the window has been indexed.
func TestResidencyIndexChurnAllocationFree(t *testing.T) {
	const hosts, window = 100, 1000
	ri := newResidencyIndex(hosts)
	k := 0
	step := func() {
		ri.update(uint64(k), k%hosts, true)
		ri.update(uint64(k), (k+37)%hosts, true)
		if old := k - window; old >= 0 {
			ri.update(uint64(old), old%hosts, false)
			ri.update(uint64(old), (old+37)%hosts, false)
		}
		k++
	}
	for i := 0; i < 2*window; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 20*window; i++ {
			step()
		}
	})
	if allocs != 0 {
		t.Errorf("%d churn steps allocated %v times, want 0", 20*window, allocs)
	}
	if n, err := ri.index.Check(); err != nil || n != window {
		t.Fatalf("index holds %d keys (%v), want the %d-key window", n, err, window)
	}
	if got := ri.appendLocals(nil, uint64(k-1)); len(got) != 2 {
		t.Fatalf("newest key has holders %v, want two", got)
	}
}

// probeSource is a slice source that runs probe before every op it hands
// out, observing the driver in the middle of a pump.
type probeSource struct {
	ops   []trace.Op
	probe func()
}

func (s *probeSource) Next() (trace.Op, bool) {
	s.probe()
	if len(s.ops) == 0 {
		return trace.Op{}, false
	}
	op := s.ops[0]
	s.ops = s.ops[1:]
	return op, true
}

// TestDriverThreadQueueAllocatedOnce locks the driver's thread queues: each
// is allocated once, at window capacity, when its thread key first
// appears, and keeps that backing array for the driver's life.
func TestDriverThreadQueueAllocatedOnce(t *testing.T) {
	eng, hosts, _ := buildCluster(t, 2, baseCfg(Naive), testTiming(), false)
	src := &probeSource{}
	for j := 0; j < 600; j++ {
		src.ops = append(src.ops, trace.Op{
			Host: uint16(j % 2), Thread: uint16(j % 3), Kind: trace.Read,
			File: 1, Block: uint32(j % 50), Count: uint32(1 + j%3),
		})
	}
	total := len(src.ops)
	d, err := NewDriver(eng, hosts, nil, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	backing := make(map[uint32]*trace.Op)
	deepest := 0
	src.probe = func() {
		for tk, q := range d.queues {
			deepest = max(deepest, len(q))
			if cap(q) != d.window {
				t.Fatalf("thread %#x queue capacity %d, want window %d", tk, cap(q), d.window)
			}
			p := &q[:1][0]
			if prev, ok := backing[tk]; ok && prev != p {
				t.Fatalf("thread %#x queue reallocated", tk)
			}
			backing[tk] = p
		}
	}
	d.Run()
	if deepest != d.window {
		t.Fatalf("deepest queue %d, want a full window of %d", deepest, d.window)
	}
	if len(backing) != 6 || d.OpsCompleted() != uint64(total) {
		t.Fatalf("%d thread queues, %d of %d ops completed", len(backing), d.OpsCompleted(), total)
	}
}

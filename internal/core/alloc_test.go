package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cache"
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

// The lock covers every architecture under four policy pairs, so each
// tier's eviction, write-through, syncer and delayed-timer stages run in
// the measured loop. Every request advances the engine by a fixed
// simulated millisecond, so the syncers tick inside the loop too (Run
// alone returns once only daemon events remain).
func TestWarmBlockPathAllocationBudget(t *testing.T) {
	policies := []struct {
		name       string
		ram, flash Policy
	}{
		{"periodic/async", Policy{Kind: Periodic, Period: 20 * sim.Millisecond}, PolicyAsync},
		{"none/none", PolicyNone, PolicyNone},
		{"sync/sync", PolicySync, PolicySync},
		{"delayed/trickle", Policy{Kind: Delayed, Period: 5 * sim.Millisecond},
			Policy{Kind: trickle, Period: sim.Millisecond}},
	}
	for _, arch := range []Architecture{Naive, Lookaside, Unified} {
		for _, pol := range policies {
			t.Run(arch.String()+"/"+pol.name, func(t *testing.T) {
				cfg := baseCfg(arch)
				cfg.RAMBlocks = 32
				cfg.FlashBlocks = 128
				cfg.RAMPolicy, cfg.FlashPolicy = pol.ram, pol.flash
				r := newRig(t, cfg, testTiming())
				// The instant-mode registry every multi-host sequential
				// run carries: each read and write acquires through it.
				cons := TrackConsistency([]*Host{r.host}, false)

				const span = 512 // working set far larger than flash: steady eviction churn
				key := func(i int) cache.Key { return cache.Key(i % span) }
				i := 0
				request := func() {
					if i%3 == 0 {
						r.host.write(key(i), cont{})
					} else {
						r.host.read(key(i), cont{})
					}
					i++
					r.eng.RunUntil(r.eng.Now() + sim.Millisecond)
				}

				// Warm: fill caches, populate free lists, grow the event heap.
				for range 4 * span {
					request()
				}
				if allocs := testing.AllocsPerRun(2000, request); allocs > allocBudgetPerRequest {
					t.Errorf("warm block request allocated %v per run, budget %v", allocs, allocBudgetPerRequest)
				}
				if cons.BlocksWritten == 0 {
					t.Error("writes bypassed the consistency port")
				}
			})
		}
	}
}

// A warm RAM hit — the most common event in every experiment — must be
// fully allocation-free.
func TestWarmRAMHitAllocationFree(t *testing.T) {
	cfg := baseCfg(Naive)
	r := newRig(t, cfg, testTiming())

	r.host.read(1, cont{})
	r.eng.Run()
	allocs := testing.AllocsPerRun(2000, func() {
		r.host.read(1, cont{})
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
	d, err := NewDriver(eng, hosts, &loopSource{}, 0)
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
		if d.queuedOps < window-1 {
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

// TestPhase2WorkersAllocationFree locks the barrier's phase 2 (the filer
// service) under parallel shard workers: both serial walks serve a batch
// spread over every partition without allocating, every completion reaches
// its shard's inbox, and Start/Close leave no goroutine behind.
func TestPhase2WorkersAllocationFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	t.Run("parallel", func(t *testing.T) {
		c, err := NewCluster(partitionedClusterSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		before := settledGoroutines(t)
		c.Start()
		if c.inline {
			t.Fatal("two shards on two processors ran inline; want parallel shard workers")
		}
		const n = 64
		for i := 0; i < n; i++ {
			c.msgBatch = append(c.msgBatch, filerMsg{
				arrival: arrival{sim.Time(i), int32(i % 4), uint64(i)},
				write:   i%2 == 0, key: uint64(i),
			})
		}
		allocs := testing.AllocsPerRun(200, func() {
			for _, sh := range c.shards {
				sh.inbox = sh.inbox[:0]
			}
			c.serviceFiler()
		})
		if allocs != 0 {
			t.Errorf("filer service allocated %v per barrier, want 0", allocs)
		}
		for p, d := range c.depth {
			if d == 0 {
				t.Errorf("partition %d received none of the %d requests", p, n)
			}
		}
		delivered := 0
		for _, sh := range c.shards {
			delivered += len(sh.inbox)
		}
		if delivered != n {
			t.Errorf("filer service delivered %d of %d completions", delivered, n)
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

// TestClusterShardsShareReqArena checks that all hosts of a cluster shard
// carve from one arena, that shards do not share one, and that shared
// records stay bound to the host that carved them.
func TestClusterShardsShareReqArena(t *testing.T) {
	c, err := NewCluster(clusterSpecForTest(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.shards {
		for _, h := range sh.hosts {
			if h.reqs != sh.hosts[0].reqs {
				t.Fatalf("host %d does not carve from its shard's arena", h.id())
			}
		}
	}
	if c.shards[0].hosts[0].reqs == c.shards[1].hosts[0].reqs {
		t.Fatal("two shards share one arena")
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

// TestExchangeGatherAllocationFree locks the barrier gather: sorting each
// outbox's equal-time runs by the arrival key and merging the outboxes
// into a reused batch allocates nothing, and yields the global key order.
func TestExchangeGatherAllocationFree(t *testing.T) {
	// Two outboxes, non-decreasing in time, with same-instant runs out of
	// (host, seq) order inside each.
	fill := func(out []invMsg, hosts ...int32) []invMsg {
		out = out[:0]
		for i, h := range hosts {
			out = append(out, invMsg{arrival: arrival{sim.Time(i / 3), h, uint64(8 - i)}})
		}
		return out
	}
	a := make([]invMsg, 0, 9)
	b := make([]invMsg, 0, 9)
	srcs := make([][]invMsg, 0, 2)
	var dst []invMsg
	gather := func() {
		a, b = fill(a, 4, 2, 2, 6, 0, 4, 2, 2, 2), fill(b, 5, 1, 3, 3, 7, 1, 1, 5, 3)
		canonicalizeRuns(a)
		canonicalizeRuns(b)
		dst = mergeSorted(dst[:0], append(srcs[:0], a, b))
	}
	gather() // size dst
	if allocs := testing.AllocsPerRun(100, gather); allocs != 0 {
		t.Errorf("gather allocated %v times, want 0", allocs)
	}
	if len(dst) != 18 {
		t.Fatalf("merged %d messages, want 18", len(dst))
	}
	for i := 1; i < len(dst); i++ {
		if dst[i-1].arrival.compare(dst[i].arrival) >= 0 {
			t.Fatalf("batch out of order at %d: %+v then %+v", i, dst[i-1].arrival, dst[i].arrival)
		}
	}
}

// TestHolderSetGrowthAllocations locks the slot-array set: marking K
// distinct keys allocates what a bare map of those keys does plus O(log K)
// array growth, never once per key.
func TestHolderSetGrowthAllocations(t *testing.T) {
	const hosts, keys = 100, 4096
	bare := testing.AllocsPerRun(1, func() {
		m := make(map[uint64]int32)
		for k := 0; k < keys; k++ {
			m[uint64(k)] = int32(k)
		}
	})
	allocs := testing.AllocsPerRun(1, func() {
		hs := newHolderSet(hosts)
		for k := 0; k < keys; k++ {
			hs.mark(cache.Key(k), int32(k%hosts))
		}
	})
	if limit := bare + 40; allocs > limit {
		t.Errorf("marking %d keys allocated %v times, want <= %v (a bare map: %v)", keys, allocs, limit, bare)
	}
}

// TestHolderSetChurnAllocationFree locks the set's steady state over a
// bounded key space, as a run's file-set model gives it: once every key
// has a slot, marking holders and clearing them the way a probe does
// allocates nothing, however long the churn runs.
func TestHolderSetChurnAllocationFree(t *testing.T) {
	const hosts, window = 100, 1000
	hs := newHolderSet(hosts)
	k := 0
	step := func() {
		key := k % window
		hs.mark(cache.Key(key), int32(k%hosts))
		hs.mark(cache.Key(key), int32((k+37)%hosts))
		clear(hs.bitmap(uint64((k + window/2) % window)))
		k++
	}
	for i := 0; i < window; i++ {
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
	if n, err := hs.index.Check(); err != nil || n != window {
		t.Fatalf("index holds %d keys (%v), want the %d-key space", n, err, window)
	}
	newest := k - 1
	set := hs.bitmap(uint64(newest % window))
	for _, li := range []int{newest % hosts, (newest + 37) % hosts} {
		if set[li>>6]&(1<<uint(li&63)) == 0 {
			t.Fatalf("newest key's bitmap %b lacks holder %d", set, li)
		}
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

// TestDriverThreadQueueAllocatedOnce locks the driver's thread queues:
// each thread's record, with its queue inline, is carved once, when its
// thread key first appears, and keeps its place for the driver's life; the
// queue fills to the window and never past it.
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
	d, err := NewDriver(eng, hosts, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	records := make(map[uint32]*threadRec)
	deepest := 0
	src.probe = func() {
		for _, tr := range d.threads {
			if tr == nil {
				continue
			}
			deepest = max(deepest, int(tr.n))
			if tr.n > window {
				t.Fatalf("thread %#x queue holds %d ops, window %d", tr.tk, tr.n, window)
			}
			if prev, ok := records[tr.tk]; ok && prev != tr {
				t.Fatalf("thread %#x record reallocated", tr.tk)
			}
			records[tr.tk] = tr
		}
	}
	d.Run()
	if deepest != window {
		t.Fatalf("deepest queue %d, want a full window of %d", deepest, window)
	}
	if len(records) != 6 || d.nthreads != 6 || d.OpsCompleted() != uint64(total) {
		t.Fatalf("%d thread records (%d indexed), %d of %d ops completed", len(records), d.nthreads, d.OpsCompleted(), total)
	}
}

// TestFlushRecoverAllocationsPerBlock locks the fan-out completions of
// Flush and Recover: each flushed block and each metadata scan read
// completes through one static *sim.Join callback, so ten times the dirty
// blocks costs no more allocations than the dirty-list growth. Building
// the method value join.Done per block cost one closure each.
func TestFlushRecoverAllocationsPerBlock(t *testing.T) {
	mallocs := func(f func()) int {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int(after.Mallocs - before.Mallocs)
	}
	// measure returns the allocations of Recover and of Flush over n
	// dirty blocks, after two warm rounds grow the record arena and the
	// engine's heap.
	measure := func(n int) (recovered, flushed int) {
		cfg := layeredCfg(8, 256)
		cfg.PersistentFlash = true
		cfg.RAMPolicy = PolicySync
		r := newRig(t, cfg, testTiming())
		runtime.GC()
		for round := 0; round < 3; round++ {
			dirtyUp(r, n)
			r.host.Crash()
			if got := r.host.flash.DirtyLen(); got != n {
				t.Fatalf("%d dirty flash blocks after crash, want %d", got, n)
			}
			recovered = mallocs(func() {
				r.host.Recover(nil)
				r.eng.Run()
			})
			dirtyUp(r, n)
			flushed = mallocs(func() {
				r.host.Flush(0, nil)
				r.eng.Run()
			})
			if r.host.DirtyBlocks() != 0 {
				t.Fatal("dirty blocks remain after flush")
			}
		}
		return recovered, flushed
	}
	const few, many = 20, 200
	r1, f1 := measure(few)
	r2, f2 := measure(many)
	const slack = (many - few) / 10 // far below one allocation per block
	if r2-r1 >= slack || f2-f1 >= slack {
		t.Errorf("%d more dirty blocks cost %d more allocations in Recover (%d → %d) and %d in Flush (%d → %d), want < %d",
			many-few, r2-r1, r1, r2, f2-f1, f1, f2, slack)
	}
}

// TestClusterBuildAllocationsFlatInHosts locks the per-engine host
// arrays: building a 2-shard cluster and running it through a short trace
// costs the same allocations, up to a small constant, at 64 hosts as at
// 1024. Hosts, drivers, network segments, filer ports, consistency sinks,
// thread records, pending fetches, waiters and flush scratch all come from
// arrays and slabs each engine shares. The cache tier still allocates per
// host (each cache's structure, index and first entry slab), so the same
// caches are built alone, one insertion each, and their count taken out.
//
// What remains is growth the engines share: the event heap, outboxes and
// barrier batches, the pending-fetch table, the holder set and the
// geometric thread-record slabs double as the host count does, plus one
// request slab per 256 records in flight. Four doublings from 64 to 1024
// hosts measure about 25 allocations each; one allocation per host would
// add 960.
func TestClusterBuildAllocationsFlatInHosts(t *testing.T) {
	spec := func(hosts int) ClusterSpec {
		s := clusterSpecForTest(hosts, 2)
		for i := range s.Sources {
			var ops []trace.Op
			for j := 0; j < 8; j++ {
				kind := trace.Read
				if j%4 == 3 {
					kind = trace.Write
				}
				ops = append(ops, trace.Op{
					Host: uint16(i), Thread: uint16(j % 2), Kind: kind,
					File: 1, Block: uint32(16*i + j%5), Count: 1,
				})
			}
			s.Sources[i] = trace.NewSliceSource(ops)
		}
		return s
	}
	// No collection runs inside a measurement, so the collector's own
	// allocations do not count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	measure := func(hosts int) (run, tiers int64) {
		s := spec(hosts)
		run = mallocs(func() {
			c, err := NewCluster(s)
			if err != nil {
				t.Fatal(err)
			}
			runTestCluster(c)
			for _, d := range c.Drivers() {
				if !d.Done() {
					t.Fatal("trace not completed")
				}
			}
		})
		tiers = mallocs(func() {
			for _, hc := range s.Hosts {
				ram := cache.NewLRU(hc.RAMBlocks, cache.RAM)
				flash, err := cache.NewBlockCache(hc.FlashReplacement, hc.FlashBlocks, cache.Flash)
				if err != nil {
					t.Fatal(err)
				}
				ram.TryInsert(0)
				flash.TryInsert(0)
			}
		})
		return run, tiers
	}
	measure(64) // warm: the runtime's one-off allocations
	run64, tiers64 := measure(64)
	run1k, tiers1k := measure(1024)
	small, large := run64-tiers64, run1k-tiers1k
	t.Logf("64 hosts: %d allocations (%d cache tier); 1024 hosts: %d (%d cache tier)", run64, tiers64, run1k, tiers1k)
	const perDoubling, doublings = 48, 4
	if slack := int64(perDoubling * doublings); large-small > slack {
		t.Errorf("beyond the cache tier, 1024 hosts allocated %d times and 64 hosts %d: %d more, want <= %d",
			large, small, large-small, slack)
	}
}

package core

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/cache"
	"repro/internal/consistency"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FilerPort is a host's route to the shared file server: the two
// allocation-free service calls the request path issues once a packet has
// crossed the host's network segment. The block key selects the filer
// backend partition (and its tier state); it never affects fast/slow
// draws, which come from one shared stream. In a sequential run the port
// is the *filer.Filer itself; in a sharded run it is a per-host mailbox
// that forwards the request to the epoch-barrier coordinator, which
// services the filer in globally sorted arrival order (see Cluster).
type FilerPort interface {
	// Read2 services a one-block read; fn(arg) runs after the drawn
	// fast-or-slow (or object-tier) service latency.
	Read2(key uint64, fn func(any), arg any)
	// Write2 services a one-block (always fast, buffered) write.
	Write2(key uint64, fn func(any), arg any)
}

// InvalidationSink observes block writes for cross-host invalidation in
// sharded runs, replacing the consistency.Registry's instant global
// knowledge: the sink records (writer, key) and the cluster drops remote
// copies at the next epoch barrier.
type InvalidationSink interface {
	// BlockWritten is called when host commits a new version of key into
	// its cache; collecting reports whether the host is past warmup, which
	// gates the invalidation statistics exactly like Registry.SetCollect.
	BlockWritten(host int, key uint64, collecting bool)
}

// ConsistencyPort routes a host's reads and writes through a sharded
// callback consistency protocol (the Cluster analogue of
// consistency.Registry in ModeCallback): a write acquires exclusive
// ownership — paying control-message round trips through the epoch
// barrier — before it may commit, and a read of a block exclusively owned
// elsewhere forces a downgrade and dirty flush first. fn(arg) runs when
// the operation may proceed.
type ConsistencyPort interface {
	AcquireRead(key uint64, fn func(any), arg any)
	AcquireWrite(key uint64, fn func(any), arg any)
}

// Host is one compute server's cache stack: a RAM buffer cache and a flash
// cache in front of the shared filer, reached over a private network
// segment. All block I/O enters through Read and Write; completions are
// delivered by callback in simulated time.
//
// The request path is written in explicit continuation-passing style over
// pooled hostReq records (see req.go): every asynchronous hand-off goes
// through a static func(any) plus a recycled record, so a warm host serves
// block requests without allocating.
type Host struct {
	eng    *sim.Engine
	cfg    HostConfig
	timing Timing

	// Layered architectures (naive, lookaside).
	ram   *cache.LRU
	flash cache.BlockCache
	// Unified architecture.
	uni *cache.Unified

	ramDev  *blockdev.RAMDevice
	flashIO FlashDev
	// seg carries demand traffic (fetches, synchronous write-through,
	// eviction writebacks that block a requester); bgSeg carries
	// asynchronous and periodic writeback traffic. Separating the lanes
	// keeps background flush bursts from queueing ahead of demand
	// fetches, matching the paper's observation that writeback policy
	// does not affect foreground latency until the cache fills with
	// dirty data (§7.1, §7.6).
	seg   *netsim.Segment
	bgSeg *netsim.Segment
	fsrv  FilerPort
	reg   *consistency.Registry // nil when consistency is not modeled
	inv   InvalidationSink      // nil outside sharded runs
	cport ConsistencyPort       // nil outside sharded protocol runs

	// pending de-duplicates concurrent demand fetches of the same block:
	// waiters are woken when the single fetch completes. Waiter slices
	// are recycled through waiterFree.
	pending    map[cache.Key][]cont
	waiterFree [][]cont

	// freeReq is the host-local free list of request records; reqs is
	// the engine-shared arena they are carved from (req.go).
	freeReq *hostReq
	reqs    *reqArena
	// dirtyScratch is the reusable buffer behind periodic flush scans.
	dirtyScratch []*cache.Entry

	collect bool
	st      HostStats

	// tr, when non-nil, is this host's request-lifecycle trace buffer.
	// The request path pays one nil check at entry; untraced chains carry
	// trSeq 0 so every downstream stage gate is a single integer compare.
	// Tracing records simulated timestamps of stages that already exist —
	// it schedules no events and draws no randomness, so results are
	// bit-identical with or without it.
	tr *obs.HostTrace

	// upInFlight, when non-nil, points at the owning shard's counter of
	// request packets currently crossing the wire toward the filer. The
	// cluster's adaptive epoch schedule widens the barrier bound by one
	// wire transit whenever the counter is globally zero (lookahead.go).
	upInFlight *int64

	syncers []*sim.Ticker
}

// evictionRetryDelay is how long an inserter waits when every eviction
// victim is pinned (all mid-writeback); it only triggers under extreme
// dirty pressure with tiny caches.
const evictionRetryDelay = 5 * sim.Microsecond

// NewHost builds a host attached to the shared engine, filer and (possibly
// nil) consistency registry. seg is the host's private link for demand
// traffic; bgSeg, if nil, defaults to seg (single shared lane).
func NewHost(eng *sim.Engine, cfg HostConfig, timing Timing,
	seg *netsim.Segment, bgSeg *netsim.Segment, fsrv FilerPort, reg *consistency.Registry) (*Host, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	if bgSeg == nil {
		bgSeg = seg
	}
	var flashIO FlashDev
	if cfg.FTLBacked && cfg.FlashBlocks > 0 {
		fdev, err := newFTLFlashDev(eng, cfg.FlashBlocks, cfg.PersistentFlash, uint64(cfg.ID)+1)
		if err != nil {
			return nil, err
		}
		flashIO = fdev
	} else {
		newFlash := blockdev.NewFlashDevice
		if cfg.ContendedFlash {
			newFlash = blockdev.NewContendedFlashDevice
		}
		flashIO = fixedFlashDev{newFlash(eng, fmt.Sprintf("flash%d", cfg.ID),
			timing.FlashRead, timing.FlashWrite, cfg.PersistentFlash)}
	}
	h := &Host{
		eng:     eng,
		cfg:     cfg,
		timing:  timing,
		ramDev:  blockdev.NewRAMDevice(eng, timing.RAMRead, timing.RAMWrite),
		flashIO: flashIO,
		seg:     seg,
		bgSeg:   bgSeg,
		fsrv:    fsrv,
		reg:     reg,
		pending: make(map[cache.Key][]cont),
	}
	if cfg.Arch == Unified {
		h.uni = cache.NewUnified(cfg.RAMBlocks, cfg.FlashBlocks)
	} else {
		h.ram = cache.NewLRU(cfg.RAMBlocks, cache.RAM)
		flash, err := cache.NewBlockCache(cfg.FlashReplacement, cfg.FlashBlocks, cache.Flash)
		if err != nil {
			return nil, err
		}
		h.flash = flash
	}
	if reg != nil {
		reg.Register(h)
	}
	h.startSyncers()
	return h, nil
}

// ID returns the host's identifier.
func (h *Host) ID() int { return h.cfg.ID }

// HostID implements consistency.CacheHolder.
func (h *Host) HostID() int { return h.cfg.ID }

// Config returns the host's configuration.
func (h *Host) Config() HostConfig { return h.cfg }

// Stats returns the host's accumulated statistics.
func (h *Host) Stats() *HostStats { return &h.st }

// FlashDevice exposes the flash device for utilisation reporting.
func (h *Host) FlashDevice() FlashDev { return h.flashIO }

// Segment exposes the host's network segment.
func (h *Host) Segment() *netsim.Segment { return h.seg }

// setResidencyHook registers fn to observe any-tier residency
// transitions: fn(key, true) when a block becomes resident in some cache
// tier, fn(key, false) when the last copy leaves. For the layered
// architectures a tier's own insert/remove only changes any-tier
// residency when the sibling tier has no copy, hence the Peek guards.
// Sharded runs install the hook at construction to index which hosts hold
// each block (see residency.go); sequential runs leave it unset and pay
// nothing.
func (h *Host) setResidencyHook(fn func(key uint64, held bool)) {
	if h.uni != nil {
		h.uni.SetResidencyHook(func(k cache.Key, added bool) { fn(uint64(k), added) })
		return
	}
	h.ram.SetResidencyHook(func(k cache.Key, added bool) {
		if h.flash.Peek(k) == nil {
			fn(uint64(k), added)
		}
	})
	h.flash.SetResidencyHook(func(k cache.Key, added bool) {
		if h.ram.Peek(k) == nil {
			fn(uint64(k), added)
		}
	})
}

// setUpCounter attaches the shard's in-flight up-packet counter; every
// filer-bound send increments it and the matching arrival decrements it.
// Only the shard's own goroutine touches the counter, and the cluster
// coordinator reads it between epochs with all shards quiescent.
func (h *Host) setUpCounter(ctr *int64) { h.upInFlight = ctr }

func (h *Host) noteUpSend() {
	if h.upInFlight != nil {
		*h.upInFlight++
	}
}

func (h *Host) noteUpArrival() {
	if h.upInFlight != nil {
		*h.upInFlight--
	}
}

// SetTrace attaches the host's request-lifecycle trace buffer (nil
// detaches). Attach before any requests are issued: the buffer's request
// sequence must count from the first op for the sampler's cross-shard
// invariance to hold.
func (h *Host) SetTrace(t *obs.HostTrace) { h.tr = t }

// span records one completed stage of a sampled request. Callers gate on
// r.trSeq != 0, which implies h.tr != nil.
func (h *Host) span(seq uint64, kind obs.Kind, key cache.Key, start sim.Time) {
	h.tr.Add(seq, kind, uint64(key), start, h.eng.Now())
}

// mark records a zero-duration marker (cache-lookup outcome, dedup join).
func (h *Host) mark(seq uint64, kind obs.Kind, key cache.Key) {
	now := h.eng.Now()
	h.tr.Add(seq, kind, uint64(key), now, now)
}

// SetCollect enables statistics collection (called after warmup).
func (h *Host) SetCollect(on bool) { h.collect = on }

// Collecting reports whether the host is currently recording statistics.
func (h *Host) Collecting() bool { return h.collect }

// SetInvalidationSink routes this host's write notifications to a sharded
// run's barrier-deferred invalidation exchange. It is mutually exclusive
// with a consistency.Registry, which models the same traffic with instant
// global knowledge.
func (h *Host) SetInvalidationSink(s InvalidationSink) {
	if h.reg != nil {
		panic("core: host has both a consistency registry and an invalidation sink")
	}
	if h.cport != nil {
		panic("core: host has both a consistency port and an invalidation sink")
	}
	h.inv = s
}

// SetConsistencyPort routes this host's reads and writes through a sharded
// run's barrier-deferred callback protocol. It is mutually exclusive with
// both a consistency.Registry (the sequential protocol) and an
// InvalidationSink (sharded instant mode).
func (h *Host) SetConsistencyPort(p ConsistencyPort) {
	if h.reg != nil {
		panic("core: host has both a consistency registry and a consistency port")
	}
	if h.inv != nil {
		panic("core: host has both an invalidation sink and a consistency port")
	}
	h.cport = p
}

// StopSyncers halts periodic writeback daemons so the engine can drain at
// end of trace.
func (h *Host) StopSyncers() {
	for _, s := range h.syncers {
		s.Stop()
	}
}

// Invalidate implements consistency.CacheHolder: drop any copy of key,
// instantly and free of charge (paper §3.8).
func (h *Host) Invalidate(key uint64) bool {
	dropped := false
	k := cache.Key(key)
	if h.uni != nil {
		if e := h.uni.Peek(k); e != nil {
			e.Pinned = false
			h.uni.Remove(e)
			dropped = true
		}
	} else {
		if e := h.ram.Peek(k); e != nil {
			e.Pinned = false
			h.ram.Remove(e)
			dropped = true
		}
		if e := h.flash.Peek(k); e != nil {
			e.Pinned = false
			h.flash.Remove(e)
			dropped = true
		}
	}
	if dropped && h.collect {
		h.st.InvalidatedHere++
	}
	return dropped
}

// Read performs a one-block application read; done runs at completion.
func (h *Host) Read(key cache.Key, done func()) { h.read(key, funcCont(done)) }

// read is the pooled-record form of Read.
func (h *Host) read(key cache.Key, done cont) {
	r := h.getReq()
	r.key = key
	r.start = h.eng.Now()
	r.collect = h.collect
	r.c = done
	if h.tr != nil {
		r.trSeq = h.tr.StartReq()
	}
	if h.reg != nil {
		// Under the callback protocol an exclusively-owned block must be
		// downgraded (and its dirty data flushed) before the read; under
		// the paper's instant model this continues immediately.
		h.reg.AcquireRead(h.cfg.ID, uint64(key), readProceed, r)
		return
	}
	if h.cport != nil {
		// Sharded callback protocol: the downgrade round trips thread
		// through the epoch barrier (see clusterproto.go).
		h.cport.AcquireRead(uint64(key), readProceed, r)
		return
	}
	readProceed(r)
}

// readProceed routes the request once any consistency acquisition is done.
func readProceed(a any) {
	r := a.(*hostReq)
	if r.h.cfg.Arch == Unified {
		r.h.readUnified(r)
	} else {
		r.h.readLayered(r)
	}
}

// finishRead records latency statistics and completes the application
// callback. It is the terminal stage of every read chain.
func finishRead(a any) {
	r := a.(*hostReq)
	h := r.h
	if r.collect {
		lat := h.eng.Now() - r.start
		h.st.ReadLat.Add(lat)
		h.st.ReadHist.Add(lat)
		h.st.BlocksRead++
	}
	if r.trSeq != 0 {
		h.span(r.trSeq, obs.KindRead, r.key, r.start)
	}
	done := r.c
	h.putReq(r)
	done.run()
}

// Write performs a one-block application write; done runs when the write
// is durable to the degree the configured policies require (normally: when
// it lands in the RAM cache).
func (h *Host) Write(key cache.Key, done func()) { h.write(key, funcCont(done)) }

// write is the pooled-record form of Write.
func (h *Host) write(key cache.Key, done cont) {
	r := h.getReq()
	r.key = key
	r.start = h.eng.Now()
	r.collect = h.collect
	r.c = done
	if h.tr != nil {
		r.trSeq = h.tr.StartReq()
	}
	// A new version is born in this host's cache: all other copies are
	// now stale. Under the paper's model the invalidation is instant and
	// free (§3.8); under the callback protocol the writer first acquires
	// exclusive ownership, paying the message round trips.
	if h.reg != nil {
		h.reg.AcquireWrite(h.cfg.ID, uint64(key), writeProceed, r)
		return
	}
	if h.cport != nil {
		// Sharded callback protocol: ownership acquisition (and the
		// invalidation it implies) crosses shards at the epoch barrier.
		h.cport.AcquireWrite(uint64(key), writeProceed, r)
		return
	}
	if h.inv != nil {
		// Sharded instant-mode consistency: the writer proceeds
		// immediately (invalidation is free, §3.8); remote copies drop at
		// the next epoch barrier instead of this very instant.
		h.inv.BlockWritten(h.cfg.ID, uint64(key), h.collect)
	}
	writeProceed(r)
}

func writeProceed(a any) {
	r := a.(*hostReq)
	if r.h.cfg.Arch == Unified {
		r.h.writeUnified(r)
	} else {
		r.h.writeLayered(r)
	}
}

// finishWrite is the terminal stage of every write chain.
func finishWrite(a any) {
	r := a.(*hostReq)
	h := r.h
	if r.collect {
		lat := h.eng.Now() - r.start
		h.st.WriteLat.Add(lat)
		h.st.WriteHist.Add(lat)
		h.st.BlocksWritten++
	}
	if r.trSeq != 0 {
		h.span(r.trSeq, obs.KindWrite, r.key, r.start)
	}
	done := r.c
	h.putReq(r)
	done.run()
}

// --- layered (naive / lookaside) read path ---

func (h *Host) readLayered(r *hostReq) {
	key := r.key
	if h.ram.Capacity() > 0 {
		if e := h.ram.Get(key); e != nil {
			if r.collect {
				h.st.RAMHits++
			}
			if r.trSeq != 0 {
				h.mark(r.trSeq, obs.KindRAMHit, key)
			}
			h.ramDev.Read2(finishRead, r)
			return
		}
	}
	if r.collect {
		h.st.RAMMisses++
	}
	if h.flash.Capacity() > 0 {
		if e := h.flash.Get(key); e != nil {
			if r.collect {
				h.st.FlashHits++
			}
			if r.trSeq != 0 {
				h.mark(r.trSeq, obs.KindFlashHit, key)
			}
			h.flashIO.Read2(key, readFillRAM, r)
			return
		}
		if r.collect {
			h.st.FlashMisses++
		}
	}
	if r.trSeq != 0 {
		h.mark(r.trSeq, obs.KindMiss, key)
	}
	h.fetchFromFiler(key, cont{readFillRAM, r}, r.trSeq)
}

// readFillRAM resumes a read once the block's data is available (from a
// flash hit or a filer fetch): install a clean RAM copy, then finish.
func readFillRAM(a any) {
	r := a.(*hostReq)
	r.h.installRAMClean(r.key, cont{finishRead, r})
}

// installRAMClean places a just-read block into the RAM cache (read fill).
// The RAM cache remains a subset of flash on this path because the block
// was installed in flash first (naive placement, §3.2).
func (h *Host) installRAMClean(key cache.Key, c cont) {
	if h.ram.Capacity() == 0 {
		c.run()
		return
	}
	if e := h.ram.Peek(key); e != nil {
		h.ram.Touch(e)
		h.ramDev.Read2(c.fn, c.arg) // data handed to the application from RAM
		return
	}
	r := h.getReq()
	r.key = key
	r.c = c
	h.makeRoomRAM(cont{installRAMCleanRoom, r})
}

func installRAMCleanRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	key, c := r.key, r.c
	h.putReq(r)
	h.ram.TryInsert(key)
	h.ramDev.Write2(c.fn, c.arg)
}

// --- layered write path ---

func (h *Host) writeLayered(r *hostReq) {
	if h.ram.Capacity() == 0 {
		key := r.key
		h.writeNoRAM(key, cont{finishWrite, r}, r.trSeq)
		return
	}
	if e := h.ram.Get(r.key); e != nil {
		h.commitRAMWrite(e, cont{finishWrite, r}, r.trSeq)
		return
	}
	// Write-allocate: traces are block-granular, so no read-modify-write
	// fetch is needed.
	h.makeRoomRAM(cont{writeLayeredRoom, r})
}

func writeLayeredRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	e, _ := h.ram.TryInsert(r.key)
	if e == nil {
		// Room vanished to a racing insert; retry.
		h.writeLayered(r)
		return
	}
	h.commitRAMWrite(e, cont{finishWrite, r}, r.trSeq)
}

// commitRAMWrite applies the data write to a resident RAM entry and then
// the RAM writeback policy.
func (h *Host) commitRAMWrite(e *cache.Entry, c cont, trSeq uint64) {
	e.DirtyEpoch++
	h.ram.MarkDirty(e)
	r := h.getReq()
	r.key = e.Key()
	r.e = e
	r.gen = e.Gen()
	r.c = c
	r.trSeq = trSeq
	h.ramDev.Write2(commitRAMWritten, r)
}

func commitRAMWritten(a any) {
	r := a.(*hostReq)
	h := r.h
	key, e, gen, c, trSeq := r.key, r.e, r.gen, r.c, r.trSeq
	h.putReq(r)
	h.applyPolicy(h.cfg.RAMPolicy, h.ramMove(), tierRAM, key, e, gen, c, trSeq)
}

// writeNoRAM handles writes with no RAM tier (paper §7.5's "0 really means
// 0" point): the write lands directly in flash, or goes to the filer when
// there is no flash either.
func (h *Host) writeNoRAM(key cache.Key, c cont, trSeq uint64) {
	if h.flash.Capacity() == 0 {
		h.writeBlockToFiler(key, demandLane, c, trSeq)
		return
	}
	r := h.getReq()
	r.key = key
	r.c = c
	r.trSeq = trSeq
	h.ensureFlashEntry(key, writeNoRAMEntry, r)
}

func writeNoRAMEntry(a any, e *cache.Entry) {
	r := a.(*hostReq)
	h := r.h
	if e == nil { // could not place (transient); go straight through
		key, c, trSeq := r.key, r.c, r.trSeq
		h.putReq(r)
		h.writeBlockToFiler(key, demandLane, c, trSeq)
		return
	}
	e.DirtyEpoch++
	if h.cfg.Arch == Lookaside {
		// Lookaside flash never holds dirty data: write the filer
		// first, then update the flash copy.
		h.writeBlockToFiler(r.key, demandLane, cont{writeNoRAMLookaside, r}, r.trSeq)
		return
	}
	h.flash.MarkDirty(e)
	r.e = e
	r.gen = e.Gen()
	h.flashIO.Write2(r.key, writeNoRAMFlashed, r)
}

func writeNoRAMLookaside(a any) {
	r := a.(*hostReq)
	h := r.h
	key, c := r.key, r.c
	h.putReq(r)
	h.flashIO.Write2(key, nil, nil)
	c.run()
}

func writeNoRAMFlashed(a any) {
	r := a.(*hostReq)
	h := r.h
	key, e, gen, c, trSeq := r.key, r.e, r.gen, r.c, r.trSeq
	h.putReq(r)
	h.applyPolicy(h.cfg.FlashPolicy, moveToFiler, tierFlash, key, e, gen, c, trSeq)
}

// --- unified paths ---

func (h *Host) readUnified(r *hostReq) {
	if e := h.uni.Get(r.key); e != nil {
		if e.Medium() == cache.RAM {
			if r.collect {
				h.st.RAMHits++
			}
			if r.trSeq != 0 {
				h.mark(r.trSeq, obs.KindRAMHit, r.key)
			}
			h.ramDev.Read2(finishRead, r)
		} else {
			if r.collect {
				// A flash-buffer hit missed the "RAM level" and hit
				// the "flash level" for accounting purposes, keeping
				// hit-rate partitions comparable across architectures.
				h.st.RAMMisses++
				h.st.FlashHits++
			}
			if r.trSeq != 0 {
				h.mark(r.trSeq, obs.KindFlashHit, r.key)
			}
			h.flashIO.Read2(r.key, finishRead, r)
		}
		return
	}
	if r.collect {
		h.st.RAMMisses++
		h.st.FlashMisses++
	}
	if r.trSeq != 0 {
		h.mark(r.trSeq, obs.KindMiss, r.key)
	}
	h.fetchFromFiler(r.key, cont{finishRead, r}, r.trSeq)
}

func (h *Host) writeUnified(r *hostReq) {
	if h.uni.Capacity() == 0 {
		key := r.key
		h.writeBlockToFiler(key, demandLane, cont{finishWrite, r}, r.trSeq)
		return
	}
	if e := h.uni.Get(r.key); e != nil {
		h.commitUnifiedWrite(e, cont{finishWrite, r}, r.trSeq)
		return
	}
	h.makeRoomUnified(cont{writeUnifiedRoom, r})
}

func writeUnifiedRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	e, _ := h.uni.TryInsert(r.key)
	if e == nil {
		h.writeUnified(r)
		return
	}
	h.commitUnifiedWrite(e, cont{finishWrite, r}, r.trSeq)
}

// commitUnifiedWrite pays the medium's write cost and applies the policy
// of the tier the block happens to live in: the paper's unified cache
// exposes flash write latency for the ~8/9 of blocks in flash buffers.
func (h *Host) commitUnifiedWrite(e *cache.Entry, c cont, trSeq uint64) {
	e.DirtyEpoch++
	h.uni.MarkDirty(e)
	r := h.getReq()
	r.key = e.Key()
	r.e = e
	r.gen = e.Gen()
	r.c = c
	r.trSeq = trSeq
	if e.Medium() == cache.RAM {
		r.t = tierRAM // marks which policy applies after the write
		h.ramDev.Write2(commitUnifiedWritten, r)
		return
	}
	r.t = tierFlash
	h.flashIO.Write2(r.key, commitUnifiedWritten, r)
}

func commitUnifiedWritten(a any) {
	r := a.(*hostReq)
	h := r.h
	key, e, gen, c, trSeq := r.key, r.e, r.gen, r.c, r.trSeq
	policy := h.cfg.RAMPolicy
	if r.t == tierFlash {
		policy = h.cfg.FlashPolicy
	}
	h.putReq(r)
	h.applyPolicy(policy, moveToFiler, tierUnified, key, e, gen, c, trSeq)
}

// --- demand fetch ---

// fetchFromFiler fetches key from the filer, de-duplicating concurrent
// requests for the same block, installs it in the appropriate cache, and
// wakes all waiters. trSeq is the requesting chain's trace sequence (0 =
// untraced): the initiator's sequence labels the wire and filer-service
// spans; a sampled request that joins another's in-flight fetch records a
// dedup marker instead.
func (h *Host) fetchFromFiler(key cache.Key, c cont, trSeq uint64) {
	if h.cfg.DisableFetchDedup {
		if h.collect {
			h.st.FilerFetches++
		}
		r := h.getReq()
		r.key = key
		r.c = c
		if trSeq != 0 {
			r.trSeq = trSeq
			r.tMark = h.eng.Now()
		}
		h.noteUpSend()
		h.seg.Send2(netsim.ToFiler, 0, fetchSent, r)
		return
	}
	if waiters, inflight := h.pending[key]; inflight {
		if trSeq != 0 {
			h.mark(trSeq, obs.KindDedup, key)
		}
		h.pending[key] = append(waiters, c)
		return
	}
	h.pending[key] = h.newWaiters(c)
	if h.collect {
		h.st.FilerFetches++
	}
	r := h.getReq()
	r.key = key
	r.dedup = true
	if trSeq != 0 {
		r.trSeq = trSeq
		r.tMark = h.eng.Now()
	}
	h.noteUpSend()
	h.seg.Send2(netsim.ToFiler, 0, fetchSent, r)
}

// newWaiters starts a pending-fetch waiter list, recycling a previously
// drained slice when one is available.
func (h *Host) newWaiters(c cont) []cont {
	if n := len(h.waiterFree); n > 0 {
		w := h.waiterFree[n-1]
		h.waiterFree = h.waiterFree[:n-1]
		return append(w, c)
	}
	return append(make([]cont, 0, 4), c)
}

func fetchSent(a any) {
	r := a.(*hostReq)
	h := r.h
	h.noteUpArrival()
	if r.trSeq != 0 {
		h.span(r.trSeq, obs.KindNetUp, r.key, r.tMark)
		r.tMark = h.eng.Now()
	}
	h.fsrv.Read2(uint64(r.key), fetchServed, r)
}

func fetchServed(a any) {
	r := a.(*hostReq)
	h := r.h
	if r.trSeq != 0 {
		h.span(r.trSeq, obs.KindFiler, r.key, r.tMark)
		r.tMark = h.eng.Now()
	}
	h.seg.Send2(netsim.FromFiler, trace.BlockSize, fetchArrived, r)
}

func fetchArrived(a any) {
	r := a.(*hostReq)
	h := r.h
	if r.trSeq != 0 {
		h.span(r.trSeq, obs.KindNetDown, r.key, r.tMark)
	}
	if r.dedup {
		h.installAfterFetch(r.key, cont{fetchWake, r})
		return
	}
	key, c := r.key, r.c
	h.putReq(r)
	h.installAfterFetch(key, c)
}

// fetchWake completes a de-duplicated fetch: every waiter queued while the
// single filer round trip was in flight resumes, in arrival order.
func fetchWake(a any) {
	r := a.(*hostReq)
	h := r.h
	key := r.key
	h.putReq(r)
	waiters := h.pending[key]
	delete(h.pending, key)
	for _, w := range waiters {
		w.run()
	}
	h.waiterFree = append(h.waiterFree, waiters[:0])
}

// installAfterFetch places a freshly fetched block into the flash tier
// (layered) or the unified cache. The requester is not charged for the
// install data write — it proceeds once the block is indexed; the write
// occupies the device in the background. (Ablation: SyncFill charges it.)
func (h *Host) installAfterFetch(key cache.Key, c cont) {
	if h.cfg.Arch == Unified {
		if h.uni.Capacity() == 0 {
			c.run()
			return
		}
		r := h.getReq()
		r.key = key
		r.c = c
		h.makeRoomUnified(cont{installUnifiedRoom, r})
		return
	}
	if h.flash.Capacity() == 0 {
		c.run()
		return
	}
	r := h.getReq()
	r.key = key
	r.c = c
	h.makeRoomFlash(cont{installFlashRoom, r})
}

func installUnifiedRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	key, c := r.key, r.c
	h.putReq(r)
	if e, inserted := h.uni.TryInsert(key); inserted {
		if e.Medium() == cache.Flash {
			if h.cfg.SyncMissFill {
				h.flashIO.Write2(key, c.fn, c.arg)
				return
			}
			h.flashIO.Write2(key, nil, nil)
		}
	}
	c.run()
}

func installFlashRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	key, c := r.key, r.c
	h.putReq(r)
	if _, inserted := h.flash.TryInsert(key); inserted {
		if h.collect {
			h.st.FlashFills++
		}
		if h.cfg.SyncMissFill {
			h.flashIO.Write2(key, c.fn, c.arg)
			return
		}
		h.flashIO.Write2(key, nil, nil)
	}
	c.run()
}

// ensureFlashEntry makes key resident in the flash cache (inserting and
// evicting as needed) and hands the entry to fn(arg, e). fn receives nil
// only if the flash tier has zero capacity.
func (h *Host) ensureFlashEntry(key cache.Key, fn func(any, *cache.Entry), arg any) {
	if h.flash.Capacity() == 0 {
		fn(arg, nil)
		return
	}
	if e := h.flash.Peek(key); e != nil {
		h.flash.Touch(e)
		fn(arg, e)
		return
	}
	r := h.getReq()
	r.key = key
	r.ec = entryCont{fn, arg}
	h.makeRoomFlash(cont{ensureFlashRoom, r})
}

func ensureFlashRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	key, ec := r.key, r.ec
	h.putReq(r)
	e, _ := h.flash.TryInsert(key)
	if e == nil {
		// Lost the race for the freed slot; try again.
		h.ensureFlashEntry(key, ec.fn, ec.arg)
		return
	}
	ec.fn(ec.arg, e)
}

// --- room making (eviction) ---

// makeRoomRAM evicts from the RAM cache until an insert can proceed.
// Dirty victims are written down first — to flash under naive, to the
// filer under lookaside — synchronously, blocking the requester, which is
// how the "none" policy's eviction convoys arise (paper §7.1).
func (h *Host) makeRoomRAM(c cont) {
	if !h.ram.NeedsEviction() {
		c.run()
		return
	}
	v := h.ram.Victim()
	if v == nil {
		h.st.EvictionRetries++
		r := h.getReq()
		r.c = c
		h.eng.Schedule2(evictionRetryDelay, retryRoomRAM, r)
		return
	}
	if !v.Dirty {
		h.ram.Remove(v)
		h.makeRoomRAM(c)
		return
	}
	if h.collect {
		h.st.SyncEvictions++
	}
	v.Pinned = true
	r := h.getReq()
	r.key = v.Key()
	r.e = v
	r.gen = v.Gen()
	r.c = c
	h.move(h.ramMove(), r.key, demandLane, cont{ramEvictWritten, r}, 0)
}

func retryRoomRAM(a any) {
	r := a.(*hostReq)
	h := r.h
	c := r.c
	h.putReq(r)
	h.makeRoomRAM(c)
}

func ramEvictWritten(a any) {
	r := a.(*hostReq)
	h := r.h
	if h.ram.Peek(r.key) == r.e && r.e.Gen() == r.gen {
		r.e.Pinned = false
		h.ram.MarkClean(r.e)
		h.ram.Remove(r.e)
	}
	c := r.c
	h.putReq(r)
	h.makeRoomRAM(c)
}

// makeRoomFlash evicts from the flash cache until an insert can proceed.
// Clean RAM copies of the evicted block are shot down to preserve the
// RAM ⊆ flash property; dirty RAM copies survive (they will re-insert into
// flash when written back).
func (h *Host) makeRoomFlash(c cont) {
	if !h.flash.NeedsEviction() {
		c.run()
		return
	}
	v := h.flash.Victim()
	if v == nil {
		h.st.EvictionRetries++
		r := h.getReq()
		r.c = c
		h.eng.Schedule2(evictionRetryDelay, retryRoomFlash, r)
		return
	}
	if !v.Dirty {
		h.shootdownRAMSubset(v.Key())
		h.flash.Remove(v)
		h.makeRoomFlash(c)
		return
	}
	if h.collect {
		h.st.SyncEvictions++
	}
	v.Pinned = true
	r := h.getReq()
	r.key = v.Key()
	r.e = v
	r.gen = v.Gen()
	r.c = c
	h.writeBlockToFiler(r.key, demandLane, cont{flashEvictWritten, r}, 0)
}

func retryRoomFlash(a any) {
	r := a.(*hostReq)
	h := r.h
	c := r.c
	h.putReq(r)
	h.makeRoomFlash(c)
}

func flashEvictWritten(a any) {
	r := a.(*hostReq)
	h := r.h
	if h.flash.Peek(r.key) == r.e && r.e.Gen() == r.gen {
		r.e.Pinned = false
		h.flash.MarkClean(r.e)
		h.shootdownRAMSubset(r.key)
		h.flash.Remove(r.e)
	}
	c := r.c
	h.putReq(r)
	h.makeRoomFlash(c)
}

// makeRoomUnified evicts from the unified cache; dirty victims write back
// to the filer synchronously.
func (h *Host) makeRoomUnified(c cont) {
	if !h.uni.NeedsEviction() {
		c.run()
		return
	}
	v := h.uni.Victim()
	if v == nil {
		h.st.EvictionRetries++
		r := h.getReq()
		r.c = c
		h.eng.Schedule2(evictionRetryDelay, retryRoomUnified, r)
		return
	}
	if !v.Dirty {
		h.uni.Remove(v)
		h.makeRoomUnified(c)
		return
	}
	if h.collect {
		h.st.SyncEvictions++
	}
	v.Pinned = true
	r := h.getReq()
	r.key = v.Key()
	r.e = v
	r.gen = v.Gen()
	r.c = c
	h.writeBlockToFiler(r.key, demandLane, cont{unifiedEvictWritten, r}, 0)
}

func retryRoomUnified(a any) {
	r := a.(*hostReq)
	h := r.h
	c := r.c
	h.putReq(r)
	h.makeRoomUnified(c)
}

func unifiedEvictWritten(a any) {
	r := a.(*hostReq)
	h := r.h
	if h.uni.Peek(r.key) == r.e && r.e.Gen() == r.gen {
		r.e.Pinned = false
		h.uni.MarkClean(r.e)
		h.uni.Remove(r.e)
	}
	c := r.c
	h.putReq(r)
	h.makeRoomUnified(c)
}

// shootdownRAMSubset drops a clean RAM copy when its flash backing is
// evicted, preserving RAM ⊆ flash. A dirty RAM copy is newer than
// anything below it and stays.
func (h *Host) shootdownRAMSubset(key cache.Key) {
	if h.cfg.DisableSubsetShootdown {
		return
	}
	if h.ram == nil || h.ram.Capacity() == 0 {
		return
	}
	if e := h.ram.Peek(key); e != nil && !e.Dirty && !e.Pinned {
		h.ram.Remove(e)
	}
}

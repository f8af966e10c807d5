package core

import (
	"repro/internal/blockdev"
	"repro/internal/cache"
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

// ConsistencyPort is a host's one route to cross-host consistency: every
// read and write acquires through it, and fn(arg) runs when the operation
// may proceed. Under the paper's instant model (§3.8) a write drops remote
// copies for free and both calls continue at once; under the callback
// protocol a write first acquires exclusive ownership, paying control
// messages, and a read of a block owned elsewhere forces a downgrade and
// dirty flush. Sequential runs implement it with registry
// (consistency.go); sharded runs with clusterSink (instant, remote copies
// drop at the next epoch barrier) and clusterProtoPort (clusterproto.go).
type ConsistencyPort interface {
	AcquireRead(key uint64, fn func(any), arg any)
	AcquireWrite(key uint64, fn func(any), arg any)
}

// Host is one compute server's cache stack: a RAM buffer cache and a flash
// cache in front of the shared filer, reached over a private network
// segment. All block I/O enters through read and write, issued by the
// trace driver; completions are delivered by continuation in simulated
// time.
//
// The request path is written in explicit continuation-passing style over
// pooled hostReq records (see req.go): every asynchronous hand-off goes
// through a static func(any) plus a recycled record, so a warm host serves
// block requests without allocating.
type Host struct {
	eng *sim.Engine
	cfg HostConfig

	// Layered architectures (naive, lookaside).
	ram   *cache.LRU
	flash cache.BlockCache
	// Unified architecture.
	uni *cache.Unified
	// tiers holds the same caches indexed by tier, nil for a tier the
	// architecture lacks: every tier-generic step (eviction, syncers,
	// writeback re-validation, invalidation, the fault hooks) runs once
	// over this table, while the read and write routing uses the
	// concrete fields above.
	tiers [3]tierCache

	ramDev blockdev.RAMDevice
	// flashDev is the paper's fixed-latency device, held by value;
	// flashIO is the device the request path uses: flashDev, or an FTL
	// device when the host is FTL-backed.
	flashDev blockdev.FlashDevice
	flashIO  FlashDev
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
	cons  ConsistencyPort // nil when consistency is not modeled

	// freeReq is the host-local free list of request records; reqs is
	// the engine-shared arena they are carved from (req.go), which also
	// holds the engine's flush scratch.
	freeReq *hostReq
	reqs    *reqArena

	// fetches lists the host's in-flight filer fetches, newest first,
	// linked through hostReq.pend; threads lists the records of the
	// trace threads it serves, newest first (driver.go).
	fetches *hostReq
	threads *threadRec

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

	// holders, when non-nil, is the shard's holder superset for barrier
	// invalidation and holderLocal this host's shard-local index in it;
	// sequential runs leave it nil.
	holders     *holderSet
	holderLocal int32

	// syncers are the host's periodic writeback daemons, syncers[:nsync]
	// armed (writeback.go).
	syncers [2]syncer
	nsync   int
}

// evictionRetryDelay is how long an inserter waits when every eviction
// victim is pinned (all mid-writeback); it only triggers under extreme
// dirty pressure with tiny caches.
const evictionRetryDelay = 5 * sim.Microsecond

// NewHosts builds one engine's hosts, in the order of cfgs, all reaching
// the filer through fsrv. It validates every config first, then sizes the
// engine's storage from them: the hosts, their demand and background
// network segments, the engine arena they share and its flush scratch
// come from one array each, and every host's caches from one cache.Arena,
// so building n hosts costs a constant number of allocations. The sharded
// cluster builds every shard's hosts through it and then gives each host
// its own filer port.
func NewHosts(eng *sim.Engine, cfgs []HostConfig, timing Timing, fsrv FilerPort) ([]*Host, error) {
	var caches cache.Arena
	widest := 0
	for _, hc := range cfgs {
		if err := hc.Validate(); err != nil {
			return nil, err
		}
		if hc.Arch == Unified {
			caches.ReserveUnified(hc.RAMBlocks, hc.FlashBlocks)
			widest = max(widest, hc.RAMBlocks+hc.FlashBlocks)
		} else {
			caches.Reserve(cache.ReplaceLRU, hc.RAMBlocks)
			caches.Reserve(hc.FlashReplacement, hc.FlashBlocks)
			widest = max(widest, hc.RAMBlocks, hc.FlashBlocks)
		}
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	// No tier holds more dirty blocks than its capacity.
	arena := &reqArena{dirty: make([]*cache.Entry, 0, widest)}
	hosts := make([]Host, len(cfgs))
	segs := make([]netsim.Segment, 2*len(cfgs))
	ptrs := make([]*Host, len(cfgs))
	for i, hc := range cfgs {
		seg, bgSeg := &segs[2*i], &segs[2*i+1]
		seg.Init(eng, timing.NetBase, timing.NetPerBit)
		bgSeg.Init(eng, timing.NetBase, timing.NetPerBit)
		if err := hosts[i].init(eng, hc, timing, seg, bgSeg, fsrv, arena, &caches); err != nil {
			return nil, err
		}
		ptrs[i] = &hosts[i]
	}
	return ptrs, nil
}

// init builds the host in place from a config NewHosts validated: the one
// host constructor. Its caches come from caches, which NewHosts reserved
// them in. A host holds its devices and syncers by value and points into
// the arrays its builder owns, so it must not be copied once built.
func (h *Host) init(eng *sim.Engine, cfg HostConfig, timing Timing,
	seg, bgSeg *netsim.Segment, fsrv FilerPort, arena *reqArena, caches *cache.Arena) error {
	*h = Host{
		eng:   eng,
		cfg:   cfg,
		seg:   seg,
		bgSeg: bgSeg,
		fsrv:  fsrv,
		reqs:  arena,
	}
	h.ramDev.Init(eng, timing.RAMRead, timing.RAMWrite)
	if cfg.FTLBacked && cfg.FlashBlocks > 0 {
		fdev, err := newFTLFlashDev(eng, cfg.FlashBlocks, cfg.PersistentFlash, uint64(cfg.ID)+1)
		if err != nil {
			return err
		}
		h.flashIO = fdev
	} else {
		h.flashDev.Init(eng, timing.FlashRead, timing.FlashWrite, cfg.PersistentFlash)
		h.flashIO = fixedFlashDev{&h.flashDev}
	}
	if cfg.Arch == Unified {
		h.uni = caches.Unified(cfg.RAMBlocks, cfg.FlashBlocks)
		h.tiers[tierUnified] = h.uni
	} else {
		h.ram = caches.LRU(cfg.RAMBlocks, cache.RAM)
		h.flash = caches.BlockCache(cfg.FlashReplacement, cfg.FlashBlocks, cache.Flash)
		h.tiers[tierRAM], h.tiers[tierFlash] = h.ram, h.flash
	}
	h.startSyncers()
	return nil
}

// id returns the host's identifier.
func (h *Host) id() int { return h.cfg.ID }

// Stats returns the host's accumulated statistics.
func (h *Host) Stats() *HostStats { return &h.st }

// FlashDevice exposes the flash device for utilisation reporting.
func (h *Host) FlashDevice() FlashDev { return h.flashIO }

// tryInsert inserts key into tier t, as the tier's TryInsert does, and
// marks this host in the shard's holder superset whenever the key goes in
// (residency.go). Every insertion into any tier goes through it.
func (h *Host) tryInsert(t tier, key cache.Key) (e *cache.Entry, inserted bool) {
	e, inserted = h.tiers[t].TryInsert(key)
	if inserted && h.holders != nil {
		h.holders.mark(key, h.holderLocal)
	}
	return e, inserted
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

// setCollect enables statistics collection (called after warmup).
func (h *Host) setCollect(on bool) { h.collect = on }

// setConsistencyPort routes this host's reads and writes through p (nil:
// no consistency is modeled).
func (h *Host) setConsistencyPort(p ConsistencyPort) { h.cons = p }

// stopSyncers halts periodic writeback daemons so the engine can drain at
// end of trace.
func (h *Host) stopSyncers() {
	for i := range h.syncers[:h.nsync] {
		h.syncers[i].tick.Stop()
	}
}

// invalidate drops any copy of key, instantly and free of charge (paper
// §3.8), reporting whether one was dropped.
func (h *Host) invalidate(key uint64) bool {
	dropped := false
	for _, c := range h.tiers {
		if c == nil {
			continue
		}
		if e := c.Peek(cache.Key(key)); e != nil {
			e.Pinned = false
			c.Remove(e)
			dropped = true
		}
	}
	return dropped
}

// read performs a one-block application read; done runs at completion.
func (h *Host) read(key cache.Key, done cont) {
	r := h.getReq()
	r.key = key
	r.start = h.eng.Now()
	r.collect = h.collect
	r.c = done
	if h.tr != nil {
		r.trSeq = h.tr.StartReq()
	}
	if h.cons != nil {
		// Under the callback protocol an exclusively-owned block must be
		// downgraded (and its dirty data flushed) before the read; under
		// the paper's instant model this continues immediately.
		h.cons.AcquireRead(uint64(key), readProceed, r)
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

// write performs a one-block application write; done runs when the write
// is durable to the degree the configured policies require (normally: when
// it lands in the RAM cache).
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
	if h.cons != nil {
		h.cons.AcquireWrite(uint64(key), writeProceed, r)
		return
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
	h.makeRoom(tierRAM, cont{installRAMCleanRoom, r})
}

func installRAMCleanRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	key, c := r.key, r.c
	h.putReq(r)
	h.tryInsert(tierRAM, key)
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
	h.makeRoom(tierRAM, cont{writeLayeredRoom, r})
}

func writeLayeredRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	e, _ := h.tryInsert(tierRAM, r.key)
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
	h.applyPolicy(h.cfg.RAMPolicy, tierRAM, key, e, gen, c, trSeq)
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
	h.applyPolicy(h.cfg.FlashPolicy, tierFlash, key, e, gen, c, trSeq)
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
		if h.cfg.FlashBlocks > 0 {
			h.st.FlashMisses++
		}
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
	h.makeRoom(tierUnified, cont{writeUnifiedRoom, r})
}

func writeUnifiedRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	e, _ := h.tryInsert(tierUnified, r.key)
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
	h.applyPolicy(policy, tierUnified, key, e, gen, c, trSeq)
}

// --- demand fetch ---

// fetching returns the record of h's in-flight fetch of key, or nil. A
// host has at most one fetch in flight per trace thread it serves, so the
// walk is short.
func (h *Host) fetching(key cache.Key) *hostReq {
	r := h.fetches
	for r != nil && r.key != key {
		r = r.pend
	}
	return r
}

// fetchFromFiler fetches key from the filer, de-duplicating concurrent
// requests for the same block, installs it in the appropriate cache, and
// wakes all waiters. trSeq is the requesting chain's trace sequence (0 =
// untraced): the initiator's sequence labels the wire and filer-service
// spans; a sampled request that joins another's in-flight fetch records a
// dedup marker instead.
//
// The fetch's record sits on the host's pending-fetch list while the
// fetch is in flight and carries the initiator's continuation; a joining
// request parks its continuation in a record of its own, linked newest
// first behind the fetch's (see fetchWake).
func (h *Host) fetchFromFiler(key cache.Key, c cont, trSeq uint64) {
	if f := h.fetching(key); f != nil {
		if trSeq != 0 {
			h.mark(trSeq, obs.KindDedup, key)
		}
		w := h.getReq()
		w.c = c
		w.next, f.next = f.next, w
		return
	}
	if h.collect {
		h.st.FilerFetches++
	}
	r := h.getReq()
	r.key = key
	r.c = c
	r.pend, h.fetches = h.fetches, r
	if trSeq != 0 {
		r.trSeq = trSeq
		r.tMark = h.eng.Now()
	}
	h.noteUpSend()
	h.seg.Send2(netsim.ToFiler, 0, fetchSent, r)
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
	h.installAfterFetch(r.key, cont{fetchWake, r})
}

// fetchWake completes a de-duplicated fetch: it takes the fetch off the
// host's pending list, and every waiter queued while the single filer
// round trip was in flight resumes, in arrival order — the initiator
// first, then the joiners, whose newest-first links are reversed. Each
// waiter's record is released before its continuation runs.
func fetchWake(a any) {
	r := a.(*hostReq)
	h := r.h
	p := &h.fetches
	for *p != r {
		p = &(*p).pend
	}
	*p = r.pend
	c, joined := r.c, r.next
	h.putReq(r)
	var w *hostReq
	for joined != nil {
		next := joined.next
		joined.next = w
		w, joined = joined, next
	}
	c.run()
	for w != nil {
		c, next := w.c, w.next
		h.putReq(w)
		c.run()
		w = next
	}
}

// installAfterFetch places a freshly fetched block into the flash tier
// (layered) or the unified cache. The requester is not charged for the
// install data write — it proceeds once the block is indexed; the write
// occupies the device in the background.
func (h *Host) installAfterFetch(key cache.Key, c cont) {
	if h.cfg.Arch == Unified {
		if h.uni.Capacity() == 0 {
			c.run()
			return
		}
		r := h.getReq()
		r.key = key
		r.c = c
		h.makeRoom(tierUnified, cont{installUnifiedRoom, r})
		return
	}
	if h.flash.Capacity() == 0 {
		c.run()
		return
	}
	r := h.getReq()
	r.key = key
	r.c = c
	h.makeRoom(tierFlash, cont{installFlashRoom, r})
}

func installUnifiedRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	key, c := r.key, r.c
	h.putReq(r)
	if e, inserted := h.tryInsert(tierUnified, key); inserted {
		if e.Medium() == cache.Flash {
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
	if _, inserted := h.tryInsert(tierFlash, key); inserted {
		if h.collect {
			h.st.FlashFills++
		}
		h.flashIO.Write2(key, nil, nil)
	}
	c.run()
}

// ensureFlashEntry makes key resident in the flash cache (inserting and
// evicting as needed) and hands the entry to fn(arg, e). The flash tier
// must have capacity; both callers send the block on to the filer instead
// when it has none.
func (h *Host) ensureFlashEntry(key cache.Key, fn func(any, *cache.Entry), arg any) {
	if e := h.flash.Peek(key); e != nil {
		h.flash.Touch(e)
		fn(arg, e)
		return
	}
	r := h.getReq()
	r.key = key
	r.ec = entryCont{fn, arg}
	h.makeRoom(tierFlash, cont{ensureFlashRoom, r})
}

func ensureFlashRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	key, ec := r.key, r.ec
	h.putReq(r)
	e, _ := h.tryInsert(tierFlash, key)
	ec.fn(ec.arg, e)
}

// --- room making (eviction) ---

// makeRoom evicts from tier t until an insert can proceed. Dirty victims
// are written down first, synchronously, blocking the requester, which is
// how the "none" policy's eviction convoys arise (paper §7.1): a RAM
// victim takes the architecture's downward move (to flash under naive, to
// the filer under lookaside), a flash or unified victim goes to the filer.
// c runs synchronously once the tier has room, so its insert always
// succeeds or finds the key resident: TryInsert returns nil only on a
// full tier.
func (h *Host) makeRoom(t tier, c cont) {
	tc := h.tiers[t]
	if !tc.NeedsEviction() {
		c.run()
		return
	}
	v := tc.Victim()
	if v == nil {
		h.st.EvictionRetries++
		r := h.getReq()
		r.t = t
		r.c = c
		h.eng.Schedule2(evictionRetryDelay, retryRoom, r)
		return
	}
	if !v.Dirty {
		h.evict(t, v)
		h.makeRoom(t, c)
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
	r.t = t
	r.c = c
	h.move(h.tierMove(t), r.key, demandLane, cont{evictWritten, r}, 0)
}

func retryRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	t, c := r.t, r.c
	h.putReq(r)
	h.makeRoom(t, c)
}

func evictWritten(a any) {
	r := a.(*hostReq)
	h := r.h
	if h.live(r.t, r.key, r.e, r.gen) {
		r.e.Pinned = false
		h.tiers[r.t].MarkClean(r.e)
		h.evict(r.t, r.e)
	}
	t, c := r.t, r.c
	h.putReq(r)
	h.makeRoom(t, c)
}

// evict removes a clean victim from tier t. A flash victim first shoots
// down its clean RAM copy to preserve the RAM ⊆ flash property; a dirty
// RAM copy survives (it re-inserts into flash when written back).
func (h *Host) evict(t tier, v *cache.Entry) {
	if t == tierFlash {
		h.shootdownRAMSubset(v.Key())
	}
	h.tiers[t].Remove(v)
}

// shootdownRAMSubset drops a clean RAM copy when its flash backing is
// evicted, preserving RAM ⊆ flash. A dirty RAM copy is newer than
// anything below it and stays.
func (h *Host) shootdownRAMSubset(key cache.Key) {
	if h.ram == nil || h.ram.Capacity() == 0 {
		return
	}
	if e := h.ram.Peek(key); e != nil && !e.Dirty && !e.Pinned {
		h.ram.Remove(e)
	}
}

package core

import (
	"repro/internal/cache"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lane selects which network lane a filer write rides on: demand traffic
// (a requester is waiting) or background writeback traffic (syncer flushes
// and asynchronous write-through). Keeping the lanes separate stops
// background flush bursts from queueing ahead of demand fetches; see the
// field comment on Host.bgSeg.
type lane uint8

const (
	demandLane lane = iota
	bgLane
)

// moveKind names the writeback route for one block: down into the flash
// cache (naive RAM tier), straight to the filer, or the lookaside dance
// (filer first, then a clean flash copy). It replaces the closure-valued
// writebackFn the pre-pooling code threaded around: a one-byte enum travels
// inside a pooled record for free, where binding a method value allocated.
type moveKind uint8

const (
	moveToFiler moveKind = iota
	moveToFlash
	moveLookaside
)

// ramMove returns the mover for dirty RAM blocks: to flash under naive,
// directly to the filer under lookaside (§3.3). writeBlockToFlash itself
// degenerates to the filer when no flash tier is configured.
func (h *Host) ramMove() moveKind {
	if h.cfg.Arch == Lookaside {
		return moveLookaside
	}
	return moveToFlash
}

// move routes one dirty block down the chosen path on the given lane and
// runs c when the data is durable there. trSeq attributes the move's
// stages to a sampled request's trace (0 = untraced: evictions, syncer
// flushes and delayed timers pass 0 — their work belongs to no single
// request).
func (h *Host) move(mv moveKind, key cache.Key, ln lane, c cont, trSeq uint64) {
	switch mv {
	case moveToFlash:
		h.writeBlockToFlash(key, ln, c, trSeq)
	case moveLookaside:
		h.writeLookaside(key, ln, c, trSeq)
	default:
		h.writeBlockToFiler(key, ln, c, trSeq)
	}
}

// tier names one of a host's cache tiers: it indexes Host.tiers and rides
// in pooled records, so the same policy, eviction and syncer machinery
// drives the layered RAM tier, the layered flash tier, and both media of
// the unified cache.
type tier uint8

const (
	tierRAM tier = iota
	tierFlash
	tierUnified
)

// tierCache is what the tier-generic steps need of a cache tier;
// *cache.LRU (RAM), cache.BlockCache (flash) and *cache.Unified all
// satisfy it.
type tierCache interface {
	Len() int
	DirtyLen() int
	Peek(key cache.Key) *cache.Entry
	NeedsEviction() bool
	Victim() *cache.Entry
	TryInsert(key cache.Key) (e *cache.Entry, inserted bool)
	Remove(e *cache.Entry)
	MarkClean(e *cache.Entry)
	AppendDirty(dst []*cache.Entry) []*cache.Entry
	CheckInvariants() error
}

// live reports whether (key, e, gen) still names tier t's resident entry:
// the re-check every stage resuming across an asynchronous boundary makes
// before it mutates a retained entry (see req.go).
func (h *Host) live(t tier, key cache.Key, e *cache.Entry, gen uint64) bool {
	return h.tiers[t].Peek(key) == e && e.Gen() == gen
}

// tierMove returns the route a dirty block of tier t takes down: the
// architecture's RAM move for the RAM tier, the filer for flash and the
// unified cache.
func (h *Host) tierMove(t tier) moveKind {
	if t == tierRAM {
		return h.ramMove()
	}
	return moveToFiler
}

// applyPolicy runs after a write has been committed to a tier. For
// write-through policies every write propagates to the next tier (sync
// blocks the requester and rides the demand lane; async rides the
// background lane); periodic and none leave the dirty block for the syncer
// or the eviction path.
//
// (key, e, gen) identify the written entry as of the caller's last validity
// point; the entry may since have been evicted (and possibly recycled), so
// downstream stages re-verify before mutating it.
func (h *Host) applyPolicy(p Policy, t tier, key cache.Key, e *cache.Entry, gen uint64, c cont, trSeq uint64) {
	switch p.Kind {
	case writeThroughSync:
		h.propagate(h.tierMove(t), t, key, e, gen, demandLane, c, trSeq)
	case writeThroughAsync:
		// The async writeback still belongs to the triggering request's
		// trace: its spans show the background work the write spawned.
		h.propagate(h.tierMove(t), t, key, e, gen, bgLane, cont{}, trSeq)
		c.run()
	case Delayed:
		h.scheduleDelayed(p.Period, t, key, e, gen)
		c.run()
	default: // Periodic, Trickle, None
		c.run()
	}
}

// scheduleDelayed arms a per-block timer: the block writes back Period
// after this write, unless a newer write supersedes it (the newer write's
// own timer then covers the block — natural coalescing via DirtyEpoch).
func (h *Host) scheduleDelayed(period sim.Time, t tier, key cache.Key, e *cache.Entry, gen uint64) {
	r := h.getReq()
	r.key = key
	r.e = e
	r.gen = gen
	r.epoch = e.DirtyEpoch
	r.t = t
	h.eng.Schedule2(period, delayedFire, r)
}

func delayedFire(a any) {
	r := a.(*hostReq)
	h := r.h
	key, e, gen, epoch, t := r.key, r.e, r.gen, r.epoch, r.t
	h.putReq(r)
	if !h.live(t, key, e, gen) ||
		!e.Dirty || e.DirtyEpoch != epoch || e.WritebackInFlight || e.Pinned {
		return
	}
	h.propagate(h.tierMove(t), t, key, e, gen, bgLane, cont{}, 0)
}

// propagate writes e's current version to the next tier; on completion the
// entry is marked clean unless it was re-dirtied or replaced in flight.
// c runs when the data is durable below. The move itself is unconditional
// — mirroring the closure-based code, which kept writing even for entries
// evicted mid-chain — but entry mutation happens only while (key, e, gen)
// still name the resident entry.
func (h *Host) propagate(mv moveKind, t tier, key cache.Key, e *cache.Entry, gen uint64, ln lane, c cont, trSeq uint64) {
	epoch := e.DirtyEpoch
	if h.live(t, key, e, gen) {
		e.WritebackInFlight = true
	}
	r := h.getReq()
	r.key = key
	r.e = e
	r.gen = gen
	r.epoch = epoch
	r.t = t
	r.c = c
	h.move(mv, key, ln, cont{propagated, r}, trSeq)
}

func propagated(a any) {
	r := a.(*hostReq)
	h := r.h
	if h.live(r.t, r.key, r.e, r.gen) {
		r.e.WritebackInFlight = false
		if r.e.DirtyEpoch == r.epoch {
			h.tiers[r.t].MarkClean(r.e)
		}
	}
	c := r.c
	h.putReq(r)
	c.run()
}

// writeLookaside moves one dirty RAM block under the lookaside
// architecture: the filer is written first, then the flash copy is
// refreshed — "the flash is updated after the file server and never
// contains dirty data."
func (h *Host) writeLookaside(key cache.Key, ln lane, c cont, trSeq uint64) {
	r := h.getReq()
	r.key = key
	r.c = c
	h.writeBlockToFiler(key, ln, cont{lookasideFilerWritten, r}, trSeq)
}

func lookasideFilerWritten(a any) {
	r := a.(*hostReq)
	h := r.h
	key, c := r.key, r.c
	h.putReq(r)
	h.installFlashCleanCopy(key)
	c.run()
}

// writeBlockToFlash moves one dirty RAM block down into the flash cache:
// the block becomes resident and dirty in flash, the flash device write is
// paid, and the flash tier's own writeback policy is applied to the new
// dirty flash data. c runs when the block is durable in flash.
func (h *Host) writeBlockToFlash(key cache.Key, ln lane, c cont, trSeq uint64) {
	if h.flash.Capacity() == 0 {
		// No flash tier: RAM's next tier is the filer.
		h.writeBlockToFiler(key, ln, c, trSeq)
		return
	}
	if h.collect {
		h.st.FlashWritebacks++
	}
	r := h.getReq()
	r.key = key
	r.ln = ln
	r.c = c
	r.trSeq = trSeq
	h.ensureFlashEntry(key, flashWBEntry, r)
}

func flashWBEntry(a any, e *cache.Entry) {
	r := a.(*hostReq)
	h := r.h
	e.DirtyEpoch++
	h.flash.MarkDirty(e)
	r.e = e
	r.gen = e.Gen()
	if r.trSeq != 0 {
		r.tMark = h.eng.Now()
	}
	h.flashIO.Write2(r.key, flashWBWritten, r)
}

func flashWBWritten(a any) {
	r := a.(*hostReq)
	h := r.h
	if r.trSeq != 0 {
		h.span(r.trSeq, obs.KindWBFlash, r.key, r.tMark)
	}
	key, ln, c, e, gen, trSeq := r.key, r.ln, r.c, r.e, r.gen, r.trSeq
	h.putReq(r)
	// The data is durable in flash; now the flash tier's policy decides
	// when it reaches the filer. A synchronous flash policy inside a
	// demand chain keeps blocking the requester on the demand lane.
	switch h.cfg.FlashPolicy.Kind {
	case writeThroughSync:
		h.propagate(moveToFiler, tierFlash, key, e, gen, ln, c, trSeq)
	case writeThroughAsync:
		h.propagate(moveToFiler, tierFlash, key, e, gen, bgLane, cont{}, trSeq)
		c.run()
	default:
		c.run()
	}
}

// installFlashCleanCopy updates or inserts a clean copy of key in flash
// (lookaside post-filer update). The device write is asynchronous.
func (h *Host) installFlashCleanCopy(key cache.Key) {
	if h.flash.Capacity() == 0 {
		return
	}
	if e := h.flash.Peek(key); e != nil {
		h.flash.Touch(e)
		h.flashIO.Write2(key, nil, nil)
		return
	}
	r := h.getReq()
	r.key = key
	h.makeRoom(tierFlash, cont{installCleanCopyRoom, r})
}

func installCleanCopyRoom(a any) {
	r := a.(*hostReq)
	h := r.h
	key := r.key
	h.putReq(r)
	if _, inserted := h.tryInsert(tierFlash, key); inserted {
		if h.collect {
			h.st.FlashFills++
		}
		h.flashIO.Write2(key, nil, nil)
	}
}

// writeBlockToFiler writes one block to the filer over the chosen lane:
// a data packet out, the filer's buffered write, and an acknowledgement
// packet back.
func (h *Host) writeBlockToFiler(key cache.Key, ln lane, c cont, trSeq uint64) {
	if h.collect {
		h.st.FilerWritebacks++
	}
	r := h.getReq()
	r.key = key
	r.ln = ln
	r.c = c
	if trSeq != 0 {
		r.trSeq = trSeq
		r.tMark = h.eng.Now()
	}
	h.noteUpSend()
	h.lane(ln).Send2(netsim.ToFiler, trace.BlockSize, filerWriteSent, r)
}

// lane returns the network segment carrying the given lane's traffic.
func (h *Host) lane(ln lane) *netsim.Segment {
	if ln == bgLane {
		return h.bgSeg
	}
	return h.seg
}

func filerWriteSent(a any) {
	r := a.(*hostReq)
	h := r.h
	h.noteUpArrival()
	if r.trSeq != 0 {
		h.span(r.trSeq, obs.KindWBNetUp, r.key, r.tMark)
		r.tMark = h.eng.Now()
	}
	h.fsrv.Write2(uint64(r.key), filerWriteServed, r)
}

func filerWriteServed(a any) {
	r := a.(*hostReq)
	h := r.h
	if r.trSeq != 0 {
		// Traced chains keep the record through the return packet so its
		// arrival can be recorded; either way exactly one event is
		// scheduled, so event counts and times stay identical.
		h.span(r.trSeq, obs.KindWBFiler, r.key, r.tMark)
		r.tMark = h.eng.Now()
		h.lane(r.ln).Send2(netsim.FromFiler, 0, filerWriteArrived, r)
		return
	}
	ln, c := r.ln, r.c
	h.putReq(r)
	h.lane(ln).Send2(netsim.FromFiler, 0, c.fn, c.arg)
}

func filerWriteArrived(a any) {
	r := a.(*hostReq)
	h := r.h
	h.span(r.trSeq, obs.KindWBNetDown, r.key, r.tMark)
	c := r.c
	h.putReq(r)
	c.run()
}

// --- periodic syncers ---

// syncer is one periodic writeback daemon: every tick it flushes medium
// m of tier t, at most limit blocks (<= 0: all). A host holds its syncers
// by value, and each rides in its ticker's argument slot.
type syncer struct {
	h     *Host
	t     tier
	m     cache.Medium
	limit int
	tick  sim.Ticker
}

func syncerTick(a any) {
	s := a.(*syncer)
	s.h.flush(s.t, s.m, s.limit)
}

// startSyncers launches the periodic writeback daemons the configured
// policies require, one per row of the table below that applies, in row
// order. Each syncer flushes one medium of one tier; a medium with no
// blocks gets none. Lookaside's flash tier never holds dirty data, so its
// flash syncer is pointless and skipped. At most two rows apply to any
// architecture.
func (h *Host) startSyncers() {
	uni := h.cfg.Arch == Unified
	for _, s := range [...]struct {
		p  Policy
		t  tier
		m  cache.Medium
		on bool
	}{
		{h.cfg.RAMPolicy, tierRAM, cache.RAM, !uni && h.cfg.RAMBlocks > 0},
		{h.cfg.FlashPolicy, tierFlash, cache.Flash, !uni && h.cfg.FlashBlocks > 0 && h.cfg.Arch != Lookaside},
		{h.cfg.RAMPolicy, tierUnified, cache.RAM, uni && h.cfg.RAMBlocks > 0},
		{h.cfg.FlashPolicy, tierUnified, cache.Flash, uni && h.cfg.FlashBlocks > 0},
	} {
		if !s.on || (s.p.Kind != Periodic && s.p.Kind != trickle) {
			continue
		}
		// Periodic flushes everything; Trickle drains one block per tick.
		limit := 0
		if s.p.Kind == trickle {
			limit = 1
		}
		sy := &h.syncers[h.nsync]
		h.nsync++
		*sy = syncer{h: h, t: s.t, m: s.m, limit: limit}
		sy.tick.Start(h.eng, s.p.Period, syncerTick, sy)
	}
}

// flush writes tier t's dirty blocks on medium m down (oldest first) on
// the background lane, skipping blocks already mid-writeback. limit bounds
// how many blocks are flushed; <= 0 means all.
func (h *Host) flush(t tier, m cache.Medium, limit int) {
	mv := h.tierMove(t)
	flushed := 0
	dirty := h.reqs.dirtyOf(h.tiers[t])
	for _, e := range dirty {
		if limit > 0 && flushed >= limit {
			break
		}
		if e.Medium() != m {
			continue
		}
		if e.WritebackInFlight || e.Pinned {
			if h.collect {
				h.st.CoalescedSkips++
			}
			continue
		}
		h.propagate(mv, t, e.Key(), e, e.Gen(), bgLane, cont{}, 0)
		flushed++
	}
}

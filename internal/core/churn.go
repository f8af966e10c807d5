package core

import "repro/internal/sim"

// This file implements the scripted-fault hooks the scenario engine drives
// between phases: crashing a host and flushing its caches (a churn leave
// is a full flush; the detach itself is a trace remap in the scenario
// executor). All of them assume a quiescent host — no foreground ops in
// flight and background writebacks drained — which the scenario runner
// guarantees by executing scripted events only at phase boundaries, with
// the cluster drained at the epoch barrier.

// clearAll removes every resident entry without writing anything back.
// Dirty entries are simply dropped — data loss is the caller's story.
// Victim never returns pinned entries, so any that remain are left
// resident; on the quiescent hosts these hooks are defined for, nothing
// is pinned.
func clearAll(c tierCache) int {
	n := 0
	for c.Len() > 0 {
		v := c.Victim()
		if v == nil {
			break
		}
		c.Remove(v)
		n++
	}
	return n
}

// DirtyBlocks returns the number of dirty resident blocks across the
// host's cache tiers; it is the scenario telemetry probe's dirty signal.
func (h *Host) DirtyBlocks() int {
	n := 0
	for _, c := range h.tiers {
		if c != nil {
			n += c.DirtyLen()
		}
	}
	return n
}

// ResidentBlocks returns the number of resident blocks across tiers.
func (h *Host) ResidentBlocks() int {
	n := 0
	for _, c := range h.tiers {
		if c != nil {
			n += c.Len()
		}
	}
	return n
}

// Crash models a power failure at a quiescent instant. RAM contents —
// clean and dirty alike — are lost. A persistent flash cache survives with
// its contents and dirty flags intact, ready for Recover to scan and flush
// (paper §7.8); a non-persistent one is lost too. The unified architecture
// cannot be recoverable (its RAM half dies with the host), so it always
// loses everything. Returns the number of blocks dropped.
func (h *Host) Crash() int {
	dropped := 0
	for t, c := range h.tiers {
		if c != nil && !(tier(t) == tierFlash && h.cfg.PersistentFlash) {
			dropped += clearAll(c)
		}
	}
	return dropped
}

// Flush writes every dirty block down on the background lane, one tier
// after another — RAM-tier dirty data takes the architecture's normal
// downward path (to flash under naive, to the filer under lookaside), then
// dirty flash data goes to the filer — and, once the writebacks are
// durable, drops the coldest fraction of resident blocks (fraction >= 1
// empties the caches). done fires after the drop. Returns the number of
// dirty blocks at the start of the flush.
//
// Flushing in tier order keeps the naive architecture's RAM ⊆ flash
// property intact: a RAM block cleaned by the flush is clean *because* its
// data just landed in flash.
func (h *Host) Flush(fraction float64, done func()) int {
	dirty := h.DirtyBlocks()
	next := func() {
		h.DropColdest(fraction)
		if done != nil {
			done()
		}
	}
	for t := len(h.tiers) - 1; t >= 0; t-- {
		if h.tiers[t] != nil {
			t, after := tier(t), next
			next = func() { h.flushTier(t, after) }
		}
	}
	next()
	return dirty
}

// flushTier writes back tier t's current dirty set and calls next when
// every writeback is durable below. Entries already mid-writeback are
// skipped — their in-flight propagation covers them.
func (h *Host) flushTier(t tier, next func()) {
	dirty := h.reqs.dirtyOf(h.tiers[t])
	n := 0
	for _, e := range dirty {
		if !e.WritebackInFlight && !e.Pinned {
			n++
		}
	}
	join := sim.NewJoin(n, next)
	mv := h.tierMove(t)
	for _, e := range dirty {
		if e.WritebackInFlight || e.Pinned {
			continue
		}
		h.propagate(mv, t, e.Key(), e, e.Gen(), bgLane, cont{joinDone, join}, 0)
	}
}

// DropColdest removes the coldest fraction of each tier's resident blocks
// (clean removal; callers flush first if the dirty data matters), flash
// before RAM. Flash drops shoot down clean RAM copies so the naive
// architecture's RAM ⊆ flash property survives. Returns the number of
// blocks dropped.
func (h *Host) DropColdest(fraction float64) int {
	if fraction <= 0 {
		return 0
	}
	dropped := 0
	for _, t := range [...]tier{tierFlash, tierRAM, tierUnified} {
		c := h.tiers[t]
		if c == nil {
			continue
		}
		target := int(fraction * float64(c.Len()))
		if fraction >= 1 {
			target = c.Len()
		}
		for i := 0; i < target; i++ {
			v := c.Victim()
			if v == nil {
				break
			}
			key := v.Key()
			c.Remove(v)
			if t == tierFlash {
				h.shootdownRAMSubset(key)
			}
			dropped++
		}
	}
	return dropped
}

package core

import (
	"repro/internal/cache"
	"repro/internal/netsim"
)

// This file implements the host side of the callback consistency protocol
// (consistency.ModeCallback): small control messages on the host's demand
// link and synchronous flushes of exclusively-held dirty blocks.

// controlMessageBytes is the payload of one protocol control message
// (block identity, lease epoch, flags).
const controlMessageBytes = 64

// Holds implements consistency.CacheHolder.
func (h *Host) Holds(key uint64) bool {
	k := cache.Key(key)
	if h.uni != nil {
		return h.uni.Peek(k) != nil
	}
	if h.ram != nil && h.ram.Peek(k) != nil {
		return true
	}
	return h.flash != nil && h.flash.Peek(k) != nil
}

// SendControl implements consistency.ProtocolPeer: one small packet on the
// host's demand link.
func (h *Host) SendControl(done func()) {
	c := funcCont(done)
	h.seg.Send2(netsim.ToFiler, controlMessageBytes, c.fn, c.arg)
}

// FlushBlock implements consistency.ProtocolPeer: write the block back to
// the filer if any tier holds it dirty; done fires when durable.
func (h *Host) FlushBlock(key uint64, done func()) {
	k := cache.Key(key)
	if h.uni != nil {
		if e := h.uni.Peek(k); e != nil && e.Dirty {
			h.propagate(moveToFiler, tierUnified, e.Key(), e, e.Gen(), demandLane, funcCont(done), 0)
			return
		}
		h.eng.Schedule(0, done)
		return
	}
	if e := h.ram.Peek(k); e != nil && e.Dirty {
		// The freshest copy lives in RAM; the protocol needs it at the
		// filer, so it bypasses the flash tier.
		h.propagate(moveToFiler, tierRAM, e.Key(), e, e.Gen(), demandLane, funcCont(done), 0)
		return
	}
	if e := h.flash.Peek(k); e != nil && e.Dirty {
		h.propagate(moveToFiler, tierFlash, e.Key(), e, e.Gen(), demandLane, funcCont(done), 0)
		return
	}
	h.eng.Schedule(0, done)
}

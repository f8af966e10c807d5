package core

import (
	"repro/internal/cache"
	"repro/internal/netsim"
)

// This file implements the host side of the callback consistency protocol
// (registry and clusterProtoPort): small control messages on the host's
// demand link and synchronous flushes of exclusively-held dirty blocks.

// controlMessageBytes is the payload of one protocol control message
// (block identity, lease epoch, flags).
const controlMessageBytes = 64

// holds reports whether any cache tier holds key.
func (h *Host) holds(key uint64) bool {
	k := cache.Key(key)
	if h.uni != nil {
		return h.uni.Peek(k) != nil
	}
	if h.ram != nil && h.ram.Peek(k) != nil {
		return true
	}
	return h.flash != nil && h.flash.Peek(k) != nil
}

// sendControl delivers one small control message between the host and the
// server (either direction costs the same) on the host's demand link; done
// fires on arrival.
func (h *Host) sendControl(done func()) {
	c := funcCont(done)
	h.seg.Send2(netsim.ToFiler, controlMessageBytes, c.fn, c.arg)
}

// flushBlock writes the block back to the filer if any tier holds it
// dirty; done fires when durable (at once if clean or absent).
func (h *Host) flushBlock(key uint64, done func()) {
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

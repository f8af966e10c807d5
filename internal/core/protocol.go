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
	for _, c := range h.tiers {
		if c != nil && c.Peek(cache.Key(key)) != nil {
			return true
		}
	}
	return false
}

// sendControl delivers one small control message between the host and the
// server (either direction costs the same) on the host's demand link; done
// fires on arrival.
func (h *Host) sendControl(done func()) {
	c := funcCont(done)
	h.seg.Send2(netsim.ToFiler, controlMessageBytes, c.fn, c.arg)
}

// flushBlock writes the block back to the filer if any tier holds it
// dirty, checking RAM before flash; done fires when durable (at once if
// clean or absent). The freshest copy lives in the first tier holding it
// dirty, and the protocol needs it at the filer, so a dirty RAM block
// bypasses the flash tier.
func (h *Host) flushBlock(key uint64, done func()) {
	for t, c := range h.tiers {
		if c == nil {
			continue
		}
		if e := c.Peek(cache.Key(key)); e != nil && e.Dirty {
			h.propagate(moveToFiler, tier(t), e.Key(), e, e.Gen(), demandLane, funcCont(done), 0)
			return
		}
	}
	h.eng.Schedule(0, done)
}

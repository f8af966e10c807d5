package core

import "math/bits"

// residencyIndex maps a block key to the set of shard-local hosts holding
// a copy in any cache tier. Each host's caches report residency
// transitions through the hook installed at cluster construction, so the
// index is exact at every instant of the shard's timeline. Barrier
// invalidation consults it to visit only the hosts that actually hold the
// written block — the legacy path probed every host in the shard per
// message, which dominated the sharded profile on shared-working-set
// fleets.
//
// Holder sets live in flat slot arrays rather than one allocation per
// resident block: slot s owns bits[s*words:(s+1)*words], a bitmap over
// shard-local host indexes, and n[s], its population. Empty slots leave
// the map and recycle through the free stack, so the map's size tracks the
// number of blocks resident anywhere in the shard and the arrays grow only
// with its high-water mark.
//
// The index is strictly per-shard state: hooks fire on the shard's
// goroutine during epochs, and applyInvalidations reads it on the same
// goroutine at epoch start.
type residencyIndex struct {
	words   int // bitmap words per slot, fixed by the shard's host count
	slots   map[uint64]int32
	bits    []uint64
	n       []int32
	free    []int32 // recycled empty slots
	scratch []int32 // reused holder snapshot (see applyInvalidations)
}

// newResidencyIndex builds the index for a shard holding the given number
// of hosts.
func newResidencyIndex(hosts int) *residencyIndex {
	return &residencyIndex{words: (hosts + 63) >> 6, slots: make(map[uint64]int32)}
}

// addHost wires host h (shard-local index local) to the index.
func (ri *residencyIndex) addHost(h *Host, local int) {
	h.setResidencyHook(func(key uint64, held bool) { ri.update(key, local, held) })
}

// update records that host local now holds (or no longer holds) key.
func (ri *residencyIndex) update(key uint64, local int, held bool) {
	s, ok := ri.slots[key]
	if !ok {
		if !held {
			return
		}
		if top := len(ri.free) - 1; top >= 0 {
			s = ri.free[top]
			ri.free = ri.free[:top]
		} else {
			s = int32(len(ri.n))
			ri.n = append(ri.n, 0)
			for i := 0; i < ri.words; i++ {
				ri.bits = append(ri.bits, 0)
			}
		}
		ri.slots[key] = s
	}
	w := &ri.bits[int(s)*ri.words+local>>6]
	b := uint64(1) << uint(local&63)
	if held {
		if *w&b == 0 {
			*w |= b
			ri.n[s]++
		}
		return
	}
	if *w&b != 0 {
		*w &^= b
		if ri.n[s]--; ri.n[s] == 0 {
			delete(ri.slots, key)
			ri.free = append(ri.free, s)
		}
	}
}

// appendLocals appends the holders of key to dst in ascending order —
// ascending shard-local index is ascending global host ID within a shard
// (hosts are assigned round-robin in ID order), which keeps the
// invalidation visit order identical to the legacy all-hosts probe.
func (ri *residencyIndex) appendLocals(dst []int32, key uint64) []int32 {
	s, ok := ri.slots[key]
	if !ok {
		return dst
	}
	base := int(s) * ri.words
	for w, word := range ri.bits[base : base+ri.words] {
		for word != 0 {
			dst = append(dst, int32(w<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

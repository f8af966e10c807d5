package core

import (
	"math/bits"

	"repro/internal/cache"
)

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
// shard-local host indexes, n[s], its population, and nodes[s], its key
// with Ref s, which the cache package's Index finds by key. Empty slots
// leave the index and recycle through the free stack, so the index tracks
// the number of blocks resident anywhere in the shard and the arrays grow
// only with its high-water mark: when nodes fills, its capacity and the
// index's double together.
//
// The index is strictly per-shard state: hooks fire on the shard's
// goroutine during epochs, and applyInvalidations reads it on the same
// goroutine at epoch start.
type residencyIndex struct {
	words   int // bitmap words per slot, fixed by the shard's host count
	index   cache.Index
	nodes   []cache.Node
	bits    []uint64
	n       []int32
	free    []int32 // recycled empty slots
	scratch []int32 // reused holder snapshot (see applyInvalidations)
}

// residencyMinSlots is the slot capacity a shard's index starts with.
const residencyMinSlots = 64

// newResidencyIndex builds the index for a shard holding the given number
// of hosts.
func newResidencyIndex(hosts int) *residencyIndex {
	ri := &residencyIndex{words: (hosts + 63) >> 6}
	ri.grow()
	return ri
}

// grow doubles the slot capacity. The nodes move to a new array, so the
// index is rebuilt over it with the slots in use.
func (ri *residencyIndex) grow() {
	c := max(residencyMinSlots, 2*cap(ri.nodes))
	nodes := make([]cache.Node, len(ri.nodes), c)
	copy(nodes, ri.nodes)
	ri.nodes = nodes
	ri.index = cache.NewIndex(c)
	for s := range ri.nodes {
		if ri.n[s] > 0 {
			ri.index.Insert(&ri.nodes[s])
		}
	}
}

// addHost wires host h (shard-local index local) to the index.
func (ri *residencyIndex) addHost(h *Host, local int) {
	h.setResidencyHook(func(key uint64, held bool) { ri.update(key, local, held) })
}

// update records that host local now holds (or no longer holds) key.
func (ri *residencyIndex) update(key uint64, local int, held bool) {
	nd := ri.index.Get(cache.Key(key))
	if nd == nil {
		if !held {
			return
		}
		nd = ri.add(cache.Key(key))
	}
	s := nd.Ref
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
			ri.index.Delete(nd)
			ri.free = append(ri.free, s)
		}
	}
}

// add gives key an empty slot, indexes it and returns its node.
func (ri *residencyIndex) add(key cache.Key) *cache.Node {
	var s int32
	if top := len(ri.free) - 1; top >= 0 {
		s = ri.free[top]
		ri.free = ri.free[:top]
	} else {
		if len(ri.nodes) == cap(ri.nodes) {
			ri.grow()
		}
		s = int32(len(ri.nodes))
		ri.nodes = ri.nodes[:s+1]
		ri.n = append(ri.n, 0)
		for i := 0; i < ri.words; i++ {
			ri.bits = append(ri.bits, 0)
		}
	}
	ri.nodes[s] = cache.MakeNode(key, s)
	ri.index.Insert(&ri.nodes[s])
	return &ri.nodes[s]
}

// appendLocals appends the holders of key to dst in ascending order —
// ascending shard-local index is ascending global host ID within a shard
// (hosts are assigned round-robin in ID order), which keeps the
// invalidation visit order identical to the legacy all-hosts probe.
func (ri *residencyIndex) appendLocals(dst []int32, key uint64) []int32 {
	nd := ri.index.Get(cache.Key(key))
	if nd == nil {
		return dst
	}
	base := int(nd.Ref) * ri.words
	for w, word := range ri.bits[base : base+ri.words] {
		for word != 0 {
			dst = append(dst, int32(w<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

package core

import "repro/internal/cache"

// holderSet maps a block key to the shard-local hosts that may hold a copy
// in some cache tier: a superset of the actual holders. A host marks its
// bit whenever it inserts the key into any tier (Host.tryInsert), and
// nothing clears a bit but the barrier's invalidation probe, which clears
// each bit it visits because the probed host then holds no copy. Eviction
// leaves the bit set, so the probe of a host that has since evicted the
// block is a side-effect-free Peek miss, and the caches need no residency
// callbacks. Barrier invalidation consults the set to visit only hosts
// that may hold the written block instead of probing every host in the
// shard per message.
//
// Bitmaps live in flat slot arrays rather than one allocation per key:
// slot s owns bits[s*words:(s+1)*words], a bitmap over shard-local host
// indexes, and nodes[s] holds its key with Ref s, which the cache
// package's Index finds by key. Slots are never freed, so the set grows
// with the number of distinct keys ever inserted on the shard, which the
// run's file-set model bounds; when nodes fills, its capacity and the
// index's double together.
//
// The set is strictly per-shard state: hosts mark it on the shard's
// goroutine during epochs, and applyInvalidations reads and clears it on
// the same goroutine at epoch start.
type holderSet struct {
	words int // bitmap words per slot, fixed by the shard's host count
	index cache.Index
	nodes []cache.Node
	bits  []uint64
}

// holderMinSlots is the slot capacity a shard's set starts with.
const holderMinSlots = 64

// newHolderSet builds the set for a shard holding the given number of
// hosts.
func newHolderSet(hosts int) *holderSet {
	hs := &holderSet{words: (hosts + 63) >> 6}
	hs.grow()
	return hs
}

// grow doubles the slot capacity. The nodes and the bitmaps move to new
// arrays, so the index is rebuilt over the nodes.
func (hs *holderSet) grow() {
	c := max(holderMinSlots, 2*cap(hs.nodes))
	nodes := make([]cache.Node, len(hs.nodes), c)
	copy(nodes, hs.nodes)
	hs.nodes = nodes
	bits := make([]uint64, len(hs.bits), c*hs.words)
	copy(bits, hs.bits)
	hs.bits = bits
	hs.index = cache.NewIndex(c)
	for s := range hs.nodes {
		hs.index.Insert(&hs.nodes[s])
	}
}

// mark records that host local may now hold key.
func (hs *holderSet) mark(key cache.Key, local int32) {
	nd := hs.index.Get(key)
	if nd == nil {
		if len(hs.nodes) == cap(hs.nodes) {
			hs.grow()
		}
		s := int32(len(hs.nodes))
		hs.nodes = append(hs.nodes, cache.MakeNode(key, s))
		// grow sized bits with nodes, so this reslice stays in place.
		n := len(hs.bits)
		hs.bits = hs.bits[:n+hs.words]
		clear(hs.bits[n:])
		nd = &hs.nodes[s]
		hs.index.Insert(nd)
	}
	hs.bits[int(nd.Ref)*hs.words+int(local>>6)] |= 1 << uint(local&63)
}

// bitmap returns key's holder bitmap, bit l of word w naming shard-local
// host w*64+l, or nil when no host has ever marked key. The slice aliases
// the set: clearing a bit in it clears the host from the set.
func (hs *holderSet) bitmap(key uint64) []uint64 {
	nd := hs.index.Get(cache.Key(key))
	if nd == nil {
		return nil
	}
	base := int(nd.Ref) * hs.words
	return hs.bits[base : base+hs.words]
}

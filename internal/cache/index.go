package cache

import (
	"fmt"
	"math/bits"
)

// Node is the record an Index holds: a key and the way back to whoever
// owns it. Every cache Entry embeds one that points back at the entry;
// other callers keep nodes in an array of their own and record each
// node's position there in Ref. A node's key must not change while it is
// indexed.
type Node struct {
	key Key
	e   *Entry
	// Ref is free for the owner's use; cache entries leave it zero.
	Ref int32
}

// MakeNode returns a node for key carrying ref.
func MakeNode(key Key, ref int32) Node { return Node{key: key, Ref: ref} }

// hashMul is 2^64 divided by the golden ratio: multiplying by it spreads
// consecutive keys (a file's consecutive blocks) across the high bits,
// which pick the home slot.
const hashMul = 0x9E3779B97F4A7C15

// Index is an open-addressed hash index of nodes by key: linear probing
// from a multiplicative hash, and backward-shift deletion, so it keeps no
// tombstones and never rehashes. The table is sized once, to twice the
// capacity rounded up to a power of two, so it is at most half full and
// an empty slot ends every probe. An empty slot is a nil pointer; the key
// lives in the node, so every key, 0 included, is legal.
type Index struct {
	tab   []*Node
	shift uint8 // 64 - log2(len(tab))
	n     int
}

// NewIndex returns an index for at most capacity nodes, in one allocation.
// A cache's index is carved from its Arena instead, with the same size.
func NewIndex(capacity int) Index {
	if capacity < 0 {
		panic("cache: negative index capacity")
	}
	return indexOver(make([]*Node, indexSlots(capacity)))
}

// indexSlots is the table size of an index for at most capacity nodes:
// twice the capacity rounded up to a power of two, and one slot for none.
func indexSlots(capacity int) int {
	if capacity == 0 {
		return 1
	}
	return 1 << bits.Len(uint(2*capacity-1))
}

// indexOver returns an empty index over tab, whose length is a power of
// two.
func indexOver(tab []*Node) Index {
	return Index{tab: tab, shift: uint8(64 - bits.TrailingZeros(uint(len(tab))))}
}

// home returns key's home slot. A shift of 64 (a one-slot table) yields 0.
func (x *Index) home(key Key) uint64 { return uint64(key) * hashMul >> x.shift }

// lookup returns key's node, or nil and the empty slot where it belongs.
func (x *Index) lookup(key Key) (*Node, uint64) {
	mask := uint64(len(x.tab) - 1)
	for i := x.home(key); ; i = (i + 1) & mask {
		n := x.tab[i]
		if n == nil || n.key == key {
			return n, i
		}
	}
}

// place puts n into slot i, the empty slot lookup returned for n's key,
// with no modification of the index in between.
func (x *Index) place(i uint64, n *Node) {
	if 2*(x.n+1) > len(x.tab) {
		panic("cache: index over capacity")
	}
	x.tab[i] = n
	x.n++
}

// entry returns the cache entry indexed under key, or nil.
func (x *Index) entry(key Key) *Entry {
	if n, _ := x.lookup(key); n != nil {
		return n.e
	}
	return nil
}

// Get returns the node indexed under key, or nil.
func (x *Index) Get(key Key) *Node {
	n, _ := x.lookup(key)
	return n
}

// Insert indexes n unless a node with its key is already indexed, which
// it then returns; it returns nil once n is indexed. Inserting past the
// capacity the index was built for panics.
func (x *Index) Insert(n *Node) *Node {
	old, i := x.lookup(n.key)
	if old == nil {
		x.place(i, n)
	}
	return old
}

// delete removes n and reports whether it was indexed. The nodes after it
// in its probe run shift back to close the gap, so every node stays
// reachable from its home slot without crossing an empty one.
func (x *Index) delete(n *Node) bool {
	mask := uint64(len(x.tab) - 1)
	i := x.home(n.key)
	for x.tab[i] != n {
		if x.tab[i] == nil {
			return false
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.tab[j] != nil; j = (j + 1) & mask {
		// The node at j may fill the gap at i if its home is no further
		// along the run than i is: its probe distance covers i's.
		if (j-x.home(x.tab[j].key))&mask >= (j-i)&mask {
			x.tab[i] = x.tab[j]
			i = j
		}
	}
	x.tab[i] = nil
	x.n--
	return true
}

// Check verifies the table's structure and returns the number of nodes it
// holds: the count matches Len, and every node can be reached from its
// home slot without crossing an empty slot.
func (x *Index) Check() (int, error) {
	mask := uint64(len(x.tab) - 1)
	count := 0
	for i, n := range x.tab {
		if n == nil {
			continue
		}
		count++
		for j := x.home(n.key); j != uint64(i); j = (j + 1) & mask {
			if x.tab[j] == nil {
				return 0, fmt.Errorf("index: key %d in slot %d unreachable from home %d", n.key, i, x.home(n.key))
			}
		}
	}
	if count != x.n {
		return 0, fmt.Errorf("index: %d nodes in the table, %d counted", count, x.n)
	}
	return count, nil
}

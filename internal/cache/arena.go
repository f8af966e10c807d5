package cache

// Arena holds the storage of a group of caches built together, sized
// exactly from what they need: one array of cache structs per policy, one
// array of index slots that every cache's table (2Q's ghost index
// included) is carved from, and one array of entries that every cache's
// first slab is carved from. Later slabs stay each pool's own and keep
// doubling as the cache fills, so an arena commits only the tables and
// the first slabs, never whole capacities. Building any number of caches
// through one arena costs a constant number of allocations.
//
// Reserve every cache first, then build each one once with the same
// arguments, in any order. The arrays are allocated at the first build;
// reserving after it, or building more than was reserved, panics.
type Arena struct {
	// need counts the reserved caches of each replacement kind, unified
	// caches last, and the index slots and first-slab entries they take.
	need struct {
		caches         [unifiedNeed + 1]int
		slots, entries int
	}
	built bool

	lrus    []LRU
	fifos   []fifo
	clocks  []clock
	slrus   []slru
	twoQs   []twoQ
	unified []Unified
	slots   []*Node
	entries []Entry
}

// unifiedNeed is the unified caches' place in Arena.need.caches.
const unifiedNeed = Replace2Q + 1

// take hands out the next k elements of *buf.
func take[T any](buf *[]T, k int) []T {
	if k > len(*buf) {
		panic("cache: arena building more than it reserved")
	}
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}

// Reserve makes room for one cache of the given kind and capacity.
func (a *Arena) Reserve(kind ReplacementKind, capacity int) {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	if kind > Replace2Q {
		panic("cache: reserving unknown replacement kind " + kind.String())
	}
	a.need.caches[kind]++
	if kind == Replace2Q {
		a.need.slots += indexSlots(capacity / 2) // the ghost index
	}
	a.reserveBase(capacity)
}

// ReserveUnified makes room for one unified cache of the given buffer
// counts.
func (a *Arena) ReserveUnified(ramBufs, flashBufs int) {
	if ramBufs < 0 || flashBufs < 0 {
		panic("cache: negative buffer count")
	}
	a.need.caches[unifiedNeed]++
	a.reserveBase(ramBufs + flashBufs)
}

func (a *Arena) reserveBase(capacity int) {
	if a.built {
		panic("cache: arena reserving after its first build")
	}
	a.need.slots += indexSlots(capacity)
	a.need.entries += firstSlab(capacity)
}

// build allocates the arrays at the first build.
func (a *Arena) build() {
	if a.built {
		return
	}
	a.built = true
	a.lrus = make([]LRU, a.need.caches[ReplaceLRU])
	a.fifos = make([]fifo, a.need.caches[ReplaceFIFO])
	a.clocks = make([]clock, a.need.caches[ReplaceClock])
	a.slrus = make([]slru, a.need.caches[ReplaceSLRU])
	a.twoQs = make([]twoQ, a.need.caches[Replace2Q])
	a.unified = make([]Unified, a.need.caches[unifiedNeed])
	a.slots = make([]*Node, a.need.slots)
	a.entries = make([]Entry, a.need.entries)
}

// index carves the table of an index for at most capacity nodes.
func (a *Arena) index(capacity int) Index {
	return indexOver(take(&a.slots, indexSlots(capacity)))
}

// pool carves the first slab of an entry pool for capacity entries.
func (a *Arena) pool(capacity int) entryPool {
	first := firstSlab(capacity)
	return entryPool{
		slab:     take(&a.entries, first),
		budget:   capacity - first,
		nextSlab: min(2*entrySlabMin, entrySlabMax),
	}
}

// firstSlab is the number of entries a pool's first slab carves for a
// cache of the given capacity.
func firstSlab(capacity int) int { return min(capacity, entrySlabMin) }

// LRU builds a reserved LRU cache holding at most capacity blocks on
// medium m. A zero capacity cache is valid and caches nothing.
func (a *Arena) LRU(capacity int, m Medium) *LRU {
	a.build()
	c := &take(&a.lrus, 1)[0]
	c.initLRU(a, capacity, m)
	return c
}

// BlockCache builds a reserved cache of the given kind.
func (a *Arena) BlockCache(kind ReplacementKind, capacity int, m Medium) BlockCache {
	a.build()
	switch kind {
	case ReplaceLRU:
		return a.LRU(capacity, m)
	case ReplaceFIFO:
		c := &take(&a.fifos, 1)[0]
		c.initLRU(a, capacity, m)
		return c
	case ReplaceClock:
		c := &take(&a.clocks, 1)[0]
		c.initLRU(a, capacity, m)
		return c
	case ReplaceSLRU:
		c := &take(&a.slrus, 1)[0]
		c.initSLRU(a, capacity, m)
		return c
	case Replace2Q:
		c := &take(&a.twoQs, 1)[0]
		c.initTwoQ(a, capacity, m)
		return c
	default:
		panic("cache: building unknown replacement kind " + kind.String())
	}
}

// Unified builds a reserved unified cache with the given buffer counts.
func (a *Arena) Unified(ramBufs, flashBufs int) *Unified {
	a.build()
	u := &take(&a.unified, 1)[0]
	u.initUnified(a, ramBufs, flashBufs)
	return u
}

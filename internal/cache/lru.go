// Package cache provides the LRU block-cache substrate used by every cache
// tier in the simulator: an intrusive doubly-linked LRU list, dirty-block
// tracking on a second intrusive list (so the periodic syncer can flush in
// O(dirty)), and a two-medium unified variant for the paper's "unified"
// architecture. Every policy, the unified cache included, embeds one
// bookkeeping core (base.go) — index, entry pool, dirty list — and adds
// only its own lists and their order. Blocks are found through
// one Index: an open-addressed, linear-probing table of pointers to the
// entries, sized once from the cache's capacity, so a lookup is one hash
// and usually one probe and a cache makes no allocation after
// construction beyond its entry slabs after the first.
//
// Caches are built through an Arena (arena.go): the caller reserves every
// cache of a group, then builds each one, and the arena carves the cache
// structs, their index tables and their first entry slabs from one
// exactly-sized array each. A simulation engine builds all its hosts'
// caches through one arena, so their number costs no allocations.
//
// The package is purely a data structure: it tracks which blocks are
// resident and in what state, but knows nothing about latencies or devices.
// Replacement policy is LRU throughout, as in the paper ("we put aside ...
// cache replacement policy (we use LRU)", §1).
package cache

import "fmt"

// Key identifies a cached block: the simulator packs (file, block offset)
// into a single 64-bit key.
type Key uint64

// Medium identifies the storage medium backing a cache buffer. The plain
// LRU uses a single medium; the unified cache mixes both.
type Medium uint8

// Media.
const (
	RAM Medium = iota
	Flash
)

// String returns the medium's name: "ram" or "flash".
func (m Medium) String() string {
	switch m {
	case RAM:
		return "ram"
	case Flash:
		return "flash"
	default:
		return fmt.Sprintf("medium(%d)", uint8(m))
	}
}

// Entry is a resident cache block. Entries are owned by their cache and
// must not be retained after removal.
type Entry struct {
	n      Node // the entry's key, as its cache's Index holds it
	medium Medium

	// Dirty marks data newer than the next tier down.
	Dirty bool
	// WritebackInFlight marks an asynchronous writeback issued but not yet
	// completed; a re-dirty during flight must trigger another writeback.
	WritebackInFlight bool
	// Pinned blocks cannot be chosen as eviction victims (e.g. a block
	// whose fill from the filer has not completed).
	Pinned bool
	// Referenced is CLOCK's second-chance bit.
	Referenced bool
	// seg records which internal segment of a multi-queue policy (SLRU,
	// 2Q) the entry currently occupies.
	seg     uint8
	inDirty bool
	// DirtyEpoch increments on every application write; an asynchronous
	// writeback captures the epoch when it starts so its completion can
	// tell whether the block was re-dirtied in flight.
	DirtyEpoch uint64

	prev, next           *Entry // LRU list
	dirtyPrev, dirtyNext *Entry // dirty list

	// gen counts how many times this Entry struct has been removed from
	// its cache. Entries are recycled through a per-cache free list, so a
	// retained pointer alone no longer proves identity: code that holds
	// an entry across an asynchronous boundary must capture Gen() at a
	// point of known validity and re-check it (together with the index
	// lookup) before trusting the pointer.
	gen uint64
}

// Key returns the entry's block key.
func (e *Entry) Key() Key { return e.n.key }

// Medium returns the medium backing this entry's buffer.
func (e *Entry) Medium() Medium { return e.medium }

// Gen returns the entry's reuse generation; it increments every time the
// entry is removed from its cache. (pointer, Gen) pairs identify a logical
// residency the way bare pointers did before entries were pooled.
func (e *Entry) Gen() uint64 { return e.gen }

// A pool's first slab carves entrySlabMin entries, and each later one
// twice as many as the last, up to entrySlabMax.
const (
	entrySlabMin = 64
	entrySlabMax = 1024
)

// entryPool is a per-cache free list of Entry structs: eviction/insert
// churn at steady state recycles entries instead of allocating. The free
// list threads through the (otherwise nil) LRU next pointer. While a cache
// fills, fresh entries are carved from slabs that double from
// entrySlabMin to entrySlabMax, each clamped to the budget not yet carved.
// The budget starts at the cache's capacity and TryInsert refuses a full
// cache, so a pool never holds more entries than its cache can, and the
// carved-but-unused slack stays under one slab.
type entryPool struct {
	free     *Entry
	slab     []Entry // carved but not yet handed out
	budget   int     // entries not yet carved
	nextSlab int     // size of the next slab before clamping; 0 = entrySlabMin
}

// get returns a reset entry for key on medium m, recycling if possible.
// The reuse generation survives the reset.
func (p *entryPool) get(key Key, m Medium) *Entry {
	e := p.free
	if e == nil {
		if len(p.slab) == 0 {
			n := max(p.nextSlab, entrySlabMin)
			p.slab = make([]Entry, min(n, p.budget))
			p.budget -= len(p.slab)
			p.nextSlab = min(2*n, entrySlabMax)
		}
		e = &p.slab[0]
		p.slab = p.slab[1:]
		e.n, e.medium = Node{key: key, e: e}, m
		return e
	}
	p.free = e.next
	gen := e.gen
	*e = Entry{n: Node{key: key, e: e}, medium: m, gen: gen}
	return e
}

// put recycles a removed (fully unlinked) entry, bumping its generation so
// stale (pointer, gen) holders can detect the reuse.
func (p *entryPool) put(e *Entry) {
	e.gen++
	e.next = p.free
	p.free = e
}

// list is an intrusive circular doubly-linked list with a sentinel.
type list struct {
	sentinel Entry
	len      int
	dirty    bool // operates on the dirty links rather than LRU links
}

func (l *list) init(dirty bool) {
	l.dirty = dirty
	if dirty {
		l.sentinel.dirtyPrev = &l.sentinel
		l.sentinel.dirtyNext = &l.sentinel
	} else {
		l.sentinel.prev = &l.sentinel
		l.sentinel.next = &l.sentinel
	}
}

func (l *list) links(e *Entry) (prev, next **Entry) {
	if l.dirty {
		return &e.dirtyPrev, &e.dirtyNext
	}
	return &e.prev, &e.next
}

// pushFront inserts e at the MRU end.
func (l *list) pushFront(e *Entry) {
	ep, en := l.links(e)
	_, sn := l.links(&l.sentinel)
	first := *sn
	*ep = &l.sentinel
	*en = first
	fp, _ := l.links(first)
	*fp = e
	*sn = e
	l.len++
}

// remove unlinks e.
func (l *list) remove(e *Entry) {
	ep, en := l.links(e)
	p, n := *ep, *en
	_, pn := l.links(p)
	np, _ := l.links(n)
	*pn = n
	*np = p
	*ep, *en = nil, nil
	l.len--
}

// back returns the LRU-end entry, or nil if empty.
func (l *list) back() *Entry {
	sp, _ := l.links(&l.sentinel)
	if *sp == &l.sentinel {
		return nil
	}
	return *sp
}

// lastUnpinned returns the unpinned entry nearest l's LRU end, or nil.
func (l *list) lastUnpinned() *Entry {
	for e := l.back(); e != nil && e != &l.sentinel; e = e.prev {
		if !e.Pinned {
			return e
		}
	}
	return nil
}

// LRU is a fixed-capacity single-medium LRU cache of blocks.
type LRU struct {
	base
	lru list
}

// NewLRU returns an LRU cache holding at most capacity blocks on medium m,
// built through an arena of its own. A zero capacity cache is valid and
// caches nothing.
func NewLRU(capacity int, m Medium) *LRU {
	var a Arena
	a.Reserve(ReplaceLRU, capacity)
	return a.LRU(capacity, m)
}

// initLRU initialises the cache in place from a. The intrusive list
// sentinels hold self-pointers, so an LRU must never be copied after
// initialisation; embedding types initialise through this method.
func (c *LRU) initLRU(a *Arena, capacity int, m Medium) {
	c.init(a, capacity, m)
	c.lru.init(false)
}

// Get looks up key, promoting it to MRU on hit.
func (c *LRU) Get(key Key) *Entry {
	e := c.Peek(key)
	if e != nil {
		c.Touch(e)
	}
	return e
}

// Touch promotes an entry to MRU.
func (c *LRU) Touch(e *Entry) {
	c.lru.remove(e)
	c.lru.pushFront(e)
}

// Victim returns the least recently used unpinned entry, or nil if none
// exists. It does not remove the entry: callers that must write back a
// dirty victim do so first, then call Remove.
func (c *LRU) Victim() *Entry { return c.lru.lastUnpinned() }

// Insert adds key at MRU. The caller must have made room: Insert panics if
// the cache is full (use Victim/Remove first) or if key is present.
// Zero-capacity caches ignore the insert and return nil.
func (c *LRU) Insert(key Key) *Entry {
	if c.capacity == 0 {
		return nil
	}
	e, inserted := c.TryInsert(key)
	if !inserted {
		if e != nil {
			panic(fmt.Sprintf("cache: duplicate insert of key %d", key))
		}
		panic("cache: insert into full cache")
	}
	return e
}

// TryInsert returns key's entry: the resident one (inserted false), or,
// when the cache has room, a new one at MRU (inserted true). It returns
// nil, false when key is absent and the cache is full, with one probe of
// the index either way.
func (c *LRU) TryInsert(key Key) (e *Entry, inserted bool) {
	if e, inserted = c.admit(key); inserted {
		c.lru.pushFront(e)
	}
	return e, inserted
}

// Remove evicts e from the cache. Dirty state is the caller's problem: the
// cache only maintains the bookkeeping.
func (c *LRU) Remove(e *Entry) { c.drop(e, &c.lru) }

// CheckInvariants verifies internal consistency; tests call this after
// random operation sequences.
func (c *LRU) CheckInvariants() error { return c.checkLists(nil, &c.lru) }

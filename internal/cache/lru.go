// Package cache provides the LRU block-cache substrate used by every cache
// tier in the simulator: an intrusive doubly-linked LRU list, dirty-block
// tracking on a second intrusive list (so the periodic syncer can flush in
// O(dirty)), and a two-medium unified variant for the paper's "unified"
// architecture. Every policy finds its blocks through one Index: an
// open-addressed, linear-probing table of pointers to the entries, sized
// once from the cache's capacity, so a lookup is one hash and usually one
// probe and a cache makes no allocation after construction beyond its
// entry slabs.
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

// entrySlab is the most entries one allocation carves for a pool.
const entrySlab = 64

// entryPool is a per-cache free list of Entry structs: eviction/insert
// churn at steady state recycles entries instead of allocating. The free
// list threads through the (otherwise nil) LRU next pointer. While a cache
// fills, fresh entries are carved from slabs of at most entrySlab, each
// clamped to the budget not yet carved. The budget starts at the cache's
// capacity and Insert refuses a full cache, so a pool never holds more
// entries than its cache can.
type entryPool struct {
	free   *Entry
	slab   []Entry // carved but not yet handed out
	budget int     // entries not yet carved
}

// get returns a reset entry for key on medium m, recycling if possible.
// The reuse generation survives the reset.
func (p *entryPool) get(key Key, m Medium) *Entry {
	e := p.free
	if e == nil {
		if len(p.slab) == 0 {
			p.slab = make([]Entry, min(entrySlab, p.budget))
			p.budget -= len(p.slab)
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

// front returns the MRU-end entry, or nil if empty.
func (l *list) front() *Entry {
	_, sn := l.links(&l.sentinel)
	if *sn == &l.sentinel {
		return nil
	}
	return *sn
}

// LRU is a fixed-capacity single-medium LRU cache of blocks.
type LRU struct {
	capacity int
	medium   Medium
	index    Index
	lru      list
	dirties  list
	pool     entryPool

	// resHook, when set, observes every residency transition: called with
	// (key, true) as Insert indexes the block and (key, false) as Remove
	// drops it. Sharded runs use it to maintain a block→holders index so
	// barrier invalidation only visits hosts that actually hold a copy.
	resHook func(Key, bool)

	// Statistics.
	hits, misses, evictions uint64
}

// NewLRU returns an LRU cache holding at most capacity blocks on medium m.
// A zero capacity cache is valid and caches nothing.
func NewLRU(capacity int, m Medium) *LRU {
	c := &LRU{}
	c.initLRU(capacity, m)
	return c
}

// initLRU initialises the cache in place. The intrusive list sentinels
// hold self-pointers, so an LRU must never be copied after initialisation;
// embedding types initialise through this method.
func (c *LRU) initLRU(capacity int, m Medium) {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	c.capacity = capacity
	c.medium = m
	c.index = NewIndex(capacity)
	c.pool = entryPool{budget: capacity}
	c.lru.init(false)
	c.dirties.init(true)
}

// Capacity returns the maximum number of resident blocks.
func (c *LRU) Capacity() int { return c.capacity }

// Len returns the number of resident blocks.
func (c *LRU) Len() int { return c.lru.len }

// DirtyLen returns the number of dirty resident blocks.
func (c *LRU) DirtyLen() int { return c.dirties.len }

// Medium returns the cache's storage medium.
func (c *LRU) Medium() Medium { return c.medium }

// SetResidencyHook registers fn to observe every block entering (added
// true) and leaving (added false) this cache. Set once, before any
// inserts; a nil hook (the default) costs nothing on the hot paths.
func (c *LRU) SetResidencyHook(fn func(Key, bool)) { c.resHook = fn }

// Hits and Misses report Get outcomes; Evictions reports victims removed.
func (c *LRU) Hits() uint64      { return c.hits }
func (c *LRU) Misses() uint64    { return c.misses }
func (c *LRU) Evictions() uint64 { return c.evictions }

// Get looks up key, promoting it to MRU on hit and counting the outcome.
func (c *LRU) Get(key Key) *Entry {
	e := c.index.entry(key)
	if e == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.remove(e)
	c.lru.pushFront(e)
	return e
}

// Peek looks up key without promoting or counting.
func (c *LRU) Peek(key Key) *Entry {
	return c.index.entry(key)
}

// Touch promotes an entry to MRU without counting a hit.
func (c *LRU) Touch(e *Entry) {
	c.lru.remove(e)
	c.lru.pushFront(e)
}

// NeedsEviction reports whether inserting one more block requires a victim.
func (c *LRU) NeedsEviction() bool {
	return c.lru.len >= c.capacity
}

// Victim returns the least recently used unpinned entry, or nil if none
// exists. It does not remove the entry: callers that must write back a
// dirty victim do so first, then call Remove.
func (c *LRU) Victim() *Entry {
	for e := c.lru.back(); e != nil && e != &c.lru.sentinel; e = e.prev {
		if !e.Pinned {
			return e
		}
	}
	return nil
}

// Insert adds key at MRU. The caller must have made room: Insert panics if
// the cache is full (use Victim/Remove first) or if key is present.
// Zero-capacity caches ignore the insert and return nil.
func (c *LRU) Insert(key Key) *Entry { return mustInsert(c, key, "cache") }

// TryInsert returns key's entry: the resident one (inserted false), or,
// when the cache has room, a new one at MRU (inserted true). It returns
// nil, false when key is absent and the cache is full, with one probe of
// the index either way.
func (c *LRU) TryInsert(key Key) (e *Entry, inserted bool) {
	old, i := c.index.lookup(key)
	if old != nil {
		return old.e, false
	}
	if c.NeedsEviction() {
		return nil, false
	}
	e = c.pool.get(key, c.medium)
	c.index.place(i, &e.n)
	c.lru.pushFront(e)
	if c.resHook != nil {
		c.resHook(key, true)
	}
	return e, true
}

// Remove evicts e from the cache. Dirty state is the caller's problem: the
// cache only maintains the bookkeeping.
func (c *LRU) Remove(e *Entry) {
	if !c.index.Delete(&e.n) {
		panic("cache: removing entry not in cache")
	}
	if e.inDirty {
		c.dirties.remove(e)
		e.inDirty = false
		e.Dirty = false
	}
	c.lru.remove(e)
	c.evictions++
	if c.resHook != nil {
		c.resHook(e.n.key, false)
	}
	c.pool.put(e)
}

// MarkDirty flags e dirty and places it on the dirty list.
func (c *LRU) MarkDirty(e *Entry) {
	if !e.inDirty {
		c.dirties.pushFront(e)
		e.inDirty = true
	}
	e.Dirty = true
}

// MarkClean clears e's dirty flag and removes it from the dirty list.
func (c *LRU) MarkClean(e *Entry) {
	if e.inDirty {
		c.dirties.remove(e)
		e.inDirty = false
	}
	e.Dirty = false
}

// OldestDirty returns the least recently dirtied entry, or nil.
func (c *LRU) OldestDirty() *Entry {
	e := c.dirties.back()
	if e == &c.dirties.sentinel {
		return nil
	}
	return e
}

// AppendDirty appends all dirty entries, oldest first, to dst and returns
// it. The returned entries remain owned by the cache.
func (c *LRU) AppendDirty(dst []*Entry) []*Entry {
	for e := c.dirties.back(); e != nil && e != &c.dirties.sentinel; e = e.dirtyPrev {
		dst = append(dst, e)
	}
	return dst
}

// Keys appends all resident keys, MRU first, to dst and returns it.
func (c *LRU) Keys(dst []Key) []Key {
	for e := c.lru.front(); e != nil && e != &c.lru.sentinel; e = e.next {
		dst = append(dst, e.n.key)
	}
	return dst
}

// CheckInvariants verifies internal consistency; tests call this after
// random operation sequences.
func (c *LRU) CheckInvariants() error {
	indexed, err := c.index.Check()
	if err != nil {
		return err
	}
	if c.lru.len != indexed {
		return fmt.Errorf("lru len %d != index len %d", c.lru.len, indexed)
	}
	if c.lru.len > c.capacity {
		return fmt.Errorf("len %d exceeds capacity %d", c.lru.len, c.capacity)
	}
	seen := 0
	dirtySeen := 0
	for e := c.lru.front(); e != nil && e != &c.lru.sentinel; e = e.next {
		if c.index.entry(e.n.key) != e {
			return fmt.Errorf("entry %d on list but not indexed", e.n.key)
		}
		if e.Dirty != e.inDirty {
			return fmt.Errorf("entry %d dirty flag %v but inDirty %v", e.n.key, e.Dirty, e.inDirty)
		}
		if e.Dirty {
			dirtySeen++
		}
		seen++
		if seen > c.lru.len {
			return fmt.Errorf("lru list longer than recorded length")
		}
	}
	if seen != c.lru.len {
		return fmt.Errorf("walked %d entries, recorded %d", seen, c.lru.len)
	}
	if dirtySeen != c.dirties.len {
		return fmt.Errorf("dirty flags %d != dirty list %d", dirtySeen, c.dirties.len)
	}
	return nil
}

package cache

import "fmt"

// Segment tags for 2Q entries.
const (
	segA1in uint8 = iota + 2
	segAm
)

// TwoQ implements the 2Q replacement policy (Johnson & Shasha 1994):
// first-touch blocks enter a small FIFO (A1in); blocks re-referenced after
// falling out of A1in — remembered in a ghost queue of keys (A1out) —
// enter the main LRU (Am). One-shot scans wash through A1in without
// displacing the hot set, a property frequently proposed for flash caches.
type TwoQ struct {
	capacity int
	a1inCap  int
	ghostCap int
	medium   Medium

	index   Index
	a1in    list // FIFO
	am      list // LRU
	dirties list
	pool    entryPool

	// ghost is A1out: entries that hold only the key of a block evicted
	// from A1in, most recent at the front, with their own index and pool.
	ghost      list
	ghostIndex Index
	ghostPool  entryPool
	resHook    func(Key, bool)

	hits, misses, evictions uint64
}

// NewTwoQ returns a 2Q cache with A1in sized to a quarter of capacity and
// a ghost queue remembering half a capacity's worth of evicted keys.
func NewTwoQ(capacity int, m Medium) *TwoQ {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	a1 := capacity / 4
	if a1 < 1 && capacity > 0 {
		a1 = 1
	}
	q := &TwoQ{
		capacity:   capacity,
		a1inCap:    a1,
		ghostCap:   capacity / 2,
		medium:     m,
		index:      NewIndex(capacity),
		pool:       entryPool{budget: capacity},
		ghostIndex: NewIndex(capacity / 2),
		ghostPool:  entryPool{budget: capacity / 2},
	}
	q.a1in.init(false)
	q.am.init(false)
	q.dirties.init(true)
	q.ghost.init(false)
	return q
}

// Capacity, Len, DirtyLen, Medium implement BlockCache.
func (q *TwoQ) Capacity() int  { return q.capacity }
func (q *TwoQ) Len() int       { return q.a1in.len + q.am.len }
func (q *TwoQ) DirtyLen() int  { return q.dirties.len }
func (q *TwoQ) Medium() Medium { return q.medium }

// A1inLen and GhostLen report internal queue sizes (for tests).
func (q *TwoQ) A1inLen() int  { return q.a1in.len }
func (q *TwoQ) GhostLen() int { return q.ghost.len }

// SetResidencyHook implements BlockCache.
func (q *TwoQ) SetResidencyHook(fn func(Key, bool)) { q.resHook = fn }

// Hits, Misses, Evictions implement BlockCache.
func (q *TwoQ) Hits() uint64      { return q.hits }
func (q *TwoQ) Misses() uint64    { return q.misses }
func (q *TwoQ) Evictions() uint64 { return q.evictions }

// Get looks up key. Hits in Am promote to MRU; hits in A1in stay put (2Q
// deliberately ignores correlated references inside A1in).
func (q *TwoQ) Get(key Key) *Entry {
	e := q.index.entry(key)
	if e == nil {
		q.misses++
		return nil
	}
	q.hits++
	if e.seg == segAm {
		q.am.remove(e)
		q.am.pushFront(e)
	}
	return e
}

// Peek looks up key without movement or counting.
func (q *TwoQ) Peek(key Key) *Entry { return q.index.entry(key) }

// Touch promotes Am entries; A1in entries stay put.
func (q *TwoQ) Touch(e *Entry) {
	if e.seg == segAm {
		q.am.remove(e)
		q.am.pushFront(e)
	}
}

// NeedsEviction implements BlockCache.
func (q *TwoQ) NeedsEviction() bool { return q.Len() >= q.capacity }

// Victim prefers A1in's FIFO tail when A1in is over quota (or Am is
// empty), otherwise Am's LRU tail.
func (q *TwoQ) Victim() *Entry {
	pickA1 := q.a1in.len > q.a1inCap || q.am.len == 0
	lists := []*list{&q.a1in, &q.am}
	if !pickA1 {
		lists[0], lists[1] = &q.am, &q.a1in
	}
	for _, l := range lists {
		for e := l.back(); e != nil && e != &l.sentinel; e = e.prev {
			if !e.Pinned {
				return e
			}
		}
	}
	return nil
}

// Insert adds key: to Am if the ghost queue remembers it, else to A1in.
func (q *TwoQ) Insert(key Key) *Entry { return mustInsert(q, key, "2Q") }

// TryInsert implements BlockCache, inserting as Insert describes.
func (q *TwoQ) TryInsert(key Key) (e *Entry, inserted bool) {
	old, i := q.index.lookup(key)
	if old != nil {
		return old.e, false
	}
	if q.NeedsEviction() {
		return nil, false
	}
	e = q.pool.get(key, q.medium)
	if g := q.ghostIndex.entry(key); g != nil {
		q.ghostRemove(g)
		e.seg = segAm
		q.am.pushFront(e)
	} else {
		e.seg = segA1in
		q.a1in.pushFront(e)
	}
	q.index.place(i, &e.n)
	if q.resHook != nil {
		q.resHook(key, true)
	}
	return e, true
}

// Remove evicts e; A1in evictions are remembered in the ghost queue.
func (q *TwoQ) Remove(e *Entry) {
	if !q.index.Delete(&e.n) {
		panic("cache: removing entry not in 2Q")
	}
	if e.inDirty {
		q.dirties.remove(e)
		e.inDirty = false
		e.Dirty = false
	}
	if e.seg == segAm {
		q.am.remove(e)
	} else {
		q.a1in.remove(e)
		q.ghostAdd(e.n.key)
	}
	q.evictions++
	if q.resHook != nil {
		q.resHook(e.n.key, false)
	}
	q.pool.put(e)
}

// ghostAdd remembers key at the front of the ghost queue, forgetting the
// oldest key when the queue is full. Only a block leaving A1in is added,
// and a resident block is never remembered, so key is not in the queue.
func (q *TwoQ) ghostAdd(key Key) {
	if q.ghostCap == 0 {
		return
	}
	if q.ghost.len == q.ghostCap {
		q.ghostRemove(q.ghost.back())
	}
	g := q.ghostPool.get(key, q.medium)
	if q.ghostIndex.Insert(&g.n) != nil {
		panic(fmt.Sprintf("cache: key %d already in the 2Q ghost queue", key))
	}
	q.ghost.pushFront(g)
}

func (q *TwoQ) ghostRemove(g *Entry) {
	q.ghostIndex.Delete(&g.n)
	q.ghost.remove(g)
	q.ghostPool.put(g)
}

// MarkDirty implements BlockCache.
func (q *TwoQ) MarkDirty(e *Entry) {
	if !e.inDirty {
		q.dirties.pushFront(e)
		e.inDirty = true
	}
	e.Dirty = true
}

// MarkClean implements BlockCache.
func (q *TwoQ) MarkClean(e *Entry) {
	if e.inDirty {
		q.dirties.remove(e)
		e.inDirty = false
	}
	e.Dirty = false
}

// AppendDirty implements BlockCache (oldest first).
func (q *TwoQ) AppendDirty(dst []*Entry) []*Entry {
	for e := q.dirties.back(); e != nil && e != &q.dirties.sentinel; e = e.dirtyPrev {
		dst = append(dst, e)
	}
	return dst
}

// Keys implements BlockCache: Am MRU first, then A1in.
func (q *TwoQ) Keys(dst []Key) []Key {
	for e := q.am.front(); e != nil && e != &q.am.sentinel; e = e.next {
		dst = append(dst, e.n.key)
	}
	for e := q.a1in.front(); e != nil && e != &q.a1in.sentinel; e = e.next {
		dst = append(dst, e.n.key)
	}
	return dst
}

// CheckInvariants implements BlockCache.
func (q *TwoQ) CheckInvariants() error {
	seen, dirty := 0, 0
	walk := func(l *list, seg uint8) error {
		for e := l.front(); e != nil && e != &l.sentinel; e = e.next {
			if q.index.entry(e.n.key) != e {
				return fmt.Errorf("entry %d on list but not indexed", e.n.key)
			}
			if e.seg != seg {
				return fmt.Errorf("entry %d tagged %d on segment %d", e.n.key, e.seg, seg)
			}
			if q.ghostIndex.entry(e.n.key) != nil {
				return fmt.Errorf("resident entry %d also in ghost queue", e.n.key)
			}
			if e.Dirty {
				dirty++
			}
			seen++
		}
		return nil
	}
	if err := walk(&q.a1in, segA1in); err != nil {
		return err
	}
	if err := walk(&q.am, segAm); err != nil {
		return err
	}
	indexed, err := q.index.Check()
	if err != nil {
		return err
	}
	if seen != indexed {
		return fmt.Errorf("walked %d, indexed %d", seen, indexed)
	}
	if seen > q.capacity {
		return fmt.Errorf("population %d over capacity %d", seen, q.capacity)
	}
	gs := 0
	for g := q.ghost.front(); g != nil && g != &q.ghost.sentinel; g = g.next {
		if q.ghostIndex.entry(g.n.key) != g {
			return fmt.Errorf("ghost %d not indexed", g.n.key)
		}
		gs++
	}
	ghosts, err := q.ghostIndex.Check()
	if err != nil {
		return err
	}
	if gs != q.ghost.len || gs != ghosts {
		return fmt.Errorf("ghost count %d, list %d, index %d", q.ghost.len, gs, ghosts)
	}
	if gs > q.ghostCap {
		return fmt.Errorf("ghost %d over cap %d", gs, q.ghostCap)
	}
	if dirty != q.dirties.len {
		return fmt.Errorf("dirty flags %d != list %d", dirty, q.dirties.len)
	}
	return nil
}

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

	index   map[Key]*Entry
	a1in    list // FIFO
	am      list // LRU
	dirties list

	ghost      map[Key]*ghostNode
	ghostHead  *ghostNode // most recent
	ghostTail  *ghostNode // oldest
	ghostCount int
	pool       entryPool
	ghostPool  *ghostNode // free list of ghost nodes
	resHook    func(Key, bool)

	hits, misses, evictions uint64
}

type ghostNode struct {
	key        Key
	prev, next *ghostNode
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
		capacity: capacity,
		a1inCap:  a1,
		ghostCap: capacity / 2,
		medium:   m,
		index:    make(map[Key]*Entry, capacity),
		ghost:    make(map[Key]*ghostNode),
		pool:     entryPool{budget: capacity},
	}
	q.a1in.init(false)
	q.am.init(false)
	q.dirties.init(true)
	return q
}

// Capacity, Len, DirtyLen, Medium implement BlockCache.
func (q *TwoQ) Capacity() int  { return q.capacity }
func (q *TwoQ) Len() int       { return q.a1in.len + q.am.len }
func (q *TwoQ) DirtyLen() int  { return q.dirties.len }
func (q *TwoQ) Medium() Medium { return q.medium }

// A1inLen and GhostLen report internal queue sizes (for tests).
func (q *TwoQ) A1inLen() int  { return q.a1in.len }
func (q *TwoQ) GhostLen() int { return q.ghostCount }

// SetResidencyHook implements BlockCache.
func (q *TwoQ) SetResidencyHook(fn func(Key, bool)) { q.resHook = fn }

// Hits, Misses, Evictions implement BlockCache.
func (q *TwoQ) Hits() uint64      { return q.hits }
func (q *TwoQ) Misses() uint64    { return q.misses }
func (q *TwoQ) Evictions() uint64 { return q.evictions }

// Get looks up key. Hits in Am promote to MRU; hits in A1in stay put (2Q
// deliberately ignores correlated references inside A1in).
func (q *TwoQ) Get(key Key) *Entry {
	e, ok := q.index[key]
	if !ok {
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
func (q *TwoQ) Peek(key Key) *Entry { return q.index[key] }

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
func (q *TwoQ) Insert(key Key) *Entry {
	if q.capacity == 0 {
		return nil
	}
	if _, ok := q.index[key]; ok {
		panic(fmt.Sprintf("cache: duplicate insert of key %d", key))
	}
	if q.Len() >= q.capacity {
		panic("cache: insert into full 2Q")
	}
	e := q.pool.get(key, q.medium)
	if g, remembered := q.ghost[key]; remembered {
		q.ghostRemove(g)
		e.seg = segAm
		q.am.pushFront(e)
	} else {
		e.seg = segA1in
		q.a1in.pushFront(e)
	}
	q.index[key] = e
	if q.resHook != nil {
		q.resHook(key, true)
	}
	return e
}

// Remove evicts e; A1in evictions are remembered in the ghost queue.
func (q *TwoQ) Remove(e *Entry) {
	if q.index[e.key] != e {
		panic("cache: removing entry not in 2Q")
	}
	if e.inDirty {
		q.dirties.remove(e)
		e.inDirty = false
		e.Dirty = false
	}
	delete(q.index, e.key)
	if e.seg == segAm {
		q.am.remove(e)
	} else {
		q.a1in.remove(e)
		q.ghostAdd(e.key)
	}
	q.evictions++
	if q.resHook != nil {
		q.resHook(e.key, false)
	}
	q.pool.put(e)
}

func (q *TwoQ) ghostAdd(key Key) {
	if q.ghostCap == 0 {
		return
	}
	if g, ok := q.ghost[key]; ok {
		q.ghostRemove(g)
	}
	g := q.ghostPool
	if g == nil {
		g = &ghostNode{}
	} else {
		q.ghostPool = g.next
	}
	g.key = key
	g.prev = nil
	g.next = q.ghostHead
	if q.ghostHead != nil {
		q.ghostHead.prev = g
	}
	q.ghostHead = g
	if q.ghostTail == nil {
		q.ghostTail = g
	}
	q.ghost[key] = g
	q.ghostCount++
	for q.ghostCount > q.ghostCap {
		q.ghostRemove(q.ghostTail)
	}
}

func (q *TwoQ) ghostRemove(g *ghostNode) {
	if g.prev != nil {
		g.prev.next = g.next
	} else {
		q.ghostHead = g.next
	}
	if g.next != nil {
		g.next.prev = g.prev
	} else {
		q.ghostTail = g.prev
	}
	delete(q.ghost, g.key)
	q.ghostCount--
	g.prev = nil
	g.next = q.ghostPool
	q.ghostPool = g
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
		dst = append(dst, e.key)
	}
	for e := q.a1in.front(); e != nil && e != &q.a1in.sentinel; e = e.next {
		dst = append(dst, e.key)
	}
	return dst
}

// CheckInvariants implements BlockCache.
func (q *TwoQ) CheckInvariants() error {
	seen, dirty := 0, 0
	walk := func(l *list, seg uint8) error {
		for e := l.front(); e != nil && e != &l.sentinel; e = e.next {
			if q.index[e.key] != e {
				return fmt.Errorf("entry %d on list but not indexed", e.key)
			}
			if e.seg != seg {
				return fmt.Errorf("entry %d tagged %d on segment %d", e.key, e.seg, seg)
			}
			if _, ghosted := q.ghost[e.key]; ghosted {
				return fmt.Errorf("resident entry %d also in ghost queue", e.key)
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
	if seen != len(q.index) {
		return fmt.Errorf("walked %d, indexed %d", seen, len(q.index))
	}
	if seen > q.capacity {
		return fmt.Errorf("population %d over capacity %d", seen, q.capacity)
	}
	gs := 0
	for g := q.ghostHead; g != nil; g = g.next {
		if q.ghost[g.key] != g {
			return fmt.Errorf("ghost %d not indexed", g.key)
		}
		gs++
	}
	if gs != q.ghostCount || gs != len(q.ghost) {
		return fmt.Errorf("ghost count %d, list %d, map %d", q.ghostCount, gs, len(q.ghost))
	}
	if gs > q.ghostCap {
		return fmt.Errorf("ghost %d over cap %d", gs, q.ghostCap)
	}
	if dirty != q.dirties.len {
		return fmt.Errorf("dirty flags %d != list %d", dirty, q.dirties.len)
	}
	return nil
}

package cache

import "fmt"

// Segment tags for 2Q entries.
const (
	segA1in uint8 = iota + 2
	segAm
)

// twoQ implements the 2Q replacement policy (Johnson & Shasha 1994):
// first-touch blocks enter a small FIFO (A1in); blocks re-referenced after
// falling out of A1in — remembered in a ghost queue of keys (A1out) —
// enter the main LRU (Am). One-shot scans wash through A1in without
// displacing the hot set, a property frequently proposed for flash caches.
type twoQ struct {
	base
	a1inCap  int
	ghostCap int
	a1in     list // FIFO
	am       list // LRU

	// ghost is A1out: entries that hold only the key of a block evicted
	// from A1in, most recent at the front, with their own index and pool.
	ghost      list
	ghostIndex Index
	ghostPool  entryPool
}

// newTwoQ returns a 2Q cache with A1in sized to a quarter of capacity and
// a ghost queue remembering half a capacity's worth of evicted keys.
func newTwoQ(capacity int, m Medium) *twoQ {
	a1 := capacity / 4
	if a1 < 1 && capacity > 0 {
		a1 = 1
	}
	q := &twoQ{a1inCap: a1, ghostCap: capacity / 2}
	q.init(capacity, m)
	q.ghostIndex = NewIndex(capacity / 2)
	q.ghostPool = entryPool{budget: capacity / 2}
	q.a1in.init(false)
	q.am.init(false)
	q.ghost.init(false)
	return q
}

// Get looks up key. Hits in Am promote to MRU; hits in A1in stay put (2Q
// deliberately ignores correlated references inside A1in).
func (q *twoQ) Get(key Key) *Entry {
	e := q.Peek(key)
	if e != nil {
		q.Touch(e)
	}
	return e
}

// Touch promotes Am entries; A1in entries stay put.
func (q *twoQ) Touch(e *Entry) {
	if e.seg == segAm {
		q.am.remove(e)
		q.am.pushFront(e)
	}
}

// Victim prefers A1in's FIFO tail when A1in is over quota (or Am is
// empty), otherwise Am's LRU tail.
func (q *twoQ) Victim() *Entry {
	first, second := &q.am, &q.a1in
	if q.a1in.len > q.a1inCap || q.am.len == 0 {
		first, second = second, first
	}
	if e := first.lastUnpinned(); e != nil {
		return e
	}
	return second.lastUnpinned()
}

// TryInsert implements BlockCache, inserting key into Am if the ghost
// queue remembers it, else into A1in.
func (q *twoQ) TryInsert(key Key) (e *Entry, inserted bool) {
	if e, inserted = q.admit(key); !inserted {
		return e, false
	}
	if g := q.ghostIndex.entry(key); g != nil {
		q.ghostRemove(g)
		e.seg = segAm
		q.am.pushFront(e)
	} else {
		e.seg = segA1in
		q.a1in.pushFront(e)
	}
	return e, true
}

// Remove evicts e; A1in evictions are remembered in the ghost queue.
func (q *twoQ) Remove(e *Entry) {
	if e.seg == segAm {
		q.drop(e, &q.am)
		return
	}
	key := e.n.key
	q.drop(e, &q.a1in)
	q.ghostAdd(key)
}

// ghostAdd remembers key at the front of the ghost queue, forgetting the
// oldest key when the queue is full. Only a block leaving A1in is added,
// and a resident block is never remembered, so key is not in the queue.
func (q *twoQ) ghostAdd(key Key) {
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

func (q *twoQ) ghostRemove(g *Entry) {
	q.ghostIndex.delete(&g.n)
	q.ghost.remove(g)
	q.ghostPool.put(g)
}

// CheckInvariants implements BlockCache.
func (q *twoQ) CheckInvariants() error {
	segs := [...]uint8{segA1in, segAm}
	err := q.checkLists(func(e *Entry, i int) error {
		if e.seg != segs[i] {
			return fmt.Errorf("entry %d tagged %d on segment %d", e.n.key, e.seg, segs[i])
		}
		if q.ghostIndex.entry(e.n.key) != nil {
			return fmt.Errorf("resident entry %d also in ghost queue", e.n.key)
		}
		return nil
	}, &q.a1in, &q.am)
	if err != nil {
		return err
	}
	gs := 0
	for g := q.ghost.sentinel.next; g != &q.ghost.sentinel; g = g.next {
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
	return nil
}

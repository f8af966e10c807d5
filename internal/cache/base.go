package cache

import "fmt"

// base is the bookkeeping every replacement policy embeds: the index, the
// entry pool, the dirty list and the capacity. A policy adds only its own
// resident lists and the order it keeps them in. The dirty list's sentinel
// holds self-pointers, so a policy must never be copied after
// initialisation.
type base struct {
	capacity int
	// medium is the medium admit gives a new entry; the unified cache
	// re-picks it per entry.
	medium  Medium
	index   Index
	pool    entryPool
	dirties list
}

// init initialises the core in place, carving its index table and first
// entry slab from a, which has them reserved.
func (b *base) init(a *Arena, capacity int, m Medium) {
	b.capacity = capacity
	b.medium = m
	b.index = a.index(capacity)
	b.pool = a.pool(capacity)
	b.dirties.init(true)
}

// Capacity returns the maximum number of resident blocks.
func (b *base) Capacity() int { return b.capacity }

// Len returns the number of resident blocks.
func (b *base) Len() int { return b.index.n }

// DirtyLen returns the number of dirty resident blocks.
func (b *base) DirtyLen() int { return b.dirties.len }

// NeedsEviction reports whether inserting one more block requires a victim.
func (b *base) NeedsEviction() bool { return b.index.n >= b.capacity }

// Peek looks up key without promoting.
func (b *base) Peek(key Key) *Entry { return b.index.entry(key) }

// MarkDirty flags e dirty and places it on the dirty list.
func (b *base) MarkDirty(e *Entry) {
	if !e.inDirty {
		b.dirties.pushFront(e)
		e.inDirty = true
	}
	e.Dirty = true
}

// MarkClean clears e's dirty flag and removes it from the dirty list.
func (b *base) MarkClean(e *Entry) {
	if e.inDirty {
		b.dirties.remove(e)
		e.inDirty = false
	}
	e.Dirty = false
}

// AppendDirty appends all dirty entries, oldest first, to dst and returns
// it. The returned entries remain owned by the cache.
func (b *base) AppendDirty(dst []*Entry) []*Entry {
	for e := b.dirties.back(); e != nil && e != &b.dirties.sentinel; e = e.dirtyPrev {
		dst = append(dst, e)
	}
	return dst
}

// admit is the shared half of every TryInsert, with one probe of the
// index. It returns key's resident entry (inserted false), or nil, false
// when key is absent and the cache is full. Otherwise it takes a fresh
// entry from the pool and indexes it; the policy then links it into its
// own lists.
func (b *base) admit(key Key) (e *Entry, inserted bool) {
	old, slot := b.index.lookup(key)
	if old != nil {
		return old.e, false
	}
	if b.NeedsEviction() {
		return nil, false
	}
	e = b.pool.get(key, b.medium)
	b.index.place(slot, &e.n)
	return e, true
}

// drop is the shared half of every Remove: it unindexes e, takes it off
// the dirty list and unlinks it from l, the policy list holding it, then
// recycles the entry.
// Dirty state is the caller's problem: the cache only keeps the books.
func (b *base) drop(e *Entry, l *list) {
	if !b.index.delete(&e.n) {
		panic("cache: removing entry not in cache")
	}
	if e.inDirty {
		b.dirties.remove(e)
		e.inDirty = false
		e.Dirty = false
	}
	l.remove(e)
	b.pool.put(e)
}

// checkLists verifies the books every policy shares against its resident
// lists: each listed entry is indexed and its dirty flag matches its
// dirty-list membership, each list's walk matches its recorded length,
// the lists together hold exactly the indexed entries and no more than the
// capacity, and the dirty flags add up to the dirty list. each, when
// non-nil, adds the policy's own check of an entry on lists[i].
func (b *base) checkLists(each func(e *Entry, i int) error, lists ...*list) error {
	indexed, err := b.index.Check()
	if err != nil {
		return err
	}
	seen, dirty := 0, 0
	for i, l := range lists {
		n := 0
		for e := l.sentinel.next; e != &l.sentinel; e = e.next {
			if b.index.entry(e.n.key) != e {
				return fmt.Errorf("entry %d on list but not indexed", e.n.key)
			}
			if e.Dirty != e.inDirty {
				return fmt.Errorf("entry %d dirty flag %v but inDirty %v", e.n.key, e.Dirty, e.inDirty)
			}
			if e.Dirty {
				dirty++
			}
			if each != nil {
				if err := each(e, i); err != nil {
					return err
				}
			}
			if n++; n > l.len {
				return fmt.Errorf("list longer than its recorded length %d", l.len)
			}
		}
		if n != l.len {
			return fmt.Errorf("walked %d entries, list records %d", n, l.len)
		}
		seen += n
	}
	if seen != indexed {
		return fmt.Errorf("walked %d entries, indexed %d", seen, indexed)
	}
	if seen > b.capacity {
		return fmt.Errorf("population %d over capacity %d", seen, b.capacity)
	}
	if dirty != b.dirties.len {
		return fmt.Errorf("dirty flags %d != dirty list %d", dirty, b.dirties.len)
	}
	return nil
}

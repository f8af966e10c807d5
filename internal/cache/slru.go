package cache

import "fmt"

// Segment tags for SLRU entries.
const (
	segProbation uint8 = iota
	segProtected
)

// SLRU is a segmented LRU: new blocks enter a probationary segment and are
// promoted to a protected segment on re-reference; victims come from
// probation first. Scan-resistant relative to plain LRU, which matters for
// a flash cache polluted by the workload's 20% whole-file-server traffic.
type SLRU struct {
	capacity     int
	protectedCap int
	medium       Medium
	index        Index
	probation    list
	protected    list
	dirties      list
	pool         entryPool
	resHook      func(Key, bool)

	hits, misses, evictions uint64
}

// NewSLRU returns a segmented LRU with the protected segment sized to half
// the capacity.
func NewSLRU(capacity int, m Medium) *SLRU {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	s := &SLRU{
		capacity:     capacity,
		protectedCap: capacity / 2,
		medium:       m,
		index:        NewIndex(capacity),
		pool:         entryPool{budget: capacity},
	}
	s.probation.init(false)
	s.protected.init(false)
	s.dirties.init(true)
	return s
}

// Capacity, Len, DirtyLen, Medium implement BlockCache.
func (s *SLRU) Capacity() int  { return s.capacity }
func (s *SLRU) Len() int       { return s.probation.len + s.protected.len }
func (s *SLRU) DirtyLen() int  { return s.dirties.len }
func (s *SLRU) Medium() Medium { return s.medium }

// ProtectedLen reports the protected segment's population (for tests).
func (s *SLRU) ProtectedLen() int { return s.protected.len }

// SetResidencyHook implements BlockCache.
func (s *SLRU) SetResidencyHook(fn func(Key, bool)) { s.resHook = fn }

// Hits, Misses, Evictions implement BlockCache.
func (s *SLRU) Hits() uint64      { return s.hits }
func (s *SLRU) Misses() uint64    { return s.misses }
func (s *SLRU) Evictions() uint64 { return s.evictions }

// Get looks up key, promoting probation hits into the protected segment.
func (s *SLRU) Get(key Key) *Entry {
	e := s.index.entry(key)
	if e == nil {
		s.misses++
		return nil
	}
	s.hits++
	s.promote(e)
	return e
}

// Peek looks up key without promotion or counting.
func (s *SLRU) Peek(key Key) *Entry { return s.index.entry(key) }

// Touch promotes without counting a hit.
func (s *SLRU) Touch(e *Entry) { s.promote(e) }

func (s *SLRU) promote(e *Entry) {
	if e.seg == segProtected {
		s.protected.remove(e)
		s.protected.pushFront(e)
		return
	}
	if s.protectedCap == 0 {
		// Degenerate capacity: behave as plain LRU within probation.
		s.probation.remove(e)
		s.probation.pushFront(e)
		return
	}
	s.probation.remove(e)
	e.seg = segProtected
	s.protected.pushFront(e)
	// Demote the protected segment's LRU end when over quota.
	for s.protected.len > s.protectedCap {
		d := s.protected.back()
		s.protected.remove(d)
		d.seg = segProbation
		s.probation.pushFront(d)
	}
}

// NeedsEviction implements BlockCache.
func (s *SLRU) NeedsEviction() bool { return s.Len() >= s.capacity }

// Victim returns the probationary LRU entry, falling back to the
// protected segment when probation is empty or fully pinned.
func (s *SLRU) Victim() *Entry {
	for e := s.probation.back(); e != nil && e != &s.probation.sentinel; e = e.prev {
		if !e.Pinned {
			return e
		}
	}
	for e := s.protected.back(); e != nil && e != &s.protected.sentinel; e = e.prev {
		if !e.Pinned {
			return e
		}
	}
	return nil
}

// Insert adds key to the probationary segment's MRU end.
func (s *SLRU) Insert(key Key) *Entry { return mustInsert(s, key, "SLRU") }

// TryInsert implements BlockCache, inserting into probation.
func (s *SLRU) TryInsert(key Key) (e *Entry, inserted bool) {
	old, i := s.index.lookup(key)
	if old != nil {
		return old.e, false
	}
	if s.NeedsEviction() {
		return nil, false
	}
	e = s.pool.get(key, s.medium)
	e.seg = segProbation
	s.index.place(i, &e.n)
	s.probation.pushFront(e)
	if s.resHook != nil {
		s.resHook(key, true)
	}
	return e, true
}

// Remove evicts e.
func (s *SLRU) Remove(e *Entry) {
	if !s.index.Delete(&e.n) {
		panic("cache: removing entry not in SLRU")
	}
	if e.inDirty {
		s.dirties.remove(e)
		e.inDirty = false
		e.Dirty = false
	}
	if e.seg == segProtected {
		s.protected.remove(e)
	} else {
		s.probation.remove(e)
	}
	s.evictions++
	if s.resHook != nil {
		s.resHook(e.n.key, false)
	}
	s.pool.put(e)
}

// MarkDirty implements BlockCache.
func (s *SLRU) MarkDirty(e *Entry) {
	if !e.inDirty {
		s.dirties.pushFront(e)
		e.inDirty = true
	}
	e.Dirty = true
}

// MarkClean implements BlockCache.
func (s *SLRU) MarkClean(e *Entry) {
	if e.inDirty {
		s.dirties.remove(e)
		e.inDirty = false
	}
	e.Dirty = false
}

// AppendDirty implements BlockCache (oldest first).
func (s *SLRU) AppendDirty(dst []*Entry) []*Entry {
	for e := s.dirties.back(); e != nil && e != &s.dirties.sentinel; e = e.dirtyPrev {
		dst = append(dst, e)
	}
	return dst
}

// Keys implements BlockCache: protected MRU first, then probation.
func (s *SLRU) Keys(dst []Key) []Key {
	for e := s.protected.front(); e != nil && e != &s.protected.sentinel; e = e.next {
		dst = append(dst, e.n.key)
	}
	for e := s.probation.front(); e != nil && e != &s.probation.sentinel; e = e.next {
		dst = append(dst, e.n.key)
	}
	return dst
}

// CheckInvariants implements BlockCache.
func (s *SLRU) CheckInvariants() error {
	seen := 0
	dirty := 0
	walk := func(l *list, seg uint8) error {
		for e := l.front(); e != nil && e != &l.sentinel; e = e.next {
			if s.index.entry(e.n.key) != e {
				return fmt.Errorf("entry %d on list but not indexed", e.n.key)
			}
			if e.seg != seg {
				return fmt.Errorf("entry %d on segment %d tagged %d", e.n.key, seg, e.seg)
			}
			if e.Dirty {
				dirty++
			}
			seen++
		}
		return nil
	}
	if err := walk(&s.probation, segProbation); err != nil {
		return err
	}
	if err := walk(&s.protected, segProtected); err != nil {
		return err
	}
	indexed, err := s.index.Check()
	if err != nil {
		return err
	}
	if seen != indexed {
		return fmt.Errorf("walked %d entries, indexed %d", seen, indexed)
	}
	if seen > s.capacity {
		return fmt.Errorf("population %d over capacity %d", seen, s.capacity)
	}
	if s.protected.len > s.protectedCap {
		return fmt.Errorf("protected %d over quota %d", s.protected.len, s.protectedCap)
	}
	if dirty != s.dirties.len {
		return fmt.Errorf("dirty flags %d != dirty list %d", dirty, s.dirties.len)
	}
	return nil
}

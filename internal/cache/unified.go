package cache

import "fmt"

// Unified is the paper's unified architecture cache (§3.3): RAM and flash
// buffers managed as a single LRU chain. A newly inserted block is "placed
// into the least recently used buffer, whether RAM or flash", inherits that
// buffer's medium, and never migrates. No attempt is made to prefer RAM over
// flash.
type Unified struct {
	index   Index
	lru     list
	dirties list
	pool    entryPool
	resHook func(Key, bool)

	ramBufs, flashBufs int // total buffers per medium
	freeRAM, freeFlash int // unallocated buffers per medium
	residentRAM        int // resident entries backed by RAM
	hits, misses       uint64
	hitsRAM, hitsFlash uint64
	evictions          uint64
	allocFlipFlop      bool // tie-breaker for free-buffer allocation
}

// NewUnified returns a unified cache with the given buffer counts.
func NewUnified(ramBufs, flashBufs int) *Unified {
	if ramBufs < 0 || flashBufs < 0 {
		panic("cache: negative buffer count")
	}
	u := &Unified{
		index:     NewIndex(ramBufs + flashBufs),
		pool:      entryPool{budget: ramBufs + flashBufs},
		ramBufs:   ramBufs,
		flashBufs: flashBufs,
		freeRAM:   ramBufs,
		freeFlash: flashBufs,
	}
	u.lru.init(false)
	u.dirties.init(true)
	return u
}

// Capacity returns the total buffer count.
func (u *Unified) Capacity() int { return u.ramBufs + u.flashBufs }

// Len returns the number of resident blocks.
func (u *Unified) Len() int { return u.lru.len }

// DirtyLen returns the number of dirty resident blocks.
func (u *Unified) DirtyLen() int { return u.dirties.len }

// ResidentRAM returns how many resident blocks live in RAM buffers.
func (u *Unified) ResidentRAM() int { return u.residentRAM }

// SetResidencyHook mirrors BlockCache.SetResidencyHook.
func (u *Unified) SetResidencyHook(fn func(Key, bool)) { u.resHook = fn }

// Hits/Misses/Evictions mirror LRU. HitsByMedium splits hits.
func (u *Unified) Hits() uint64      { return u.hits }
func (u *Unified) Misses() uint64    { return u.misses }
func (u *Unified) Evictions() uint64 { return u.evictions }
func (u *Unified) HitsByMedium() (ram, flash uint64) {
	return u.hitsRAM, u.hitsFlash
}

// Get looks up key, promoting to MRU and counting the outcome.
func (u *Unified) Get(key Key) *Entry {
	e := u.index.entry(key)
	if e == nil {
		u.misses++
		return nil
	}
	u.hits++
	if e.medium == RAM {
		u.hitsRAM++
	} else {
		u.hitsFlash++
	}
	u.lru.remove(e)
	u.lru.pushFront(e)
	return e
}

// Peek looks up key without promoting or counting.
func (u *Unified) Peek(key Key) *Entry { return u.index.entry(key) }

// NeedsEviction reports whether an insert requires a victim.
func (u *Unified) NeedsEviction() bool {
	return u.freeRAM == 0 && u.freeFlash == 0
}

// Victim returns the least recently used unpinned entry, or nil.
func (u *Unified) Victim() *Entry {
	for e := u.lru.back(); e != nil && e != &u.lru.sentinel; e = e.prev {
		if !e.Pinned {
			return e
		}
	}
	return nil
}

// Insert adds key at MRU, choosing the buffer medium. While free buffers
// remain, allocation draws from whichever pool has proportionally more free
// buffers (alternating on ties) so the initial mix matches the configured
// ratio without preferring RAM. Once full, callers must first Remove a
// victim obtained from Victim; the freed buffer's medium is then inherited,
// which is exactly "placed into the least recently used buffer".
func (u *Unified) Insert(key Key) *Entry { return mustInsert(u, key, "unified cache") }

// TryInsert returns key's entry: the resident one (inserted false), or,
// while a buffer is free, a new one placed as Insert places it (inserted
// true). It returns nil, false when key is absent and no buffer is free.
func (u *Unified) TryInsert(key Key) (e *Entry, inserted bool) {
	old, i := u.index.lookup(key)
	if old != nil {
		return old.e, false
	}
	if u.NeedsEviction() {
		return nil, false
	}
	var m Medium
	switch {
	case u.freeRAM == 0:
		m = Flash
	case u.freeFlash == 0:
		m = RAM
	default:
		fr := float64(u.freeRAM) / float64(u.ramBufs)
		ff := float64(u.freeFlash) / float64(u.flashBufs)
		switch {
		case fr > ff:
			m = RAM
		case ff > fr:
			m = Flash
		default:
			if u.allocFlipFlop {
				m = RAM
			} else {
				m = Flash
			}
			u.allocFlipFlop = !u.allocFlipFlop
		}
	}
	if m == RAM {
		u.freeRAM--
		u.residentRAM++
	} else {
		u.freeFlash--
	}
	e = u.pool.get(key, m)
	u.index.place(i, &e.n)
	u.lru.pushFront(e)
	if u.resHook != nil {
		u.resHook(key, true)
	}
	return e, true
}

// Remove evicts e, returning its buffer to the free pool.
func (u *Unified) Remove(e *Entry) {
	if !u.index.Delete(&e.n) {
		panic("cache: removing entry not in unified cache")
	}
	if e.inDirty {
		u.dirties.remove(e)
		e.inDirty = false
		e.Dirty = false
	}
	u.lru.remove(e)
	if e.medium == RAM {
		u.freeRAM++
		u.residentRAM--
	} else {
		u.freeFlash++
	}
	u.evictions++
	if u.resHook != nil {
		u.resHook(e.n.key, false)
	}
	u.pool.put(e)
}

// MarkDirty flags e dirty and places it on the dirty list.
func (u *Unified) MarkDirty(e *Entry) {
	if !e.inDirty {
		u.dirties.pushFront(e)
		e.inDirty = true
	}
	e.Dirty = true
}

// MarkClean clears e's dirty flag.
func (u *Unified) MarkClean(e *Entry) {
	if e.inDirty {
		u.dirties.remove(e)
		e.inDirty = false
	}
	e.Dirty = false
}

// AppendDirty appends all dirty entries, oldest first.
func (u *Unified) AppendDirty(dst []*Entry) []*Entry {
	for e := u.dirties.back(); e != nil && e != &u.dirties.sentinel; e = e.dirtyPrev {
		dst = append(dst, e)
	}
	return dst
}

// CheckInvariants verifies internal consistency.
func (u *Unified) CheckInvariants() error {
	indexed, err := u.index.Check()
	if err != nil {
		return err
	}
	if u.lru.len != indexed {
		return fmt.Errorf("lru len %d != index len %d", u.lru.len, indexed)
	}
	ram, flash, dirty := 0, 0, 0
	for e := u.lru.front(); e != nil && e != &u.lru.sentinel; e = e.next {
		if u.index.entry(e.n.key) != e {
			return fmt.Errorf("entry %d on list but not indexed", e.n.key)
		}
		if e.medium == RAM {
			ram++
		} else {
			flash++
		}
		if e.Dirty {
			dirty++
		}
	}
	if ram != u.residentRAM {
		return fmt.Errorf("residentRAM %d, walked %d", u.residentRAM, ram)
	}
	if ram+u.freeRAM != u.ramBufs {
		return fmt.Errorf("RAM buffers leaked: %d resident + %d free != %d", ram, u.freeRAM, u.ramBufs)
	}
	if flash+u.freeFlash != u.flashBufs {
		return fmt.Errorf("flash buffers leaked: %d resident + %d free != %d", flash, u.freeFlash, u.flashBufs)
	}
	if dirty != u.dirties.len {
		return fmt.Errorf("dirty flags %d != dirty list %d", dirty, u.dirties.len)
	}
	return nil
}

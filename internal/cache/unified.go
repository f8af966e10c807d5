package cache

import "fmt"

// Unified is the paper's unified architecture cache (§3.3): RAM and flash
// buffers managed as a single LRU chain. A newly inserted block is "placed
// into the least recently used buffer, whether RAM or flash", inherits that
// buffer's medium, and never migrates. No attempt is made to prefer RAM over
// flash.
type Unified struct {
	base
	lru list

	ramBufs, flashBufs int  // total buffers per medium
	residentRAM        int  // resident entries backed by RAM
	allocFlipFlop      bool // tie-breaker for free-buffer allocation
}

// initUnified initialises a unified cache in place from a, with the
// given buffer counts.
func (u *Unified) initUnified(a *Arena, ramBufs, flashBufs int) {
	u.ramBufs, u.flashBufs = ramBufs, flashBufs
	u.init(a, ramBufs+flashBufs, RAM)
	u.lru.init(false)
}

// Get looks up key, promoting it to MRU on hit.
func (u *Unified) Get(key Key) *Entry {
	e := u.Peek(key)
	if e == nil {
		return nil
	}
	u.lru.remove(e)
	u.lru.pushFront(e)
	return e
}

// Victim returns the least recently used unpinned entry, or nil.
func (u *Unified) Victim() *Entry { return u.lru.lastUnpinned() }

// TryInsert returns key's entry: the resident one (inserted false), or,
// while a buffer is free, a new one at MRU (inserted true). It returns
// nil, false when key is absent and no buffer is free. A new entry takes
// its medium from whichever pool has proportionally more free buffers
// (alternating on ties), so the initial mix matches the configured ratio
// without preferring RAM. Once full, callers must first Remove a victim
// obtained from Victim; the freed buffer's medium is then inherited, which
// is exactly "placed into the least recently used buffer".
func (u *Unified) TryInsert(key Key) (e *Entry, inserted bool) {
	if e, inserted = u.admit(key); !inserted {
		return e, false
	}
	// The other resident entries hold every buffer not free.
	freeRAM := u.ramBufs - u.residentRAM
	freeFlash := u.flashBufs - (u.Len() - 1 - u.residentRAM)
	switch {
	case freeRAM == 0:
		e.medium = Flash
	case freeFlash == 0:
		e.medium = RAM
	default:
		fr := float64(freeRAM) / float64(u.ramBufs)
		ff := float64(freeFlash) / float64(u.flashBufs)
		switch {
		case fr > ff:
			e.medium = RAM
		case ff > fr:
			e.medium = Flash
		default:
			if u.allocFlipFlop {
				e.medium = RAM
			} else {
				e.medium = Flash
			}
			u.allocFlipFlop = !u.allocFlipFlop
		}
	}
	if e.medium == RAM {
		u.residentRAM++
	}
	u.lru.pushFront(e)
	return e, true
}

// Remove evicts e, returning its buffer to the free pool.
func (u *Unified) Remove(e *Entry) {
	if e.medium == RAM {
		u.residentRAM--
	}
	u.drop(e, &u.lru)
}

// CheckInvariants verifies internal consistency.
func (u *Unified) CheckInvariants() error {
	ram := 0
	err := u.checkLists(func(e *Entry, _ int) error {
		if e.medium == RAM {
			ram++
		}
		return nil
	}, &u.lru)
	if err != nil {
		return err
	}
	if ram != u.residentRAM {
		return fmt.Errorf("residentRAM %d, walked %d", u.residentRAM, ram)
	}
	if ram > u.ramBufs {
		return fmt.Errorf("%d blocks in %d RAM buffers", ram, u.ramBufs)
	}
	if flash := u.Len() - ram; flash > u.flashBufs {
		return fmt.Errorf("%d blocks in %d flash buffers", flash, u.flashBufs)
	}
	return nil
}

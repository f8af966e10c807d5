package cache

import "fmt"

// Segment tags for SLRU entries.
const (
	segProbation uint8 = iota
	segProtected
)

// slru is a segmented LRU: new blocks enter a probationary segment and are
// promoted to a protected segment on re-reference; victims come from
// probation first. Scan-resistant relative to plain LRU, which matters for
// a flash cache polluted by the workload's 20% whole-file-server traffic.
type slru struct {
	base
	protectedCap int
	probation    list
	protected    list
}

// newSLRU returns a segmented LRU with the protected segment sized to half
// the capacity.
func newSLRU(capacity int, m Medium) *slru {
	s := &slru{protectedCap: capacity / 2}
	s.init(capacity, m)
	s.probation.init(false)
	s.protected.init(false)
	return s
}

// Get looks up key, promoting probation hits into the protected segment.
func (s *slru) Get(key Key) *Entry {
	e := s.Peek(key)
	if e != nil {
		s.promote(e)
	}
	return e
}

// Touch promotes e as a hit would.
func (s *slru) Touch(e *Entry) { s.promote(e) }

func (s *slru) promote(e *Entry) {
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

// Victim returns the probationary LRU entry, falling back to the
// protected segment when probation is empty or fully pinned.
func (s *slru) Victim() *Entry {
	if e := s.probation.lastUnpinned(); e != nil {
		return e
	}
	return s.protected.lastUnpinned()
}

// TryInsert implements BlockCache, inserting at the probationary
// segment's MRU end.
func (s *slru) TryInsert(key Key) (e *Entry, inserted bool) {
	if e, inserted = s.admit(key); inserted {
		e.seg = segProbation
		s.probation.pushFront(e)
	}
	return e, inserted
}

// Remove evicts e.
func (s *slru) Remove(e *Entry) {
	if e.seg == segProtected {
		s.drop(e, &s.protected)
	} else {
		s.drop(e, &s.probation)
	}
}

// CheckInvariants implements BlockCache.
func (s *slru) CheckInvariants() error {
	segs := [...]uint8{segProbation, segProtected}
	err := s.checkLists(func(e *Entry, i int) error {
		if e.seg != segs[i] {
			return fmt.Errorf("entry %d on segment %d tagged %d", e.n.key, segs[i], e.seg)
		}
		return nil
	}, &s.probation, &s.protected)
	if err != nil {
		return err
	}
	if s.protected.len > s.protectedCap {
		return fmt.Errorf("protected %d over quota %d", s.protected.len, s.protectedCap)
	}
	return nil
}

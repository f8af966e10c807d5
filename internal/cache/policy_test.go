package cache

import (
	"testing"

	"repro/internal/rng"
)

func TestParseReplacement(t *testing.T) {
	for _, s := range []string{"lru", "fifo", "clock", "slru", "2q"} {
		k, err := ParseReplacement(s)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != s {
			t.Fatalf("round trip %q -> %q", s, k.String())
		}
		c, err := NewBlockCache(k, 8, Flash)
		if err != nil {
			t.Fatal(err)
		}
		if c.Capacity() != 8 {
			t.Fatal("capacity wrong")
		}
	}
	if k, err := ParseReplacement(""); err != nil || k != ReplaceLRU {
		t.Fatal("empty string should default to LRU")
	}
	if _, err := ParseReplacement("mru"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := NewBlockCache(ReplacementKind(99), 8, Flash); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if s := ReplacementKind(99).String(); s != "replacement(99)" {
		t.Fatalf("unknown kind prints %q", s)
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	f := newFIFO(3, Flash)
	f.Insert(1)
	f.Insert(2)
	f.Insert(3)
	for i := 0; i < 2; i++ { // would save 1 under LRU
		if f.Get(1) == nil {
			t.Fatal("FIFO missed a resident block")
		}
	}
	v := f.Victim()
	if v.Key() != 1 {
		t.Fatalf("FIFO victim = %d, want 1 (insertion order)", v.Key())
	}
}

func TestClockSecondChance(t *testing.T) {
	c := newClock(3, Flash)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	c.Get(1) // referenced
	v := c.Victim()
	// 1 is referenced; the hand clears its bit and picks the next
	// unreferenced entry, which is 2.
	if v.Key() != 2 {
		t.Fatalf("clock victim = %d, want 2", v.Key())
	}
	c.Remove(v)
	c.Insert(4)
	// Now 1's bit is clear; with no further references 1 or 3 is next.
	v = c.Victim()
	if v.Key() == 4 {
		t.Fatalf("clock victimised the newest entry")
	}
}

func TestClockAllReferenced(t *testing.T) {
	c := newClock(3, Flash)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	c.Get(1)
	c.Get(2)
	c.Get(3)
	if v := c.Victim(); v == nil {
		t.Fatal("clock found no victim after clearing bits")
	}
}

func TestClockPinnedRotation(t *testing.T) {
	c := newClock(2, Flash)
	e1 := c.Insert(1)
	c.Insert(2)
	e1.Pinned = true
	v := c.Victim()
	if v == nil || v.Key() != 2 {
		t.Fatalf("clock victim = %v, want 2 (1 pinned)", v)
	}
	e2 := c.Peek(2)
	e2.Pinned = true
	if v := c.Victim(); v != nil {
		t.Fatal("all pinned should yield no victim")
	}
}

func TestSLRUPromotion(t *testing.T) {
	s := newSLRU(4, Flash) // protected cap 2
	mustInsert(t, s, 1)
	mustInsert(t, s, 2)
	mustInsert(t, s, 3)
	mustInsert(t, s, 4)
	if s.protected.len != 0 {
		t.Fatal("inserts should land in probation")
	}
	s.Get(1)
	s.Get(2)
	if s.protected.len != 2 {
		t.Fatalf("protected len = %d, want 2", s.protected.len)
	}
	// Victim comes from probation: 3 is its LRU end.
	if v := s.Victim(); v.Key() != 3 {
		t.Fatalf("victim = %d, want 3", v.Key())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSLRUProtectedQuotaDemotion(t *testing.T) {
	s := newSLRU(4, Flash) // protected cap 2
	for k := Key(1); k <= 4; k++ {
		mustInsert(t, s, k)
	}
	s.Get(1)
	s.Get(2)
	s.Get(3) // promoting 3 must demote 1 (protected LRU) to probation
	if s.protected.len != 2 {
		t.Fatalf("protected len = %d, want 2", s.protected.len)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// 1 is now probation MRU; 4 is probation LRU.
	if v := s.Victim(); v.Key() != 4 {
		t.Fatalf("victim = %d, want 4", v.Key())
	}
}

func TestSLRUScanResistance(t *testing.T) {
	// A hot set that has been promoted survives a one-shot scan that
	// would flush plain LRU.
	s := newSLRU(8, Flash)
	for k := Key(1); k <= 4; k++ {
		mustInsert(t, s, k)
		s.Get(k) // promote to protected
	}
	for k := Key(100); k < 120; k++ {
		for s.NeedsEviction() {
			s.Remove(s.Victim())
		}
		mustInsert(t, s, k)
	}
	survivors := 0
	for k := Key(1); k <= 4; k++ {
		if s.Peek(k) != nil {
			survivors++
		}
	}
	if survivors < 3 {
		t.Fatalf("only %d/4 hot blocks survived the scan", survivors)
	}
}

func TestSLRUVictimFallsBackToProtected(t *testing.T) {
	s := newSLRU(2, Flash) // protected cap 1
	mustInsert(t, s, 1)
	s.Get(1) // protected
	mustInsert(t, s, 2)
	e2 := s.Peek(2)
	e2.Pinned = true
	v := s.Victim()
	if v == nil || v.Key() != 1 {
		t.Fatalf("victim = %v, want protected fallback to 1", v)
	}
}

func TestTwoQFirstTouchGoesToA1in(t *testing.T) {
	q := newTwoQ(8, Flash) // a1in cap 2, ghost cap 4
	mustInsert(t, q, 1)
	if q.a1in.len != 1 {
		t.Fatal("first touch not in A1in")
	}
	q.Get(1) // correlated reference: stays in A1in
	if q.a1in.len != 1 {
		t.Fatal("A1in hit should not migrate")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoQGhostPromotion(t *testing.T) {
	q := newTwoQ(8, Flash)
	mustInsert(t, q, 1)
	e := q.Peek(1)
	q.Remove(e) // A1in eviction -> ghost
	if q.ghost.len != 1 {
		t.Fatal("eviction not remembered in ghost queue")
	}
	mustInsert(t, q, 1) // remembered: goes to Am
	if q.a1in.len != 0 {
		t.Fatal("ghosted reinsert went to A1in")
	}
	if q.ghost.len != 0 {
		t.Fatal("ghost entry not consumed")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoQScanResistance(t *testing.T) {
	q := newTwoQ(8, Flash)
	// Build a hot set in Am via ghost promotion.
	for k := Key(1); k <= 4; k++ {
		mustInsert(t, q, k)
		q.Remove(q.Peek(k))
		mustInsert(t, q, k) // now in Am
	}
	// One-shot scan of 40 cold blocks.
	for k := Key(100); k < 140; k++ {
		for q.NeedsEviction() {
			q.Remove(q.Victim())
		}
		mustInsert(t, q, k)
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	survivors := 0
	for k := Key(1); k <= 4; k++ {
		if e := q.Peek(k); e != nil && e.seg == segAm {
			survivors++
		}
	}
	if survivors < 3 {
		t.Fatalf("only %d/4 Am blocks survived the scan", survivors)
	}
}

func TestTwoQGhostCapBounded(t *testing.T) {
	q := newTwoQ(8, Flash) // ghost cap 4
	for k := Key(0); k < 20; k++ {
		if q.NeedsEviction() {
			q.Remove(q.Victim())
		}
		mustInsert(t, q, k)
	}
	if q.ghost.len > 4 {
		t.Fatalf("ghost %d over cap", q.ghost.len)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllPoliciesRandomOps drives every policy through a random workload
// and validates invariants and the BlockCache contract.
func TestAllPoliciesRandomOps(t *testing.T) {
	kinds := []ReplacementKind{ReplaceLRU, ReplaceFIFO, ReplaceClock, ReplaceSLRU, Replace2Q}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c, err := NewBlockCache(kind, 16, Flash)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(uint64(kind) + 100)
			for i := 0; i < 20000; i++ {
				k := Key(r.Intn(64))
				switch r.Intn(5) {
				case 0:
					c.Get(k)
				case 1:
					if c.Peek(k) == nil {
						for c.NeedsEviction() {
							v := c.Victim()
							if v == nil {
								break
							}
							c.Remove(v)
						}
						if !c.NeedsEviction() {
							mustInsert(t, c, k)
						}
					}
				case 2:
					if e := c.Peek(k); e != nil {
						c.MarkDirty(e)
					}
				case 3:
					if e := c.Peek(k); e != nil {
						c.MarkClean(e)
					}
				case 4:
					if e := c.Peek(k); e != nil {
						c.Touch(e)
					}
				}
				if i%1000 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					if c.Len() > c.Capacity() {
						t.Fatalf("step %d: over capacity", i)
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			dirty := c.AppendDirty(nil)
			if len(dirty) != c.DirtyLen() {
				t.Fatalf("AppendDirty %d != DirtyLen %d", len(dirty), c.DirtyLen())
			}
		})
	}
}

// TestPolicyHitRateOrdering checks a coarse quality property on a skewed
// workload: recency-aware policies beat FIFO.
func TestPolicyHitRateOrdering(t *testing.T) {
	hitRate := func(kind ReplacementKind) float64 {
		c, err := NewBlockCache(kind, 64, Flash)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(42)
		const reads = 50000
		hits := 0
		for i := 0; i < reads; i++ {
			// Low keys are hot: key j has probability (H(512)-H(j))/512,
			// about ln(512/j)/512.
			k := Key(r.Intn(1 + r.Intn(512)))
			if c.Get(k) != nil {
				hits++
				continue
			}
			for c.NeedsEviction() {
				v := c.Victim()
				if v == nil {
					break
				}
				c.Remove(v)
			}
			if !c.NeedsEviction() {
				mustInsert(t, c, k)
			}
		}
		return float64(hits) / reads
	}
	lru := hitRate(ReplaceLRU)
	fifo := hitRate(ReplaceFIFO)
	clock := hitRate(ReplaceClock)
	if lru <= fifo-0.02 {
		t.Fatalf("LRU (%.3f) should not trail FIFO (%.3f)", lru, fifo)
	}
	if clock <= fifo-0.02 {
		t.Fatalf("CLOCK (%.3f) should not trail FIFO (%.3f)", clock, fifo)
	}
}

// TestClockEmptyAndAllPinned: the hand finds no victim in an empty ring
// or in a ring whose every entry is pinned.
func TestClockEmptyAndAllPinned(t *testing.T) {
	c := newClock(2, Flash)
	if v := c.Victim(); v != nil {
		t.Fatalf("empty clock victim = %v, want none", v)
	}
	c.Insert(1).Pinned = true
	c.Insert(2).Pinned = true
	c.Get(1)
	if v := c.Victim(); v != nil {
		t.Fatalf("all-pinned clock victim = %v, want none", v)
	}
}

// TestSLRURemoveProtected: removing a protected entry takes it off the
// protected segment, not probation.
func TestSLRURemoveProtected(t *testing.T) {
	s := newSLRU(4, Flash) // protected cap 2
	mustInsert(t, s, 1)
	mustInsert(t, s, 2)
	s.Get(1)
	s.Remove(s.Peek(1))
	if s.protected.len != 0 || s.probation.len != 1 || s.Peek(1) != nil {
		t.Fatalf("protected %d, probation %d after removing the protected entry", s.protected.len, s.probation.len)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSLRUZeroProtectedQuota: a one-block SLRU has no protected segment;
// a hit keeps the entry in probation.
func TestSLRUZeroProtectedQuota(t *testing.T) {
	s := newSLRU(1, Flash) // protected cap 0
	mustInsert(t, s, 1)
	s.Get(1)
	if s.protected.len != 0 || s.probation.len != 1 {
		t.Fatalf("protected %d, probation %d, want 0 and 1", s.protected.len, s.probation.len)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoQTinyCapacity: below four blocks A1in still holds one block, and
// with no room for a ghost queue an A1in eviction is forgotten.
func TestTwoQTinyCapacity(t *testing.T) {
	q := newTwoQ(1, Flash)
	if q.a1inCap != 1 || q.ghostCap != 0 {
		t.Fatalf("a1in cap %d, ghost cap %d, want 1 and 0", q.a1inCap, q.ghostCap)
	}
	mustInsert(t, q, 1)
	q.Remove(q.Victim())
	if q.ghost.len != 0 {
		t.Fatalf("ghost holds %d keys with no capacity", q.ghost.len)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoQVictimFallsBackToSecondQueue: when the preferred queue is
// fully pinned, the victim comes from the other one.
func TestTwoQVictimFallsBackToSecondQueue(t *testing.T) {
	q := newTwoQ(8, Flash) // a1in cap 2
	mustInsert(t, q, 1)
	q.Remove(q.Peek(1)) // 1 remembered in the ghost queue
	mustInsert(t, q, 1) // ghost hit: into Am
	mustInsert(t, q, 2) // A1in, within quota: Am is preferred
	q.Peek(1).Pinned = true
	if v := q.Victim(); v == nil || v.Key() != 2 {
		t.Fatalf("victim = %v, want A1in's 2 behind a pinned Am", v)
	}
}

package cache

import "testing"

// slabCache is the slice of the cache API the slab and churn tests drive;
// every BlockCache and Unified provide it.
type slabCache interface {
	Capacity() int
	Len() int
	NeedsEviction() bool
	Victim() *Entry
	TryInsert(key Key) (*Entry, bool)
	Remove(e *Entry)
	CheckInvariants() error
}

// mustInsert adds key through TryInsert and fails the test unless key was
// absent and c had room.
func mustInsert(t testing.TB, c interface{ TryInsert(Key) (*Entry, bool) }, key Key) *Entry {
	t.Helper()
	e, inserted := c.TryInsert(key)
	if !inserted {
		t.Fatalf("TryInsert(%d) did not insert", key)
	}
	return e
}

// slabsToFill is the number of slabs a pool carves to fill capacity
// entries: sizes double from entrySlabMin up to entrySlabMax, the last one
// clamped to what is left.
func slabsToFill(capacity int) int {
	slabs := 0
	for left, n := capacity, entrySlabMin; left > 0; n = min(2*n, entrySlabMax) {
		left -= min(n, left)
		slabs++
	}
	return slabs
}

// TestEntrySlabsBoundedByCapacity fills, churns, empties and refills every
// policy's cache and checks the entry pool's slab carving: a pool never
// carves more entries than its cache holds, a fill to capacity costs at
// most one allocation per slab of the doubling sequence, and recycled
// entries still bump their reuse generation.
func TestEntrySlabsBoundedByCapacity(t *testing.T) {
	const capacity = 200 // slabs of 64 and 128, and a clamped 8
	cases := []struct {
		name string
		make func(capacity int) (slabCache, *entryPool)
	}{
		{"lru", func(n int) (slabCache, *entryPool) { c := NewLRU(n, Flash); return c, &c.pool }},
		{"fifo", func(n int) (slabCache, *entryPool) { c := newFIFO(n, Flash); return c, &c.pool }},
		{"clock", func(n int) (slabCache, *entryPool) { c := newClock(n, Flash); return c, &c.pool }},
		{"slru", func(n int) (slabCache, *entryPool) { c := newSLRU(n, Flash); return c, &c.pool }},
		{"2q", func(n int) (slabCache, *entryPool) { c := newTwoQ(n, Flash); return c, &c.pool }},
		{"unified", func(n int) (slabCache, *entryPool) { c := newUnified(n/4, n-n/4); return c, &c.pool }},
	}
	fill := func(t *testing.T, c slabCache, from Key) {
		for k := from; c.Len() < c.Capacity(); k++ {
			mustInsert(t, c, k)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, pool := tc.make(capacity)
			carved := func() int { return c.Capacity() - pool.budget }
			check := func(phase string) {
				t.Helper()
				if n := carved(); n < 0 || n > c.Capacity() {
					t.Fatalf("%s: %d entries carved for capacity %d", phase, n, c.Capacity())
				}
			}

			fill(t, c, 0)
			check("fill")
			if carved() != capacity {
				t.Fatalf("fill carved %d entries, want %d", carved(), capacity)
			}
			// Churn: every insert recycles the victim's entry.
			for k := Key(capacity); k < 4*capacity; k++ {
				if c.NeedsEviction() {
					c.Remove(c.Victim())
				}
				mustInsert(t, c, k)
			}
			check("churn")

			gens := make(map[*Entry]uint64, capacity)
			for c.Len() > 0 {
				e := c.Victim()
				gens[e] = e.Gen()
				c.Remove(e)
			}
			check("empty")
			fill(t, c, 10*capacity)
			check("refill")
			for e, g := range gens {
				if e.Gen() <= g {
					t.Fatalf("recycled entry %d kept generation %d", e.Key(), e.Gen())
				}
			}

			// A fresh fill costs one allocation per slab after the
			// first, which the arena carves with the cache. 5000
			// entries take slabs of 64 up to 1024, then two more of
			// 1024 and a clamped 968.
			for _, n := range []int{capacity, 5000} {
				build := testing.AllocsPerRun(20, func() { tc.make(n) })
				built := testing.AllocsPerRun(20, func() {
					c, _ := tc.make(n)
					fill(t, c, 0)
				})
				slabs := float64(slabsToFill(n) - 1)
				if got := built - build; got > slabs {
					t.Errorf("fill to capacity %d made %v entry allocations, want <= %v", n, got, slabs)
				}
			}
			// Carved entries not yet handed out stay under one
			// capped slab at every step of a large fill.
			big, bigPool := tc.make(5000)
			for k := Key(0); big.Len() < big.Capacity(); k++ {
				mustInsert(t, big, k)
				if len(bigPool.slab) >= entrySlabMax {
					t.Fatalf("%d entries carved ahead of use at %d resident", len(bigPool.slab), big.Len())
				}
			}
		})
	}
}

// policyConstructors builds each policy's cache at a given capacity.
var policyConstructors = []struct {
	name string
	make func(capacity int) slabCache
}{
	{"lru", func(n int) slabCache { return NewLRU(n, Flash) }},
	{"fifo", func(n int) slabCache { return newFIFO(n, Flash) }},
	{"clock", func(n int) slabCache { return newClock(n, Flash) }},
	{"slru", func(n int) slabCache { return newSLRU(n, Flash) }},
	{"2q", func(n int) slabCache { return newTwoQ(n, Flash) }},
	{"unified", func(n int) slabCache { return newUnified(n/4, n-n/4) }},
}

// TestConstructorAllocationsIndependentOfCapacity locks the index's one
// allocation per table: building a cache costs as many allocations at
// capacity 1<<16 as at 16.
func TestConstructorAllocationsIndependentOfCapacity(t *testing.T) {
	for _, tc := range policyConstructors {
		small := testing.AllocsPerRun(10, func() { tc.make(16) })
		large := testing.AllocsPerRun(10, func() { tc.make(1 << 16) })
		if small != large {
			t.Errorf("%s: %v allocations at capacity 16, %v at 1<<16", tc.name, small, large)
		}
	}
}

// TestFullCacheChurnAllocationFree locks the steady state of every policy:
// once a cache is full and its pools (2Q's ghost queue included) are warm,
// evicting and inserting allocates nothing. Keys cycle over 5/4 of the
// capacity, so a key comes back soon after its eviction and 2Q keeps
// re-admitting ghosts.
func TestFullCacheChurnAllocationFree(t *testing.T) {
	const capacity, span = 512, 640
	for _, tc := range policyConstructors {
		c := tc.make(capacity)
		k := Key(0)
		step := func() {
			if c.NeedsEviction() {
				c.Remove(c.Victim())
			}
			if e, _ := c.TryInsert(k % span); e == nil {
				t.Fatalf("%s: TryInsert(%d) into a cache with room returned nil", tc.name, k%span)
			}
			k++
		}
		for i := 0; i < 8*capacity; i++ {
			step()
		}
		if q, ok := c.(*twoQ); ok && (q.ghost.len == 0 || q.am.len == 0) {
			t.Fatalf("2q: ghost %d, Am %d: the churn does not exercise the ghost queue", q.ghost.len, q.am.len)
		}
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 20*capacity; i++ {
				step()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations over %d churn steps, want 0", tc.name, allocs, 20*capacity)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

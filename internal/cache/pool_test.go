package cache

import "testing"

// slabCache is the slice of the cache API the slab test drives; every
// BlockCache and Unified provide it.
type slabCache interface {
	Capacity() int
	Len() int
	NeedsEviction() bool
	Victim() *Entry
	Insert(key Key) *Entry
	Remove(e *Entry)
}

// TestEntrySlabsBoundedByCapacity fills, churns, empties and refills every
// policy's cache and checks the entry pool's slab carving: a pool never
// carves more entries than its cache holds, a fill to capacity costs at
// most one allocation per entrySlab entries, and recycled entries still
// bump their reuse generation.
func TestEntrySlabsBoundedByCapacity(t *testing.T) {
	const capacity = 200 // three full slabs and a clamped fourth
	cases := []struct {
		name string
		make func() (slabCache, *entryPool)
	}{
		{"lru", func() (slabCache, *entryPool) { c := NewLRU(capacity, Flash); return c, &c.pool }},
		{"fifo", func() (slabCache, *entryPool) { c := NewFIFO(capacity, Flash); return c, &c.pool }},
		{"clock", func() (slabCache, *entryPool) { c := NewClock(capacity, Flash); return c, &c.pool }},
		{"slru", func() (slabCache, *entryPool) { c := NewSLRU(capacity, Flash); return c, &c.pool }},
		{"2q", func() (slabCache, *entryPool) { c := NewTwoQ(capacity, Flash); return c, &c.pool }},
		{"unified", func() (slabCache, *entryPool) { c := NewUnified(capacity/4, capacity-capacity/4); return c, &c.pool }},
	}
	fill := func(c slabCache, from Key) {
		for k := from; c.Len() < c.Capacity(); k++ {
			c.Insert(k)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, pool := tc.make()
			carved := func() int { return c.Capacity() - pool.budget }
			check := func(phase string) {
				t.Helper()
				if n := carved(); n < 0 || n > c.Capacity() {
					t.Fatalf("%s: %d entries carved for capacity %d", phase, n, c.Capacity())
				}
			}

			fill(c, 0)
			check("fill")
			if carved() != capacity {
				t.Fatalf("fill carved %d entries, want %d", carved(), capacity)
			}
			// Churn: every insert recycles the victim's entry.
			for k := Key(capacity); k < 4*capacity; k++ {
				if c.NeedsEviction() {
					c.Remove(c.Victim())
				}
				c.Insert(k)
			}
			check("churn")

			gens := make(map[*Entry]uint64, capacity)
			for c.Len() > 0 {
				e := c.Victim()
				gens[e] = e.Gen()
				c.Remove(e)
			}
			check("empty")
			fill(c, 10*capacity)
			check("refill")
			for e, g := range gens {
				if e.Gen() <= g {
					t.Fatalf("recycled entry %d kept generation %d", e.Key(), e.Gen())
				}
			}

			// A fresh fill costs one allocation per slab, beyond the
			// cache's own construction.
			build := testing.AllocsPerRun(20, func() { tc.make() })
			built := testing.AllocsPerRun(20, func() {
				c, _ := tc.make()
				fill(c, 0)
			})
			slabs := float64((capacity + entrySlab - 1) / entrySlab)
			if got := built - build; got > slabs {
				t.Errorf("fill to capacity %d made %v entry allocations, want <= %v", capacity, got, slabs)
			}
		})
	}
}

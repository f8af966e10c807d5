package cache

import (
	"runtime/debug"
	"strings"
	"testing"
)

// newBlockCache builds one cache of the given kind through an arena of
// its own, as the tests' stand-in for a per-cache constructor.
func newBlockCache(kind ReplacementKind, capacity int, m Medium) BlockCache {
	var a Arena
	a.Reserve(kind, capacity)
	return a.BlockCache(kind, capacity, m)
}

func newFIFO(capacity int, m Medium) *fifo {
	return newBlockCache(ReplaceFIFO, capacity, m).(*fifo)
}

func newClock(capacity int, m Medium) *clock {
	return newBlockCache(ReplaceClock, capacity, m).(*clock)
}

func newSLRU(capacity int, m Medium) *slru {
	return newBlockCache(ReplaceSLRU, capacity, m).(*slru)
}

func newTwoQ(capacity int, m Medium) *twoQ {
	return newBlockCache(Replace2Q, capacity, m).(*twoQ)
}

func newUnified(ramBufs, flashBufs int) *Unified {
	var a Arena
	a.ReserveUnified(ramBufs, flashBufs)
	return a.Unified(ramBufs, flashBufs)
}

// arenaKinds lists every cache an arena builds: the five replacement
// kinds and, as the sixth, the unified cache.
var arenaKinds = []string{"lru", "fifo", "clock", "slru", "2q", "unified"}

// buildArena reserves and builds n caches of kind (an arenaKinds entry,
// "mixed" cycling through all of them) with capacities cycling through
// 0..199, so tables and first slabs of every size share the arrays.
func buildArena(kind string, n int) []slabCache {
	capacity := func(i int) int { return i % 200 }
	kindOf := func(i int) string {
		if kind == "mixed" {
			return arenaKinds[i%len(arenaKinds)]
		}
		return kind
	}
	var a Arena
	for i := 0; i < n; i++ {
		if k := kindOf(i); k == "unified" {
			a.ReserveUnified(capacity(i)/4, capacity(i)-capacity(i)/4)
		} else {
			rk, _ := ParseReplacement(k)
			a.Reserve(rk, capacity(i))
		}
	}
	caches := make([]slabCache, n)
	for i := range caches {
		if k := kindOf(i); k == "unified" {
			caches[i] = a.Unified(capacity(i)/4, capacity(i)-capacity(i)/4)
		} else {
			rk, _ := ParseReplacement(k)
			caches[i] = a.BlockCache(rk, capacity(i), Flash)
		}
	}
	return caches
}

// TestArenaBuildAllocationsFlatInCaches locks the arena's exact sizing
// for every policy and the unified cache: building 1,024 caches through
// one arena costs the same allocations as building 16, and the first
// insert into each cache allocates nothing, its first entry slab having
// been carved with the cache.
func TestArenaBuildAllocationsFlatInCaches(t *testing.T) {
	// No collection runs inside a measurement, so the collector's own
	// allocations do not count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, kind := range append(arenaKinds, "mixed") {
		t.Run(kind, func(t *testing.T) {
			// The caches slice itself is one allocation at every n.
			small := testing.AllocsPerRun(5, func() { buildArena(kind, 16) })
			large := testing.AllocsPerRun(5, func() { buildArena(kind, 1024) })
			if small != large {
				t.Errorf("%v allocations for 16 caches, %v for 1024", small, large)
			}
			caches := buildArena(kind, 1024)
			first := testing.AllocsPerRun(1, func() {
				for _, c := range caches {
					c.TryInsert(0)
				}
			})
			if first != 0 {
				t.Errorf("first inserts into 1024 caches made %v allocations, want 0", first)
			}
			for i, c := range caches {
				if want := min(c.Capacity(), 1); c.Len() != want {
					t.Fatalf("cache %d holds %d blocks after one insert, want %d", i, c.Len(), want)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("cache %d: %v", i, err)
				}
			}
		})
	}
}

// TestArenaMisuse checks the arena's bug checks: a build beyond what was
// reserved, a reservation after the first build, an unknown kind and a
// negative size all panic.
func TestArenaMisuse(t *testing.T) {
	cases := []struct {
		name, want string
		f          func()
	}{
		{"overbuild", "more than it reserved", func() {
			var a Arena
			a.Reserve(ReplaceLRU, 4)
			a.LRU(4, RAM)
			a.LRU(4, RAM)
		}},
		{"late reserve", "after its first build", func() {
			var a Arena
			a.Reserve(ReplaceLRU, 4)
			a.LRU(4, RAM)
			a.Reserve(ReplaceLRU, 4)
		}},
		{"late reserve unified", "after its first build", func() {
			var a Arena
			a.ReserveUnified(1, 1)
			a.Unified(1, 1)
			a.ReserveUnified(1, 1)
		}},
		{"unknown reserve", "unknown replacement kind replacement(99)", func() {
			var a Arena
			a.Reserve(ReplacementKind(99), 4)
		}},
		{"unknown build", "unknown replacement kind replacement(99)", func() {
			var a Arena
			a.Reserve(ReplaceLRU, 4)
			a.BlockCache(ReplacementKind(99), 4, Flash)
		}},
		{"negative capacity", "negative capacity", func() {
			var a Arena
			a.Reserve(ReplaceLRU, -1)
		}},
		{"negative buffers", "negative buffer count", func() {
			var a Arena
			a.ReserveUnified(-1, 4)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one containing %q", msg, tc.want)
				}
			}()
			tc.f()
		})
	}
}

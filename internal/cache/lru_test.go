package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestLRUBasicHitMiss(t *testing.T) {
	c := NewLRU(2, RAM)
	if c.Get(1) != nil {
		t.Fatal("hit on empty cache")
	}
	c.Insert(1)
	if e := c.Get(1); e == nil || e.Key() != 1 {
		t.Fatal("miss after insert")
	}
	if c.Peek(1).Medium() != RAM {
		t.Fatal("entry not on the cache's medium")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(3, Flash)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	c.Get(1) // 1 now MRU; LRU order: 2, 3, 1
	if !c.NeedsEviction() {
		t.Fatal("full cache should need eviction")
	}
	v := c.Victim()
	if v.Key() != 2 {
		t.Fatalf("victim = %d, want 2", v.Key())
	}
	c.Remove(v)
	c.Insert(4)
	if c.Peek(2) != nil {
		t.Fatal("2 still present")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d after one eviction and one insert, want 3", c.Len())
	}
}

func TestLRUPinnedSkipped(t *testing.T) {
	c := NewLRU(2, RAM)
	e1 := c.Insert(1)
	c.Insert(2)
	e1.Pinned = true
	v := c.Victim()
	if v == nil || v.Key() != 2 {
		t.Fatalf("victim should skip pinned entry, got %v", v)
	}
	e1.Pinned = false
	c.Get(2)
	if v := c.Victim(); v.Key() != 1 {
		t.Fatalf("victim = %d, want 1", v.Key())
	}
}

func TestLRUAllPinned(t *testing.T) {
	c := NewLRU(1, RAM)
	e := c.Insert(1)
	e.Pinned = true
	if c.Victim() != nil {
		t.Fatal("victim found with all entries pinned")
	}
}

func TestLRUDirtyTracking(t *testing.T) {
	c := NewLRU(4, Flash)
	e1 := c.Insert(1)
	e2 := c.Insert(2)
	c.Insert(3)
	c.MarkDirty(e1)
	c.MarkDirty(e2)
	if c.DirtyLen() != 2 {
		t.Fatalf("dirty len = %d", c.DirtyLen())
	}
	if od := c.AppendDirty(nil)[0]; od != e1 {
		t.Fatalf("oldest dirty = %v, want entry 1", od.Key())
	}
	c.MarkClean(e1)
	if c.DirtyLen() != 1 || c.AppendDirty(nil)[0] != e2 {
		t.Fatal("dirty list wrong after clean")
	}
	// Re-marking dirty should not duplicate.
	c.MarkDirty(e2)
	c.MarkDirty(e2)
	if c.DirtyLen() != 1 {
		t.Fatalf("duplicate dirty entries: %d", c.DirtyLen())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRURemoveClearsDirty(t *testing.T) {
	c := NewLRU(2, Flash)
	e := c.Insert(1)
	c.MarkDirty(e)
	c.Remove(e)
	if c.DirtyLen() != 0 {
		t.Fatal("dirty len not zero after removing dirty entry")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUAppendDirtyOrder(t *testing.T) {
	c := NewLRU(5, Flash)
	var marked []Key
	for k := Key(1); k <= 4; k++ {
		e := c.Insert(k)
		c.MarkDirty(e)
		marked = append(marked, k)
	}
	got := c.AppendDirty(nil)
	if len(got) != 4 {
		t.Fatalf("dirty count = %d", len(got))
	}
	for i, e := range got {
		if e.Key() != marked[i] {
			t.Fatalf("dirty order: got %d at %d, want %d", e.Key(), i, marked[i])
		}
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU(0, RAM)
	if e := c.Insert(1); e != nil {
		t.Fatal("zero-capacity insert returned entry")
	}
	if c.Get(1) != nil {
		t.Fatal("zero-capacity hit")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUDuplicateInsertPanics(t *testing.T) {
	c := NewLRU(2, RAM)
	c.Insert(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	c.Insert(1)
}

func TestLRUInsertFullPanics(t *testing.T) {
	c := NewLRU(1, RAM)
	c.Insert(1)
	defer func() {
		if recover() == nil {
			t.Fatal("insert into full cache did not panic")
		}
	}()
	c.Insert(2)
}

func TestLRUKeysMRUFirst(t *testing.T) {
	c := NewLRU(3, RAM)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	c.Get(1)
	var keys []Key
	for e := c.lru.sentinel.next; e != &c.lru.sentinel; e = e.next {
		keys = append(keys, e.Key())
	}
	want := []Key{1, 3, 2}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

// opSeq drives an LRU with a random operation sequence and checks
// invariants plus a model map.
func TestLRURandomOpsAgainstModel(t *testing.T) {
	r := rng.New(99)
	c := NewLRU(16, Flash)
	model := map[Key]bool{} // key -> dirty
	for i := 0; i < 20000; i++ {
		k := Key(r.Intn(64))
		switch r.Intn(4) {
		case 0: // lookup
			e := c.Get(k)
			if (e != nil) != model[k] && e == nil {
				_, inModel := model[k]
				if inModel {
					t.Fatalf("step %d: model has %d but cache missed", i, k)
				}
			}
		case 1: // insert if absent
			if c.Peek(k) == nil {
				for c.NeedsEviction() {
					v := c.Victim()
					delete(model, v.Key())
					c.Remove(v)
				}
				c.Insert(k)
				model[k] = false
			}
		case 2: // dirty it if present
			if e := c.Peek(k); e != nil {
				c.MarkDirty(e)
				model[k] = true
			}
		case 3: // clean it if present
			if e := c.Peek(k); e != nil {
				c.MarkClean(e)
				model[k] = false
			}
		}
		if i%500 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Cross-check residency and dirty state with the model.
	if len(model) != c.Len() {
		t.Fatalf("model has %d entries, cache %d", len(model), c.Len())
	}
	dirtyCount := 0
	for k, dirty := range model {
		e := c.Peek(k)
		if e == nil {
			t.Fatalf("model key %d missing from cache", k)
		}
		if e.Dirty != dirty {
			t.Fatalf("key %d dirty=%v, model %v", k, e.Dirty, dirty)
		}
		if dirty {
			dirtyCount++
		}
	}
	if dirtyCount != c.DirtyLen() {
		t.Fatalf("dirty count %d != cache %d", dirtyCount, c.DirtyLen())
	}
}

func TestLRUPropertyNeverExceedsCapacity(t *testing.T) {
	f := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewLRU(capacity, RAM)
		for _, kr := range keys {
			k := Key(kr)
			if c.Peek(k) != nil {
				c.Get(k)
				continue
			}
			if c.NeedsEviction() {
				c.Remove(c.Victim())
			}
			c.Insert(k)
		}
		return c.Len() <= capacity && c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMediumString(t *testing.T) {
	if RAM.String() != "ram" || Flash.String() != "flash" {
		t.Fatal("medium names wrong")
	}
	if Medium(9).String() == "" {
		t.Fatal("unknown medium should still format")
	}
}

func BenchmarkLRUGetHit(b *testing.B) {
	c := NewLRU(1024, RAM)
	for k := Key(0); k < 1024; k++ {
		c.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(Key(i & 1023))
	}
}

func BenchmarkLRUInsertEvict(b *testing.B) {
	c := NewLRU(1024, Flash)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := Key(i)
		if c.NeedsEviction() {
			c.Remove(c.Victim())
		}
		c.Insert(k)
	}
}

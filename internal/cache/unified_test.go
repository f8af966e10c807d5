package cache

import (
	"testing"

	"repro/internal/rng"
)

func fillUnified(t testing.TB, u *Unified, n int) {
	for k := Key(0); k < Key(n); k++ {
		if u.NeedsEviction() {
			u.Remove(u.Victim())
		}
		mustInsert(t, u, k)
	}
}

func TestUnifiedAllocationMix(t *testing.T) {
	// 8 RAM + 64 flash buffers: after filling, the resident RAM fraction
	// must be exactly 8/72 because every buffer gets used.
	u := newUnified(8, 64)
	fillUnified(t, u, 72)
	if u.Len() != 72 {
		t.Fatalf("len = %d", u.Len())
	}
	if u.residentRAM != 8 {
		t.Fatalf("residentRAM = %d, want 8", u.residentRAM)
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedProportionalFill(t *testing.T) {
	// While filling, the mix should roughly track the configured ratio
	// rather than exhausting one pool first.
	u := newUnified(10, 90)
	fillUnified(t, u, 50)
	if u.residentRAM < 3 || u.residentRAM > 7 {
		t.Fatalf("after half fill residentRAM = %d, want ~5", u.residentRAM)
	}
}

func TestUnifiedVictimMediumInherited(t *testing.T) {
	u := newUnified(1, 1)
	fillUnified(t, u, 2)
	v := u.Victim()
	vm := v.Medium()
	u.Remove(v)
	e := mustInsert(t, u, 100)
	if e.Medium() != vm {
		t.Fatalf("new entry medium %v, want inherited %v", e.Medium(), vm)
	}
}

func TestUnifiedNoMigration(t *testing.T) {
	u := newUnified(2, 2)
	fillUnified(t, u, 4)
	for k := Key(0); k < 4; k++ {
		before := u.Peek(k).Medium()
		u.Get(k) // promote
		if u.Peek(k).Medium() != before {
			t.Fatal("medium changed on promotion")
		}
	}
}

func TestUnifiedHitsByMedium(t *testing.T) {
	u := newUnified(1, 1)
	fillUnified(t, u, 2)
	var ramKey, flashKey Key = 0, 1
	if u.Peek(0).Medium() != RAM {
		ramKey, flashKey = 1, 0
	}
	// A hit reports the medium of the buffer it hit, which is how the
	// host splits unified hits between RAM and flash.
	hits := map[Medium]int{}
	for _, k := range []Key{ramKey, flashKey, flashKey} {
		hits[u.Get(k).Medium()]++
	}
	if hits[RAM] != 1 || hits[Flash] != 2 {
		t.Fatalf("hits by medium = %d/%d, want 1/2", hits[RAM], hits[Flash])
	}
}

func TestUnifiedDirty(t *testing.T) {
	u := newUnified(2, 2)
	e := mustInsert(t, u, 1)
	u.MarkDirty(e)
	if u.DirtyLen() != 1 {
		t.Fatal("dirty len wrong")
	}
	u.MarkClean(e)
	if u.DirtyLen() != 0 {
		t.Fatal("dirty len after clean wrong")
	}
	u.MarkDirty(e)
	u.Remove(e)
	if u.DirtyLen() != 0 {
		t.Fatal("remove did not clear dirty")
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedAppendDirtyOldestFirst(t *testing.T) {
	u := newUnified(4, 4)
	var order []Key
	for k := Key(0); k < 4; k++ {
		e := mustInsert(t, u, k)
		u.MarkDirty(e)
		order = append(order, k)
	}
	got := u.AppendDirty(nil)
	for i, e := range got {
		if e.Key() != order[i] {
			t.Fatalf("dirty order wrong: %v", got)
		}
	}
}

func TestUnifiedEvictionLRUOrder(t *testing.T) {
	u := newUnified(1, 2)
	fillUnified(t, u, 3)
	u.Get(0)
	v := u.Victim()
	if v.Key() != 1 {
		t.Fatalf("victim = %d, want 1", v.Key())
	}
}

func TestUnifiedPinnedSkipped(t *testing.T) {
	u := newUnified(1, 1)
	e0 := mustInsert(t, u, 0)
	mustInsert(t, u, 1)
	e0.Pinned = true
	u.Get(1) // 0 would be LRU but is pinned... promote 1 so 0 is LRU
	if v := u.Victim(); v == nil || v.Key() != 1 {
		t.Fatalf("victim should skip pinned, got %v", v)
	}
}

func TestUnifiedBufferConservation(t *testing.T) {
	r := rng.New(7)
	u := newUnified(4, 12)
	for i := 0; i < 20000; i++ {
		k := Key(r.Intn(50))
		if e := u.Peek(k); e != nil {
			if r.Bool(0.3) {
				u.Remove(e)
			} else {
				u.Get(k)
				if r.Bool(0.2) {
					u.MarkDirty(e)
				}
			}
			continue
		}
		if u.NeedsEviction() {
			u.Remove(u.Victim())
		}
		mustInsert(t, u, k)
		if i%500 == 0 {
			if err := u.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedZeroRAM(t *testing.T) {
	u := newUnified(0, 4)
	fillUnified(t, u, 4)
	if u.residentRAM != 0 {
		t.Fatal("resident RAM in zero-RAM cache")
	}
	for k := Key(0); k < 4; k++ {
		if u.Peek(k).Medium() != Flash {
			t.Fatal("non-flash entry in zero-RAM cache")
		}
	}
}

func TestUnifiedTryInsertDuplicate(t *testing.T) {
	u := newUnified(1, 1)
	e1 := mustInsert(t, u, 1)
	if e, inserted := u.TryInsert(1); e != e1 || inserted {
		t.Fatalf("duplicate TryInsert = %p, %v; want the resident %p, false", e, inserted, e1)
	}
	if u.Len() != 1 {
		t.Fatalf("len = %d after a duplicate TryInsert, want 1", u.Len())
	}
}

func TestUnifiedTryInsertFull(t *testing.T) {
	u := newUnified(1, 0)
	mustInsert(t, u, 1)
	if e, inserted := u.TryInsert(2); e != nil || inserted {
		t.Fatalf("TryInsert into a full unified cache = %p, %v; want nil, false", e, inserted)
	}
}

func BenchmarkUnifiedGetHit(b *testing.B) {
	u := newUnified(128, 896)
	fillUnified(b, u, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Get(Key(i & 1023))
	}
}

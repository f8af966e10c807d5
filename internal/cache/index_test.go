package cache

import (
	"math/rand"
	"testing"
)

// indexCapacity is the capacity the index tests use: a 16-slot table, small
// enough that forced collisions and wrapped runs are easy to build.
const indexCapacity = 8

// keysHomedAt returns n keys, searching upward from from, whose home slot
// in x is home.
func keysHomedAt(x *Index, home uint64, n int, from Key) []Key {
	var keys []Key
	for k := from; len(keys) < n; k++ {
		if x.home(k) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// indexUniverse is the key set the differential runs draw from: key 0,
// five keys sharing one home slot, five homed at the table's last slot so
// their run wraps past the end, and a few others.
func indexUniverse() []Key {
	x := NewIndex(indexCapacity)
	last := uint64(len(x.tab) - 1)
	keys := []Key{0}
	keys = append(keys, keysHomedAt(&x, 3, 5, 1)...)
	keys = append(keys, keysHomedAt(&x, last, 5, 1)...)
	return append(keys, 1<<40, 12345, ^Key(0))
}

// indexModel drives an Index and a map side by side.
type indexModel struct {
	t     *testing.T
	x     Index
	nodes []Node // one node per universe key; a second node per key tests duplicate inserts
	dup   []Node
	keys  []Key
	m     map[Key]*Node
}

func newIndexModel(t *testing.T) *indexModel {
	keys := indexUniverse()
	im := &indexModel{t: t, x: NewIndex(indexCapacity), keys: keys,
		nodes: make([]Node, len(keys)), dup: make([]Node, len(keys)), m: map[Key]*Node{}}
	for i, k := range keys {
		im.nodes[i] = MakeNode(k, int32(i))
		im.dup[i] = MakeNode(k, -1)
	}
	return im
}

// step applies one operation, chosen by op, to key number ki, and checks
// the index against the model.
func (im *indexModel) step(op, ki int) {
	t := im.t
	t.Helper()
	k, n := im.keys[ki], &im.nodes[ki]
	switch op % 3 {
	case 0:
		if got, want := im.x.Get(k), im.m[k]; got != want {
			t.Fatalf("Get(%d) = %p, model %p", k, got, want)
		}
	case 1:
		if old := im.m[k]; old != nil {
			if got := im.x.Insert(&im.dup[ki]); got != old {
				t.Fatalf("duplicate Insert(%d) returned %p, want the indexed %p", k, got, old)
			}
		} else if len(im.m) < indexCapacity {
			if got := im.x.Insert(n); got != nil {
				t.Fatalf("Insert(%d) of an absent key returned %p", k, got)
			}
			im.m[k] = n
		}
	case 2:
		_, present := im.m[k]
		if got := im.x.delete(n); got != present {
			t.Fatalf("Delete(%d) = %v, model holds it: %v", k, got, present)
		}
		if im.x.delete(&im.dup[ki]) {
			t.Fatalf("Delete of an unindexed node with key %d succeeded", k)
		}
		delete(im.m, k)
	}
	im.check()
}

func (im *indexModel) check() {
	t := im.t
	t.Helper()
	n, err := im.x.Check()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(im.m) {
		t.Fatalf("index holds %d, model %d", n, len(im.m))
	}
	for _, k := range im.keys {
		if got, want := im.x.Get(k), im.m[k]; got != want {
			t.Fatalf("Get(%d) = %p, model %p", k, got, want)
		}
	}
}

// TestIndexMatchesMap runs seeded random get/insert/delete sequences over
// key 0, colliding keys and wrapping runs against a map.
func TestIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		im := newIndexModel(t)
		for i := 0; i < 2000; i++ {
			im.step(rnd.Intn(3), rnd.Intn(len(im.keys)))
		}
	}
}

// TestIndexRuns pins the two cases backward-shift deletion must get right:
// deleting from the middle of a run that shares one home, and a run that
// wraps past the end of the table.
func TestIndexRuns(t *testing.T) {
	for _, home := range []uint64{5, 15} {
		x := NewIndex(indexCapacity)
		keys := keysHomedAt(&x, home, 4, 0)
		nodes := make([]Node, len(keys))
		for i, k := range keys {
			nodes[i] = MakeNode(k, int32(i))
			x.Insert(&nodes[i])
		}
		for i := range keys {
			if want := (home + uint64(i)) & 15; x.tab[want] != &nodes[i] {
				t.Fatalf("home %d: key %d not in slot %d", home, keys[i], want)
			}
		}
		if !x.delete(&nodes[1]) {
			t.Fatalf("home %d: delete from the middle of the run failed", home)
		}
		if _, err := x.Check(); err != nil {
			t.Fatalf("home %d: %v", home, err)
		}
		for i, k := range keys {
			want := &nodes[i]
			if i == 1 {
				want = nil
			}
			if got := x.Get(k); got != want {
				t.Fatalf("home %d: Get(%d) = %p after deleting %d, want %p", home, k, got, keys[1], want)
			}
		}
		if x.tab[(home+3)&15] != nil {
			t.Fatalf("home %d: the run's tail did not shift back", home)
		}
	}
}

// TestIndexCheckDetectsCorruption breaks a run the way a faulty delete
// would, and miscounts, and expects Check to report both.
func TestIndexCheckDetectsCorruption(t *testing.T) {
	x := NewIndex(indexCapacity)
	keys := keysHomedAt(&x, 7, 3, 0)
	nodes := make([]Node, len(keys))
	for i, k := range keys {
		nodes[i] = MakeNode(k, int32(i))
		x.Insert(&nodes[i])
	}
	if n, err := x.Check(); err != nil || n != len(keys) {
		t.Fatalf("intact index: Check = %d, %v", n, err)
	}
	x.tab[8] = nil // a gap inside the run leaves keys[2] unreachable
	if _, err := x.Check(); err == nil {
		t.Fatal("Check missed a node cut off from its home slot")
	}
	x.tab[8] = &nodes[1]
	x.n++
	if _, err := x.Check(); err == nil {
		t.Fatal("Check missed a miscount")
	}
}

func TestIndexSizing(t *testing.T) {
	for _, tc := range []struct{ capacity, slots int }{{0, 1}, {1, 2}, {5, 16}, {8, 16}, {9, 32}, {1 << 16, 1 << 17}} {
		x := NewIndex(tc.capacity)
		if len(x.tab) != tc.slots {
			t.Errorf("NewIndex(%d): %d slots, want %d", tc.capacity, len(x.tab), tc.slots)
		}
	}
	x := NewIndex(1)
	a, b := MakeNode(1, 0), MakeNode(2, 0)
	x.Insert(&a)
	defer func() {
		if recover() == nil {
			t.Fatal("inserting past capacity did not panic")
		}
	}()
	x.Insert(&b)
}

// FuzzIndex reads its input as (operation, key) byte pairs over the same
// key universe as TestIndexMatchesMap and checks the index against a map
// after every step.
func FuzzIndex(f *testing.F) {
	// Keys 1-5 share home slot 3 and 6-10 wrap past the end; key 0 is key
	// number 0.
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0})                                        // key 0: insert, get, delete, get
	f.Add([]byte{1, 1, 1, 2, 1, 3, 1, 4, 2, 2, 0, 3, 0, 4})                      // shared home: fill a run, delete its middle
	f.Add([]byte{1, 6, 1, 7, 1, 8, 1, 9, 2, 7, 0, 8, 0, 9})                      // a run wrapping past the end, middle delete
	f.Add([]byte{1, 8, 1, 1, 1, 9, 1, 2, 2, 8, 2, 1, 0, 9})                      // two runs interleaved
	f.Add([]byte{1, 11, 1, 12, 1, 13, 1, 0, 1, 1, 1, 6, 1, 2, 1, 3, 1, 7, 0, 7}) // fill to capacity, then one more
	f.Fuzz(func(t *testing.T, data []byte) {
		im := newIndexModel(t)
		for i := 0; i+1 < len(data); i += 2 {
			im.step(int(data[i]), int(data[i+1])%len(im.keys))
		}
	})
}

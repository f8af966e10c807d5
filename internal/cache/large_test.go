package cache

import (
	"math/rand"
	"testing"
)

// largeCapacity is the capacity of the Large benchmarks: 2^18 blocks, so
// the index and the entries miss in the CPU caches as they do at the
// paper's cache sizes, where the small benchmarks above stay cache-hot.
const largeCapacity = 1 << 18

// randomKeys returns n distinct keys in random-looking order: the
// splitmix64 finaliser, a bijection, applied to 0..n-1.
func randomKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		z := uint64(i) + 0x9E3779B97F4A7C15
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		keys[i] = Key(z ^ z>>31)
	}
	return keys
}

// benchGetHitLarge fills c with largeCapacity random keys and times hits
// in a random order.
func benchGetHitLarge(b *testing.B, c interface {
	TryInsert(Key) (*Entry, bool)
	Get(Key) *Entry
}) {
	keys := randomKeys(largeCapacity)
	for _, k := range keys {
		c.TryInsert(k)
	}
	order := rand.New(rand.NewSource(1)).Perm(largeCapacity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Get(keys[order[i&(largeCapacity-1)]]) == nil {
			b.Fatal("miss")
		}
	}
}

// benchInsertEvictLarge times evict-then-insert of fresh random keys on a
// full cache of largeCapacity. Keys cycle over four capacities, so each
// is long evicted when it returns.
func benchInsertEvictLarge(b *testing.B, c slabCache) {
	keys := randomKeys(4 * largeCapacity)
	step := func(i int) {
		if c.NeedsEviction() {
			c.Remove(c.Victim())
		}
		c.TryInsert(keys[i&(4*largeCapacity-1)])
	}
	for i := 0; i < 4*largeCapacity; i++ {
		step(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

func BenchmarkLRUGetHitLarge(b *testing.B) { benchGetHitLarge(b, NewLRU(largeCapacity, RAM)) }

func BenchmarkLRUInsertEvictLarge(b *testing.B) {
	benchInsertEvictLarge(b, NewLRU(largeCapacity, Flash))
}

func BenchmarkSLRUGetHitLarge(b *testing.B) { benchGetHitLarge(b, newSLRU(largeCapacity, RAM)) }

func BenchmarkSLRUInsertEvictLarge(b *testing.B) {
	benchInsertEvictLarge(b, newSLRU(largeCapacity, Flash))
}

func BenchmarkTwoQGetHitLarge(b *testing.B) { benchGetHitLarge(b, newTwoQ(largeCapacity, RAM)) }

func BenchmarkTwoQInsertEvictLarge(b *testing.B) {
	benchInsertEvictLarge(b, newTwoQ(largeCapacity, Flash))
}

func BenchmarkUnifiedGetHitLarge(b *testing.B) {
	benchGetHitLarge(b, newUnified(largeCapacity/8, largeCapacity-largeCapacity/8))
}

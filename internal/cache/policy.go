package cache

import "fmt"

// BlockCache is the interface the client cache stack programs against.
// The paper fixes replacement at LRU ("we put aside ... cache replacement
// policy (we use LRU)", §1); the additional implementations in this
// package — FIFO, CLOCK, segmented LRU and 2Q — support the repository's
// replacement-policy extension study.
type BlockCache interface {
	Capacity() int
	Len() int
	DirtyLen() int

	Get(key Key) *Entry
	Peek(key Key) *Entry
	Touch(e *Entry)

	NeedsEviction() bool
	Victim() *Entry
	TryInsert(key Key) (e *Entry, inserted bool)
	Remove(e *Entry)

	MarkDirty(e *Entry)
	MarkClean(e *Entry)
	AppendDirty(dst []*Entry) []*Entry

	CheckInvariants() error
}

// Statically verify the implementations.
var (
	_ BlockCache = (*LRU)(nil)
	_ BlockCache = (*fifo)(nil)
	_ BlockCache = (*clock)(nil)
	_ BlockCache = (*slru)(nil)
	_ BlockCache = (*twoQ)(nil)
)

// ReplacementKind names a replacement policy.
type ReplacementKind uint8

// Replacement policies.
const (
	ReplaceLRU ReplacementKind = iota
	ReplaceFIFO
	ReplaceClock
	ReplaceSLRU
	Replace2Q
)

// String returns the policy's name as ParseReplacement accepts it.
func (k ReplacementKind) String() string {
	switch k {
	case ReplaceLRU:
		return "lru"
	case ReplaceFIFO:
		return "fifo"
	case ReplaceClock:
		return "clock"
	case ReplaceSLRU:
		return "slru"
	case Replace2Q:
		return "2q"
	default:
		return fmt.Sprintf("replacement(%d)", uint8(k))
	}
}

// ParseReplacement parses a policy name.
func ParseReplacement(s string) (ReplacementKind, error) {
	switch s {
	case "lru", "":
		return ReplaceLRU, nil
	case "fifo":
		return ReplaceFIFO, nil
	case "clock":
		return ReplaceClock, nil
	case "slru":
		return ReplaceSLRU, nil
	case "2q":
		return Replace2Q, nil
	default:
		return 0, fmt.Errorf("cache: unknown replacement policy %q", s)
	}
}

// NewBlockCache builds a cache of the given kind.
func NewBlockCache(kind ReplacementKind, capacity int, m Medium) (BlockCache, error) {
	switch kind {
	case ReplaceLRU:
		return NewLRU(capacity, m), nil
	case ReplaceFIFO:
		return newFIFO(capacity, m), nil
	case ReplaceClock:
		return newClock(capacity, m), nil
	case ReplaceSLRU:
		return newSLRU(capacity, m), nil
	case Replace2Q:
		return newTwoQ(capacity, m), nil
	default:
		return nil, fmt.Errorf("cache: unknown replacement kind %d", kind)
	}
}

// fifo evicts in insertion order: lookups do not promote. It is the
// no-recency baseline for the replacement study.
type fifo struct {
	LRU
}

// newFIFO returns a FIFO cache.
func newFIFO(capacity int, m Medium) *fifo {
	f := &fifo{}
	f.initLRU(capacity, m)
	return f
}

// Get looks up key without promoting.
func (f *fifo) Get(key Key) *Entry { return f.Peek(key) }

// Touch is a no-op: FIFO order is insertion order.
func (f *fifo) Touch(e *Entry) {}

// clock is the classic second-chance approximation of LRU: entries sit in
// a ring; lookups set a referenced bit; the victim hand sweeps the ring
// clearing referenced bits and evicts the first unreferenced entry.
type clock struct {
	LRU
}

// newClock returns a CLOCK cache.
func newClock(capacity int, m Medium) *clock {
	c := &clock{}
	c.initLRU(capacity, m)
	return c
}

// Get looks up key and sets its referenced bit.
func (c *clock) Get(key Key) *Entry {
	e := c.Peek(key)
	if e != nil {
		e.Referenced = true
	}
	return e
}

// Touch sets the referenced bit.
func (c *clock) Touch(e *Entry) { e.Referenced = true }

// Victim sweeps the ring: referenced entries get a second chance (bit
// cleared, moved to the front), the first unreferenced unpinned entry is
// the victim. The underlying list's back is the hand position.
func (c *clock) Victim() *Entry {
	// Bound the sweep to two full revolutions: after one revolution all
	// referenced bits are clear, so the second must find a victim unless
	// everything is pinned.
	for i := 0; i < 2*c.lru.len+1; i++ {
		e := c.lru.back()
		if e == nil || e == &c.lru.sentinel {
			return nil
		}
		if e.Pinned {
			// Rotate pinned entries past the hand.
			c.lru.remove(e)
			c.lru.pushFront(e)
			continue
		}
		if e.Referenced {
			e.Referenced = false
			c.lru.remove(e)
			c.lru.pushFront(e)
			continue
		}
		return e
	}
	return nil
}

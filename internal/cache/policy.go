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
	Medium() Medium

	Get(key Key) *Entry
	Peek(key Key) *Entry
	Touch(e *Entry)

	NeedsEviction() bool
	Victim() *Entry
	Insert(key Key) *Entry
	TryInsert(key Key) (e *Entry, inserted bool)
	Remove(e *Entry)

	MarkDirty(e *Entry)
	MarkClean(e *Entry)
	AppendDirty(dst []*Entry) []*Entry

	Keys(dst []Key) []Key
	Hits() uint64
	Misses() uint64
	Evictions() uint64
	CheckInvariants() error

	// SetResidencyHook registers an observer of residency transitions:
	// fn(key, true) as the block is inserted, fn(key, false) as it is
	// removed. Sharded runs use it to index which hosts hold a block.
	SetResidencyHook(fn func(Key, bool))
}

// mustInsert is every policy's Insert, on top of its TryInsert: a
// zero-capacity cache ignores the insert, and a duplicate key or a full
// cache (what names the policy) is the caller's bug.
func mustInsert(c interface {
	Capacity() int
	TryInsert(Key) (*Entry, bool)
}, key Key, what string) *Entry {
	if c.Capacity() == 0 {
		return nil
	}
	e, inserted := c.TryInsert(key)
	if !inserted {
		if e != nil {
			panic(fmt.Sprintf("cache: duplicate insert of key %d", key))
		}
		panic("cache: insert into full " + what)
	}
	return e
}

// Statically verify the implementations.
var (
	_ BlockCache = (*LRU)(nil)
	_ BlockCache = (*FIFO)(nil)
	_ BlockCache = (*Clock)(nil)
	_ BlockCache = (*SLRU)(nil)
	_ BlockCache = (*TwoQ)(nil)
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
		return NewFIFO(capacity, m), nil
	case ReplaceClock:
		return NewClock(capacity, m), nil
	case ReplaceSLRU:
		return NewSLRU(capacity, m), nil
	case Replace2Q:
		return NewTwoQ(capacity, m), nil
	default:
		return nil, fmt.Errorf("cache: unknown replacement kind %d", kind)
	}
}

// FIFO evicts in insertion order: lookups do not promote. It is the
// no-recency baseline for the replacement study.
type FIFO struct {
	LRU
}

// NewFIFO returns a FIFO cache.
func NewFIFO(capacity int, m Medium) *FIFO {
	f := &FIFO{}
	f.initLRU(capacity, m)
	return f
}

// Get looks up key without promoting.
func (f *FIFO) Get(key Key) *Entry {
	e := f.index.entry(key)
	if e == nil {
		f.misses++
		return nil
	}
	f.hits++
	return e
}

// Touch is a no-op: FIFO order is insertion order.
func (f *FIFO) Touch(e *Entry) {}

// Clock is the classic second-chance approximation of LRU: entries sit in
// a ring; lookups set a referenced bit; the victim hand sweeps the ring
// clearing referenced bits and evicts the first unreferenced entry.
type Clock struct {
	LRU
}

// NewClock returns a CLOCK cache.
func NewClock(capacity int, m Medium) *Clock {
	c := &Clock{}
	c.initLRU(capacity, m)
	return c
}

// Get looks up key and sets its referenced bit.
func (c *Clock) Get(key Key) *Entry {
	e := c.index.entry(key)
	if e == nil {
		c.misses++
		return nil
	}
	c.hits++
	e.Referenced = true
	return e
}

// Touch sets the referenced bit.
func (c *Clock) Touch(e *Entry) { e.Referenced = true }

// Victim sweeps the ring: referenced entries get a second chance (bit
// cleared, moved to the front), the first unreferenced unpinned entry is
// the victim. The underlying list's back is the hand position.
func (c *Clock) Victim() *Entry {
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

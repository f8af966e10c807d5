package filer

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

const (
	fastRead = 92 * sim.Microsecond
	slowRead = 7952 * sim.Microsecond
	writeLat = 92 * sim.Microsecond
)

func blockConfig(parts int, rate float64) Config {
	return Config{
		Partitions:   parts,
		FastRead:     fastRead,
		SlowRead:     slowRead,
		Write:        writeLat,
		PrefetchRate: rate,
	}
}

// newFiler builds the filer cfg describes on e, seeded with seed.
func newFiler(t *testing.T, e *sim.Engine, seed uint64, cfg Config) *Filer {
	t.Helper()
	f, err := NewPartitioned(e, rng.New(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// readLatency issues one read through Read2, drains the engine and
// returns the read's service time.
func readLatency(f *Filer, key uint64) sim.Time { return serviceTime(f, key, f.Read2) }

// writeLatency is readLatency for one write through Write2.
func writeLatency(f *Filer, key uint64) sim.Time { return serviceTime(f, key, f.Write2) }

func serviceTime(f *Filer, key uint64, issue func(uint64, func(any), any)) sim.Time {
	start := f.eng.Now()
	var done sim.Time
	issue(key, func(any) { done = f.eng.Now() }, nil)
	f.eng.Run()
	return done - start
}

func TestWriteAlwaysFast(t *testing.T) {
	var e sim.Engine
	f := newFiler(t, &e, 1, blockConfig(1, 0.9))
	for i := 0; i < 100; i++ {
		start := e.Now()
		var done sim.Time
		f.Write2(uint64(i), func(any) { done = e.Now() }, nil)
		e.Run()
		if done-start != writeLat {
			t.Fatalf("write latency %v", done-start)
		}
	}
	if f.Writes() != 100 {
		t.Fatalf("writes = %d", f.Writes())
	}
}

func TestReadFastSlowMix(t *testing.T) {
	var e sim.Engine
	f := newFiler(t, &e, 2, blockConfig(1, 0.9))
	const n = 20000
	for i := 0; i < n; i++ {
		f.Read2(uint64(i), nil, nil)
	}
	e.Run()
	rate := float64(f.FastReads()) / n
	if math.Abs(rate-0.9) > 0.01 {
		t.Fatalf("fast read rate = %v, want ~0.9", rate)
	}
	if f.FastReads()+f.SlowReads() != n {
		t.Fatal("read counts do not sum")
	}
}

func TestReadLatenciesAreFastOrSlow(t *testing.T) {
	var e sim.Engine
	f := newFiler(t, &e, 3, blockConfig(1, 0.5))
	for i := 0; i < 50; i++ {
		start := e.Now()
		var done sim.Time
		f.Read2(uint64(i), func(any) { done = e.Now() }, nil)
		e.Run()
		lat := done - start
		if lat != fastRead && lat != slowRead {
			t.Fatalf("read latency %v is neither fast nor slow", lat)
		}
	}
}

func TestPrefetchRateExtremes(t *testing.T) {
	var e sim.Engine
	f := newFiler(t, &e, 4, blockConfig(1, 1.0))
	for i := 0; i < 100; i++ {
		f.Read2(uint64(i), nil, nil)
	}
	e.Run()
	if f.SlowReads() != 0 {
		t.Fatal("slow reads at prefetch rate 1.0")
	}
	f2 := newFiler(t, &e, 5, blockConfig(1, 0.0))
	for i := 0; i < 100; i++ {
		f2.Read2(uint64(i), nil, nil)
	}
	e.Run()
	if f2.FastReads() != 0 {
		t.Fatal("fast reads at prefetch rate 0.0")
	}
}

// TestMeanReadLatency: reads average the prefetch-weighted mix of the fast
// and slow latencies, 0.9*100 + 0.1*1000 = 190, within a few standard
// errors (one read's deviation is 270).
func TestMeanReadLatency(t *testing.T) {
	var e sim.Engine
	f := newFiler(t, &e, 6, Config{Partitions: 1, FastRead: 100, SlowRead: 1000, Write: 50, PrefetchRate: 0.9})
	const n = 10000
	var sum sim.Time
	for i := 0; i < n; i++ {
		sum += readLatency(f, uint64(i))
	}
	if mean := float64(sum) / n; mean < 175 || mean > 205 {
		t.Fatalf("mean read latency %.1f, want 190", mean)
	}
}

func TestFilerConcurrent(t *testing.T) {
	// The filer serves requests concurrently: two simultaneous fast
	// reads both finish at fastRead, not serialized.
	var e sim.Engine
	f := newFiler(t, &e, 7, blockConfig(1, 1.0))
	var d1, d2 sim.Time
	f.Read2(1, func(any) { d1 = e.Now() }, nil)
	f.Read2(2, func(any) { d2 = e.Now() }, nil)
	e.Run()
	if d1 != fastRead || d2 != fastRead {
		t.Fatalf("concurrent reads at %v/%v", d1, d2)
	}
}

// classicRejected checks that the paper's classic filer — one partition,
// block tier only — with the given latencies and prefetch rate is refused
// at construction: NewPartitioned returns an error and no filer.
func classicRejected(t *testing.T, fast, slow, write sim.Time, rate float64) {
	t.Helper()
	var e sim.Engine
	f, err := NewPartitioned(&e, rng.New(1), Config{
		Partitions: 1, FastRead: fast, SlowRead: slow, Write: write, PrefetchRate: rate,
	})
	if err == nil || f != nil {
		t.Fatalf("classic filer built (%v, %v), want rejection", f, err)
	}
}

// TestBadPrefetchRatePanics checks that a prefetch rate above one is
// refused when the classic filer is built. The refusal is an error now; the
// name is kept from when it was a panic.
func TestBadPrefetchRatePanics(t *testing.T) {
	classicRejected(t, 1, 1, 1, 1.5)
}

// TestNegativeLatencyPanics checks that a negative fast-read latency is
// refused when the classic filer is built.
func TestNegativeLatencyPanics(t *testing.T) {
	classicRejected(t, -1, 1, 1, 0.5)
}

// TestConfigValidate is the table-driven contract for every rejection the
// configuration promises: partition counts below one, negative or NaN
// latencies and rates, and an object tier faster than the block tier it
// backs. NewPartitioned must reject exactly the configs Validate does.
func TestConfigValidate(t *testing.T) {
	valid := blockConfig(4, 0.9)
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"one partition", func(c *Config) { c.Partitions = 1 }, true},
		{"zero partitions", func(c *Config) { c.Partitions = 0 }, false},
		{"negative partitions", func(c *Config) { c.Partitions = -3 }, false},
		{"negative fast read", func(c *Config) { c.FastRead = -1 }, false},
		{"negative slow read", func(c *Config) { c.SlowRead = -1 }, false},
		{"negative write", func(c *Config) { c.Write = -1 }, false},
		{"NaN prefetch rate", func(c *Config) { c.PrefetchRate = math.NaN() }, false},
		{"prefetch rate above one", func(c *Config) { c.PrefetchRate = 1.5 }, false},
		{"negative prefetch rate", func(c *Config) { c.PrefetchRate = -0.1 }, false},
		{"object tier valid", func(c *Config) {
			c.Object = &ObjectTier{Read: 2 * slowRead, Write: slowRead}
		}, true},
		{"object read equals slow read", func(c *Config) {
			c.Object = &ObjectTier{Read: slowRead}
		}, true},
		{"object read below slow read", func(c *Config) {
			c.Object = &ObjectTier{Read: slowRead - 1}
		}, false},
		{"negative object read", func(c *Config) {
			c.Object = &ObjectTier{Read: -1}
		}, false},
		{"negative object write", func(c *Config) {
			c.Object = &ObjectTier{Read: 2 * slowRead, Write: -1}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("config accepted, want rejection")
			}
			var e sim.Engine
			if _, err := NewPartitioned(&e, rng.New(1), cfg); (err == nil) != tc.ok {
				t.Fatalf("NewPartitioned error %v, want rejection %v", err, !tc.ok)
			}
		})
	}
}

// TestRouteCoverageAndStability: every block maps to exactly one in-range
// partition, the mapping is identical across filer instances and runs, and
// a multi-partition filer actually spreads the namespace.
func TestRouteCoverageAndStability(t *testing.T) {
	var e sim.Engine
	for _, parts := range []int{1, 2, 3, 4, 8} {
		f, err := NewPartitioned(&e, rng.New(1), blockConfig(parts, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewPartitioned(&e, rng.New(99), blockConfig(parts, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, parts)
		for key := uint64(0); key < 4096; key++ {
			p := f.Route(key)
			if p < 0 || p >= parts {
				t.Fatalf("parts=%d: key %d routed to %d", parts, key, p)
			}
			if q := f.Route(key); q != p {
				t.Fatalf("parts=%d: key %d unstable within an instance (%d vs %d)", parts, key, p, q)
			}
			if q := g.Route(key); q != p {
				t.Fatalf("parts=%d: key %d differs across instances (%d vs %d)", parts, key, p, q)
			}
			counts[p]++
		}
		for p, n := range counts {
			// 4096 keys over <= 8 partitions: a fair hash keeps every
			// partition within a loose factor of the mean.
			if n < 4096/parts/2 || n > 4096/parts*2 {
				t.Fatalf("parts=%d: partition %d holds %d of 4096 keys", parts, p, n)
			}
		}
	}
}

// TestPartitionCountInvariance: the latency sequence a request stream
// observes is identical for every partition count, because the fast/slow
// stream is shared and tier residency is per block.
func TestPartitionCountInvariance(t *testing.T) {
	trace := func(parts int, object bool) []sim.Time {
		var e sim.Engine
		cfg := blockConfig(parts, 0.5)
		if object {
			cfg.Object = &ObjectTier{Read: 4 * slowRead, Write: slowRead, WriteThrough: true, ReadPromote: true}
		}
		f, err := NewPartitioned(&e, rng.New(42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lats []sim.Time
		for i := 0; i < 2000; i++ {
			key := uint64(i % 331)
			if i%3 == 0 {
				lats = append(lats, writeLatency(f, key))
			} else {
				lats = append(lats, readLatency(f, key))
			}
		}
		return lats
	}
	for _, object := range []bool{false, true} {
		base := trace(1, object)
		for _, parts := range []int{2, 3, 4, 8} {
			got := trace(parts, object)
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("object=%v parts=%d: latency %d diverged (%v vs %v)", object, parts, i, got[i], base[i])
				}
			}
		}
	}
}

// TestObjectTierSemantics walks the tier state machine: first read of a
// cold block pays the object read, promotion makes re-reads block-tier
// slow, writes make blocks resident and (write-through) count object
// copies.
func TestObjectTierSemantics(t *testing.T) {
	var e sim.Engine
	cfg := blockConfig(2, 0.0) // no fast reads: every read exercises the tiers
	objRead := 4 * slowRead
	cfg.Object = &ObjectTier{Read: objRead, Write: slowRead, WriteThrough: true, ReadPromote: true}
	f, err := NewPartitioned(&e, rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if lat := readLatency(f, 7); lat != objRead {
		t.Fatalf("cold read latency %v, want object read %v", lat, objRead)
	}
	if lat := readLatency(f, 7); lat != slowRead {
		t.Fatalf("promoted re-read latency %v, want slow read %v", lat, slowRead)
	}
	if lat := writeLatency(f, 8); lat != writeLat {
		t.Fatalf("write latency %v, want buffered %v", lat, writeLat)
	}
	if lat := readLatency(f, 8); lat != slowRead {
		t.Fatalf("read after write latency %v, want slow read %v", lat, slowRead)
	}
	if f.ObjectReads() != 1 {
		t.Fatalf("object reads = %d, want 1", f.ObjectReads())
	}
	if f.ObjectWrites() != 1 {
		t.Fatalf("object writes = %d, want 1 (write-through)", f.ObjectWrites())
	}

	// Without promotion, a cold block pays the object read every time.
	cfg.Object = &ObjectTier{Read: objRead}
	g, err := NewPartitioned(&e, rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if lat := readLatency(g, 7); lat != objRead {
			t.Fatalf("unpromoted read %d latency %v, want %v", i, lat, objRead)
		}
	}
	if g.ObjectWrites() != 0 {
		t.Fatal("object writes without write-through")
	}
}

// TestPartitionStats: counters land on the routed partition and sum to the
// filer-wide totals; barrier queue gauges track max and mean.
func TestPartitionStats(t *testing.T) {
	var e sim.Engine
	f, err := NewPartitioned(&e, rng.New(3), blockConfig(4, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			readLatency(f, uint64(i))
		} else {
			writeLatency(f, uint64(i))
		}
	}
	var serviced, writes uint64
	for p := 0; p < f.Partitions(); p++ {
		st := f.PartitionStats(p)
		serviced += st.Serviced()
		writes += st.Writes
		if st.Serviced() == 0 {
			t.Fatalf("partition %d serviced nothing", p)
		}
	}
	if serviced != n {
		t.Fatalf("per-partition serviced sums to %d, want %d", serviced, n)
	}
	if writes != f.Writes() {
		t.Fatalf("per-partition writes sum %d != total %d", writes, f.Writes())
	}

	f.ObserveBarrierQueue(2, 5)
	f.ObserveBarrierQueue(2, 11)
	f.ObserveBarrierQueue(2, 2)
	f.ObserveBarrierQueue(3, 0) // ignored: no traffic that barrier
	st := f.PartitionStats(2)
	if st.MaxBarrierQueue != 11 {
		t.Fatalf("max barrier queue %d, want 11", st.MaxBarrierQueue)
	}
	if math.Abs(st.MeanBarrierQueue-6.0) > 1e-9 {
		t.Fatalf("mean barrier queue %v, want 6", st.MeanBarrierQueue)
	}
	if f.PartitionStats(3).MaxBarrierQueue != 0 {
		t.Fatal("zero-depth observation recorded")
	}
}

// TestMinServiceLatency: the epoch lookahead floor of a partitioned
// filer is its fastest block-tier latency, and the object tier never
// lowers it.
func TestMinServiceLatency(t *testing.T) {
	var e sim.Engine
	cfg := blockConfig(3, 0.9)
	cfg.Object = &ObjectTier{Read: 2 * slowRead, Write: slowRead}
	f, err := NewPartitioned(&e, rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.MinServiceLatency() != fastRead {
		t.Fatalf("min service latency %v, want %v", f.MinServiceLatency(), fastRead)
	}
}

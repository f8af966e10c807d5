package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// buildCluster wires n hosts to one filer over private segments, with
// instant consistency across them when withReg is set (nil stats if not).
func buildCluster(t *testing.T, n int, cfg HostConfig, tm Timing, withReg bool) (*sim.Engine, []*Host, *ConsistencyStats) {
	t.Helper()
	eng := &sim.Engine{}
	cfgs := make([]HostConfig, n)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].ID = i
	}
	hosts, err := NewHosts(eng, cfgs, tm, newTestFiler(eng, 11, tm))
	if err != nil {
		t.Fatal(err)
	}
	var reg *ConsistencyStats
	if withReg {
		reg = TrackConsistency(hosts, false)
	}
	return eng, hosts, reg
}

func TestDriverCompletesAllOps(t *testing.T) {
	eng, hosts, _ := buildCluster(t, 1, baseCfg(Naive), testTiming(), false)
	ops := []trace.Op{
		{Host: 0, Thread: 0, Kind: trace.Read, File: 1, Block: 0, Count: 4},
		{Host: 0, Thread: 1, Kind: trace.Write, File: 1, Block: 4, Count: 2},
		{Host: 0, Thread: 0, Kind: trace.Read, File: 2, Block: 0, Count: 1},
	}
	d, err := NewDriver(eng, hosts, trace.NewSliceSource(ops), 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if d.OpsCompleted() != 3 {
		t.Fatalf("ops completed = %d, want 3", d.OpsCompleted())
	}
	if d.BlocksIssued() != 7 {
		t.Fatalf("blocks issued = %d, want 7", d.BlocksIssued())
	}
	st := hosts[0].Stats()
	if st.BlocksRead != 5 || st.BlocksWritten != 2 {
		t.Fatalf("block stats %d/%d, want 5/2", st.BlocksRead, st.BlocksWritten)
	}
}

func TestDriverWarmupGating(t *testing.T) {
	eng, hosts, _ := buildCluster(t, 1, baseCfg(Naive), testTiming(), false)
	var ops []trace.Op
	for i := 0; i < 10; i++ {
		ops = append(ops, trace.Op{Host: 0, Thread: 0, Kind: trace.Read, File: 1, Block: uint32(i), Count: 1})
	}
	// Warmup covers the first 5 blocks.
	d, err := NewDriver(eng, hosts, trace.NewSliceSource(ops), 5)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if !d.collecting {
		t.Fatal("never started collecting")
	}
	st := hosts[0].Stats()
	// Only the post-warmup blocks are measured. Block 5 is issued when
	// issuedBlocks crosses the threshold; expect 5-6 recorded reads.
	if st.BlocksRead < 5 || st.BlocksRead > 6 {
		t.Fatalf("recorded reads = %d, want ~5", st.BlocksRead)
	}
	if st.ReadLat.Count() != uint64(st.BlocksRead) {
		t.Fatal("latency samples != recorded blocks")
	}
}

func TestDriverOneIOPerThread(t *testing.T) {
	// Two ops on the same thread must serialize; on different threads
	// they overlap. Compare completion times.
	tm := testTiming()
	run := func(thread2 uint16) sim.Time {
		eng, hosts, _ := buildCluster(t, 1, baseCfg(Naive), tm, false)
		ops := []trace.Op{
			{Host: 0, Thread: 0, Kind: trace.Read, File: 1, Block: 0, Count: 1},
			{Host: 0, Thread: thread2, Kind: trace.Read, File: 2, Block: 0, Count: 1},
		}
		d, err := NewDriver(eng, hosts, trace.NewSliceSource(ops), 0)
		if err != nil {
			t.Fatal(err)
		}
		d.Run()
		return eng.Now()
	}
	same := run(0)
	diff := run(1)
	if diff >= same {
		t.Fatalf("parallel threads (%v) not faster than serialized (%v)", diff, same)
	}
}

func TestDriverMultiHostWrap(t *testing.T) {
	// Trace host IDs beyond the configured host count wrap around rather
	// than crash.
	eng, hosts, _ := buildCluster(t, 2, baseCfg(Naive), testTiming(), false)
	ops := []trace.Op{
		{Host: 5, Thread: 0, Kind: trace.Read, File: 1, Block: 0, Count: 1},
	}
	d, err := NewDriver(eng, hosts, trace.NewSliceSource(ops), 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if hosts[1].Stats().BlocksRead != 1 {
		t.Fatal("op did not wrap to host 1")
	}
}

func TestDriverValidation(t *testing.T) {
	eng := &sim.Engine{}
	if _, err := NewDriver(eng, nil, trace.NewSliceSource(nil), 0); err == nil {
		t.Fatal("empty host list accepted")
	}
	_, hosts, _ := buildCluster(t, 1, baseCfg(Naive), testTiming(), false)
	if _, err := NewDriver(eng, hosts, nil, 0); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestDriverEmptyTrace(t *testing.T) {
	eng, hosts, _ := buildCluster(t, 1, baseCfg(Naive), testTiming(), false)
	d, err := NewDriver(eng, hosts, trace.NewSliceSource(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Run() // must terminate
	if d.OpsCompleted() != 0 {
		t.Fatal("phantom ops")
	}
}

// TestIntegrationConservation runs a realistic small workload across every
// architecture x a policy subset and checks accounting invariants.
func TestIntegrationConservation(t *testing.T) {
	tm := DefaultTiming()
	for _, arch := range []Architecture{Naive, Lookaside, Unified} {
		for _, pol := range []Policy{
			PolicySync, PolicyAsync, PolicyP1, PolicyNone,
			{Kind: Delayed, Period: 10 * sim.Millisecond},
			{Kind: trickle, Period: 100 * sim.Microsecond},
		} {
			cfg := HostConfig{
				RAMBlocks:   64,
				FlashBlocks: 512,
				Arch:        arch,
				RAMPolicy:   pol,
				FlashPolicy: PolicyAsync,
			}
			name := arch.String() + "/" + pol.String()
			eng, hosts, _ := buildCluster(t, 1, cfg, tm, false)
			src := syntheticSource(4000, 2000, 0.3, 17)
			d, err := NewDriver(eng, hosts, src, 2000)
			if err != nil {
				t.Fatal(err)
			}
			d.Run()
			st := hosts[0].Stats()
			if st.BlocksRead+st.BlocksWritten == 0 {
				t.Fatalf("%s: nothing recorded", name)
			}
			// Read outcomes partition: every recorded read is a RAM hit
			// or a RAM miss.
			if st.RAMHits+st.RAMMisses != st.BlocksRead {
				t.Fatalf("%s: reads %d != ram hits %d + misses %d",
					name, st.BlocksRead, st.RAMHits, st.RAMMisses)
			}
			// Every RAM miss is a flash hit or a flash miss.
			if st.FlashHits+st.FlashMisses != st.RAMMisses {
				t.Fatalf("%s: ram misses %d != flash %d+%d",
					name, st.RAMMisses, st.FlashHits, st.FlashMisses)
			}
			if st.ReadLat.Count() != st.BlocksRead || st.WriteLat.Count() != st.BlocksWritten {
				t.Fatalf("%s: latency sample counts wrong", name)
			}
			// Cache invariants hold after the run.
			if arch == Unified {
				if err := hosts[0].uni.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			} else {
				if err := hosts[0].ram.CheckInvariants(); err != nil {
					t.Fatalf("%s: ram: %v", name, err)
				}
				if err := hosts[0].flash.CheckInvariants(); err != nil {
					t.Fatalf("%s: flash: %v", name, err)
				}
				if arch == Lookaside && hosts[0].flash.DirtyLen() != 0 {
					t.Fatalf("%s: lookaside flash dirty after run", name)
				}
			}
		}
	}
}

// syntheticSource builds a simple zipf-ish single-host trace without
// depending on the tracegen package (keeps core tests self-contained).
func syntheticSource(nops int, span int, writeFrac float64, seed uint64) trace.Source {
	r := rng.New(seed)
	ops := make([]trace.Op, 0, nops)
	for i := 0; i < nops; i++ {
		kind := trace.Read
		if r.Bool(writeFrac) {
			kind = trace.Write
		}
		// Skew accesses: half the ops hit the first tenth of the span.
		var blk int
		if r.Bool(0.5) {
			blk = r.Intn(span / 10)
		} else {
			blk = r.Intn(span)
		}
		ops = append(ops, trace.Op{
			Host:   0,
			Thread: uint16(r.Intn(8)),
			Kind:   kind,
			File:   1,
			Block:  uint32(blk),
			Count:  uint32(1 + r.Intn(4)),
		})
	}
	return trace.NewSliceSource(ops)
}

func TestIntegrationSharedWorkingSetInvalidations(t *testing.T) {
	tm := DefaultTiming()
	cfg := HostConfig{
		RAMBlocks:   32,
		FlashBlocks: 256,
		Arch:        Naive,
		RAMPolicy:   PolicyP1,
		FlashPolicy: PolicyAsync,
	}
	eng, hosts, reg := buildCluster(t, 2, cfg, tm, true)
	r := rng.New(23)
	var ops []trace.Op
	for i := 0; i < 6000; i++ {
		kind := trace.Read
		if r.Bool(0.3) {
			kind = trace.Write
		}
		ops = append(ops, trace.Op{
			Host:   uint16(r.Intn(2)),
			Thread: uint16(r.Intn(4)),
			Kind:   kind,
			File:   1,
			Block:  uint32(r.Intn(200)), // shared hot set fits both caches
			Count:  1,
		})
	}
	d, err := NewDriver(eng, hosts, trace.NewSliceSource(ops), 3000)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if reg.BlocksWritten == 0 {
		t.Fatal("no writes recorded")
	}
	// Two hosts hammering one small shared set: most writes must
	// invalidate the peer's copy (the paper's Figure 11 regime).
	if f := reg.InvalidationFraction(); f < 0.5 {
		t.Fatalf("invalidation fraction %.2f, want > 0.5 for shared hot set", f)
	}
}

func BenchmarkDriverNaive(b *testing.B) {
	tm := DefaultTiming()
	cfg := HostConfig{
		RAMBlocks: 256, FlashBlocks: 2048,
		Arch: Naive, RAMPolicy: PolicyP1, FlashPolicy: PolicyAsync,
	}
	for i := 0; i < b.N; i++ {
		eng := &sim.Engine{}
		hosts, err := NewHosts(eng, []HostConfig{cfg}, tm, newTestFiler(eng, 1, tm))
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(5)
		ops := make([]trace.Op, 0, 20000)
		for j := 0; j < 20000; j++ {
			kind := trace.Read
			if r.Bool(0.3) {
				kind = trace.Write
			}
			ops = append(ops, trace.Op{
				Thread: uint16(r.Intn(8)), Kind: kind,
				File: 1, Block: uint32(r.Intn(8192)), Count: 1,
			})
		}
		d, err := NewDriver(eng, hosts, trace.NewSliceSource(ops), 10000)
		if err != nil {
			b.Fatal(err)
		}
		d.Run()
	}
}

var _ = cache.Key(0) // keep cache import if assertions above change

func TestUnifiedInvalidationAcrossHosts(t *testing.T) {
	tm := testTiming()
	cfg := baseCfg(Unified)
	cfg.RAMBlocks = 4
	cfg.FlashBlocks = 32
	eng, hosts, reg := buildCluster(t, 2, cfg, tm, true)
	for _, h := range hosts {
		h.setCollect(true)
	}
	var done bool
	hosts[0].read(7, funcCont(func() { done = true }))
	eng.Run()
	if !done || hosts[0].uni.Peek(7) == nil {
		t.Fatal("host 0 did not cache the block")
	}
	hosts[1].write(7, cont{})
	eng.Run()
	if hosts[0].uni.Peek(7) != nil {
		t.Fatal("unified stale copy survived a remote write")
	}
	if reg.Invalidations != 1 {
		t.Fatalf("invalidations = %d", reg.Invalidations)
	}
	for _, h := range hosts {
		h.stopSyncers()
	}
	eng.Run()
}

// TestDriverRandomTracesProperty replays many random small traces through
// random configurations and asserts the universal invariants: every op
// completes, read accounting partitions, latencies are recorded for
// exactly the measured blocks, and cache invariants hold at the end.
func TestDriverRandomTracesProperty(t *testing.T) {
	r := rng.New(2024)
	archs := []Architecture{Naive, Lookaside, Unified}
	pols := AllPolicies()
	for round := 0; round < 25; round++ {
		cfg := HostConfig{
			RAMBlocks:   r.Intn(64),
			FlashBlocks: r.Intn(256),
			Arch:        archs[r.Intn(3)],
			RAMPolicy:   pols[r.Intn(len(pols))],
			FlashPolicy: pols[r.Intn(len(pols))],
		}
		// Scale periodic policies down to the tiny simulated time.
		if cfg.RAMPolicy.Kind == Periodic {
			cfg.RAMPolicy.Period = 10 * sim.Millisecond
		}
		if cfg.FlashPolicy.Kind == Periodic {
			cfg.FlashPolicy.Period = 10 * sim.Millisecond
		}
		nhosts := 1 + r.Intn(2)
		eng, hosts, _ := buildCluster(t, nhosts, cfg, DefaultTiming(), nhosts > 1)
		var ops []trace.Op
		nops := 200 + r.Intn(400)
		for i := 0; i < nops; i++ {
			kind := trace.Read
			if r.Bool(0.4) {
				kind = trace.Write
			}
			ops = append(ops, trace.Op{
				Host:   uint16(r.Intn(nhosts)),
				Thread: uint16(r.Intn(4)),
				Kind:   kind,
				File:   uint32(1 + r.Intn(3)),
				Block:  uint32(r.Intn(500)),
				Count:  uint32(1 + r.Intn(4)),
			})
		}
		var want uint64
		for _, op := range ops {
			want += uint64(op.Count)
		}
		d, err := NewDriver(eng, hosts, trace.NewSliceSource(ops), 0)
		if err != nil {
			t.Fatal(err)
		}
		d.Run()
		if d.OpsCompleted() != uint64(nops) {
			t.Fatalf("round %d (%+v): completed %d of %d ops",
				round, cfg, d.OpsCompleted(), nops)
		}
		var got uint64
		for _, h := range hosts {
			st := h.Stats()
			got += st.BlocksRead + st.BlocksWritten
			if st.RAMHits+st.RAMMisses != st.BlocksRead {
				t.Fatalf("round %d: read partition broken", round)
			}
			if st.FlashHits+st.FlashMisses != st.RAMMisses {
				t.Fatalf("round %d: flash partition broken", round)
			}
			if h.uni != nil {
				if err := h.uni.CheckInvariants(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			} else {
				if err := h.ram.CheckInvariants(); err != nil {
					t.Fatalf("round %d: ram: %v", round, err)
				}
				if err := h.flash.CheckInvariants(); err != nil {
					t.Fatalf("round %d: flash: %v", round, err)
				}
			}
		}
		if got != want {
			t.Fatalf("round %d: recorded %d blocks, trace had %d", round, got, want)
		}
	}
}

func TestDriverHeadOfLineWindow(t *testing.T) {
	// 50 ops on a single thread exceed the per-thread window, forcing
	// the pump to hold the trace head until the queue drains. All ops
	// must still complete in order.
	eng, hosts, _ := buildCluster(t, 1, baseCfg(Naive), testTiming(), false)
	var ops []trace.Op
	for i := 0; i < 50; i++ {
		ops = append(ops, trace.Op{Kind: trace.Read, File: 1, Block: uint32(i), Count: 1})
	}
	d, err := NewDriver(eng, hosts, trace.NewSliceSource(ops), 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if d.OpsCompleted() != 50 {
		t.Fatalf("completed %d of 50", d.OpsCompleted())
	}
}

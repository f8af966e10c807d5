// Package validate cross-checks the event-driven simulator against an
// independent direct-arithmetic model.
//
// The paper validated its simulator against NetApp's Mercury hardware
// (§6.1), matching throughput, latencies and hit rates within 10%. That
// hardware is unavailable, so this package substitutes the strongest check
// we can construct (see docs/ARCHITECTURE.md, "Departures from the
// paper"): replay the identical trace, in the identical single-threaded
// flash-only configuration the paper used for its validation ("we played them back directly through a ... flash cache
// ... we set the RAM cache size to zero"), through
//
//  1. the full event-driven stack (engine, devices, network, filer), and
//  2. a closed-form reference model that walks the trace accumulating
//     latency arithmetically from the same LRU and the same RNG draws.
//
// With one thread there is no queueing, so the two must agree *exactly*;
// any divergence exposes a bug in the event machinery, the cache paths, or
// the latency accounting.
package validate

import (
	"fmt"
	"math"

	"repro/flashsim"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Report carries both models' results.
type Report struct {
	StackReadMean  float64 // us
	RefReadMean    float64
	StackWriteMean float64
	RefWriteMean   float64

	StackFlashHits uint64
	RefFlashHits   uint64

	StackFilerFetches uint64
	RefFilerFetches   uint64

	// MaxRelError is the largest relative disagreement across the
	// compared quantities.
	MaxRelError float64
}

func relErr(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / den
}

// CrossCheck replays ops through both models and compares. Ops must be
// single-host single-thread (the validation configuration); flashBlocks
// sizes the cache.
func CrossCheck(flashBlocks int, ops []trace.Op, timing core.Timing, seed uint64) (*Report, error) {
	for _, op := range ops {
		if op.Host != 0 || op.Thread != 0 {
			return nil, fmt.Errorf("validate: ops must be single-host single-thread, got %v", op)
		}
	}

	// --- model 1: the full event-driven stack ---
	cfg := flashsim.Config{
		Hosts:          1,
		ThreadsPerHost: 1,
		RAMBlocks:      0,
		FlashBlocks:    flashBlocks,
		Arch:           flashsim.Naive,
		RAMPolicy:      flashsim.PolicyNone,
		FlashPolicy:    flashsim.PolicyNone,
		Timing:         timing,
		Workload: flashsim.Workload{ // required by validation; unused by RunTrace
			WorkingSetBlocks: 1,
		},
		Seed: seed,
	}
	res, err := flashsim.RunTrace(cfg, trace.NewSliceSource(ops), 0)
	if err != nil {
		return nil, err
	}

	// --- model 2: direct arithmetic reference ---
	// The stack derives the filer's RNG as Fork() of rng.New(cfg.Seed);
	// mirror that so the fast/slow read draws line up one-to-one.
	filerRNG := rng.New(seed).Fork()
	lru := cache.NewLRU(flashBlocks, cache.Flash)

	dataPacket := timing.NetBase + sim.Time(trace.BlockSize*8)*timing.NetPerBit
	emptyPacket := timing.NetBase
	filerWriteRT := dataPacket + timing.FilerWrite + emptyPacket

	filerRead := func() sim.Time {
		if filerRNG.Bool(timing.FilerFastReadRate) {
			return timing.FilerFastRead
		}
		return timing.FilerSlowRead
	}
	// makeRoom mirrors core.(*Host).makeRoom on the flash tier for the
	// single-threaded none-policy case: each dirty victim costs a
	// synchronous filer write round trip.
	makeRoom := func() sim.Time {
		var t sim.Time
		for lru.NeedsEviction() {
			v := lru.Victim()
			if v.Dirty {
				t += filerWriteRT
				lru.MarkClean(v)
			}
			lru.Remove(v)
		}
		return t
	}

	var refRead, refWrite sim.Time
	var refReads, refWrites uint64
	var refHits, refFetches uint64
	for _, op := range ops {
		for i := uint32(0); i < op.Count; i++ {
			key := cache.Key(trace.BlockKey(op.File, op.Block+i))
			if op.Kind == trace.Read {
				refReads++
				if e := lru.Get(key); e != nil {
					refHits++
					refRead += timing.FlashRead
					continue
				}
				refFetches++
				t := emptyPacket + filerRead() + dataPacket
				t += makeRoom()
				lru.Insert(key)
				refRead += t
			} else {
				refWrites++
				if e := lru.Get(key); e != nil {
					lru.MarkDirty(e)
					refWrite += timing.FlashWrite
					continue
				}
				t := makeRoom()
				e := lru.Insert(key)
				lru.MarkDirty(e)
				refWrite += t + timing.FlashWrite
			}
		}
	}

	rep := &Report{
		StackReadMean:     res.ReadLatencyMicros,
		StackWriteMean:    res.WriteLatencyMicros,
		StackFlashHits:    res.Hosts.FlashHits,
		StackFilerFetches: res.Hosts.FilerFetches,
		RefFlashHits:      refHits,
		RefFilerFetches:   refFetches,
	}
	if refReads > 0 {
		rep.RefReadMean = float64(refRead) / float64(refReads) / float64(sim.Microsecond)
	}
	if refWrites > 0 {
		rep.RefWriteMean = float64(refWrite) / float64(refWrites) / float64(sim.Microsecond)
	}
	for _, pair := range [][2]float64{
		{rep.StackReadMean, rep.RefReadMean},
		{rep.StackWriteMean, rep.RefWriteMean},
		{float64(rep.StackFlashHits), float64(rep.RefFlashHits)},
		{float64(rep.StackFilerFetches), float64(rep.RefFilerFetches)},
	} {
		if e := relErr(pair[0], pair[1]); e > rep.MaxRelError {
			rep.MaxRelError = e
		}
	}
	return rep, nil
}

// String summarises the comparison.
func (r *Report) String() string {
	return fmt.Sprintf(
		"stack: read %.3fus write %.3fus hits %d fetches %d\n"+
			"ref:   read %.3fus write %.3fus hits %d fetches %d\n"+
			"max relative error: %.4f%%",
		r.StackReadMean, r.StackWriteMean, r.StackFlashHits, r.StackFilerFetches,
		r.RefReadMean, r.RefWriteMean, r.RefFlashHits, r.RefFilerFetches,
		100*r.MaxRelError)
}

package core

import (
	"fmt"

	"repro/internal/sim"
)

// This file computes the epoch barrier schedule for sharded runs. Two
// schedules exist, selected per cluster at construction:
//
//   - The *pinned* schedule is the classic conservative walk: barriers one
//     filer-floor apart, jumping straight to the global event horizon when
//     every shard is idle longer than that. Its epoch grid depends only on
//     the filer's minimum service latency, which makes it part of the
//     stable surface that scenario goldens (trace feeds and fault events
//     anchor to barrier times) and the callback protocol (hop costs are
//     quantized in lookahead units, see clusterproto.go) are built on.
//
//   - The *adaptive* schedule widens each epoch to the bound the actual
//     interaction edges justify: the next barrier is placed one filer
//     floor past the global event horizon, plus one wire transit when no
//     request packet is in flight toward the filer anywhere. Busy runs
//     merge the empty barrier slots the pinned walk executes between
//     filer round-trips; idle stretches are skipped in one hop.
//
// Why the adaptive bound is safe (no completion is ever scheduled into a
// shard's past): every filer request gathered during the epoch (prev,
// next] arrives at some time at >= horizon, because the horizon is the
// earliest event any shard can execute after prev and an arrival is an
// event. Its completion is scheduled at at + lat with lat >= floor, so
// completions land at or after horizon + floor = next — the next barrier
// — and never before a shard's clock. When additionally no up-direction
// packet is in flight at prev, any arrival must first be *sent* by an
// event at s >= horizon and then cross the wire, so at >= horizon +
// upTransit, buying one more transit of epoch width. Both inputs (global
// horizon, global in-flight count) are functions of whole-simulation
// state, so the barrier schedule — and with it every delivery decision —
// stays identical for every shard count.
type edgeLookahead struct {
	// floor is the host→filer service edge: the smallest latency the
	// filer ever adds to a request (filer.MinServiceLatency). Every
	// partition and replica shares it — the slow-replica factor only
	// scales latencies up, and a crashed replica can only raise a group's
	// true minimum — so one floor bounds the edge to any backend a future
	// request could route to, through any crash/recover sequence.
	floor sim.Time
	// upTransit is the network edge: the minimum one-way wire latency
	// (netsim Segment.Lookahead) over every host's request lanes.
	upTransit sim.Time
	// adaptive selects the widened schedule; false pins the classic
	// fixed-lookahead walk.
	adaptive bool
}

// newEdgeLookahead validates the edge bounds. The filer floor must be
// positive — a zero floor would admit same-instant request/response
// cycles that no finite epoch can cut. A zero upTransit is legal (a free
// wire simply contributes no widening); a negative one is a config bug.
func newEdgeLookahead(floor, upTransit sim.Time, adaptive bool) (edgeLookahead, error) {
	if floor <= 0 {
		return edgeLookahead{}, fmt.Errorf("core: sharded run needs a positive filer service latency (epoch lookahead)")
	}
	if upTransit < 0 {
		return edgeLookahead{}, fmt.Errorf("core: negative network transit %v", upTransit)
	}
	return edgeLookahead{floor: floor, upTransit: upTransit, adaptive: adaptive}, nil
}

// next places the barrier after prev. horizon is the globally earliest
// pending event (horizonOK false when every engine is drained); upInFlight
// reports whether any request packet is mid-wire toward the filer. The
// result is always strictly after prev.
func (l edgeLookahead) next(prev, horizon sim.Time, horizonOK, upInFlight bool) sim.Time {
	if !l.adaptive {
		next := prev + l.floor
		if horizonOK && horizon > next {
			return horizon
		}
		return next
	}
	if !horizonOK {
		return prev + l.floor
	}
	next := horizon + l.floor
	if !upInFlight {
		next += l.upTransit
	}
	if next <= prev {
		// Degenerate guard: the horizon can never precede the last
		// barrier, but keep the schedule advancing regardless.
		next = prev + l.floor
	}
	return next
}

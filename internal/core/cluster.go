package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/filer"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements fleet-scale sharded execution: one logical
// simulation partitioned across OS threads. Hosts are divided round-robin
// among shards, each shard owning a private sim.Engine that advances its
// hosts' events (caches, flash devices, network segments, per-host trace
// drivers) independently. Hosts interact only through the shared filer and
// through cache invalidations, and both interactions are mediated by a
// conservative epoch barrier:
//
//   - Filer traffic. When a request packet finishes crossing a host's
//     segment, the host's FilerPort records (arrivalTime, host, seq) in the
//     shard's outbox instead of touching the filer. At the next barrier the
//     coordinator sorts all arrivals by that key — a total order that is
//     independent of how hosts are partitioned — services the filer
//     (consuming its RNG stream in exactly that order), and schedules each
//     completion back on the owning host's engine. The epoch length is
//     capped by the filer's minimum service latency, so a completion is
//     always scheduled in its shard's future.
//
//   - Invalidations. A block write records (writeTime, writer, seq, key);
//     at the next barrier every other host drops its copy, in the same
//     partition-independent order. This defers the paper's "instant"
//     invalidation (§3.8) by at most one epoch (bounded by the lookahead,
//     tens of microseconds) — a deliberate, documented relaxation that
//     makes the result bit-identical for every shard count.
//
//   - Protocol callbacks. Under the callback consistency protocol
//     (ClusterSpec.ConsistencyProtocol) every ownership acquisition,
//     holder callback, ack and downgrade is itself a cross-shard control
//     message: it rides the sending host's network segment, enters the
//     shard outbox on arrival, and is processed by the barrier coordinator
//     in the same globally sorted (arrivalTime, host, seq) order. See
//     clusterproto.go.
//
// The invariant delivered: for a fixed configuration, a Cluster run
// produces byte-identical results for ANY number of shards (1, 2, 4, 8,
// ...), because every cross-host interaction is ordered by keys computed
// from host-local deterministic state, never by scheduling interleave.
// Cluster semantics differ slightly from the sequential Driver path (per-
// host pump windows, barrier-deferred invalidation and callbacks,
// barrier-quantized syncer shutdown), so sharded results are compared
// against each other — and validated statistically against sequential
// runs — rather than byte-compared against sequential goldens.
// docs/ARCHITECTURE.md spells out the contract.
//
// Beyond the one-shot Run, the cluster exposes a step API — Start, Advance
// (run barrier cycles to idle or to a pause time), Close — that scenario
// runs and crash-recovery prestarts drive: scripted fault events execute
// between epochs with every shard quiescent, per-phase trace is fed to the
// per-host drivers at barriers, and telemetry samples are taken at barrier
// times forced onto the sampling grid. All of those decisions are
// functions of global state at shard-count-invariant barrier times, so the
// invariance contract extends to scenario runs.

// filerMsg is one host→filer service request crossing a shard boundary.
type filerMsg struct {
	at    sim.Time // arrival time at the filer (up-segment transit end)
	host  int32
	seq   uint64 // per-host issue counter; breaks same-instant ties
	part  int32  // filer backend partition the key routes to
	write bool
	fast  bool  // reads: the pre-drawn fast/slow outcome (service phase 1)
	rep   int32 // reads: the pre-drawn serving replica (service phase 1)
	key   uint64
	fn    func(any)
	arg   any
}

// invMsg is one write notification awaiting barrier-deferred invalidation.
type invMsg struct {
	at      sim.Time
	writer  int32
	seq     uint64
	key     uint64
	collect bool
}

// clusterPort is the per-host FilerPort of a sharded run: it appends the
// request to the shard's per-partition outbox lane for the key's filer
// backend (routing is a pure hash, safe on the shard goroutine). It runs
// on the shard's goroutine only.
type clusterPort struct {
	sh   *clusterShard
	host int32
	seq  uint64
}

func (p *clusterPort) Read2(key uint64, fn func(any), arg any) {
	p.seq++
	part := p.sh.route(key)
	p.sh.outMsgs[part] = append(p.sh.outMsgs[part],
		filerMsg{at: p.sh.eng.Now(), host: p.host, seq: p.seq, part: part, key: key, fn: fn, arg: arg})
}

func (p *clusterPort) Write2(key uint64, fn func(any), arg any) {
	p.seq++
	part := p.sh.route(key)
	p.sh.outMsgs[part] = append(p.sh.outMsgs[part],
		filerMsg{at: p.sh.eng.Now(), host: p.host, seq: p.seq, part: part, key: key, write: true, fn: fn, arg: arg})
}

// clusterSink is the per-host ConsistencyPort of a sharded instant-mode
// run. Both operations proceed at once (invalidation is free, §3.8); a
// write also records (writer, key), and remote copies drop at the next
// epoch barrier instead of this very instant.
type clusterSink struct {
	sh  *clusterShard
	h   *Host
	seq uint64
}

func (s *clusterSink) AcquireRead(_ uint64, fn func(any), arg any) { fn(arg) }

func (s *clusterSink) AcquireWrite(key uint64, fn func(any), arg any) {
	s.seq++
	s.sh.outInv = append(s.sh.outInv,
		invMsg{at: s.sh.eng.Now(), writer: int32(s.h.cfg.ID), seq: s.seq, key: key, collect: s.h.collect})
	fn(arg)
}

// clusterShard is one shard: a private engine plus the hosts and per-host
// drivers assigned to it. Everything inside is touched either by the
// shard's worker goroutine (during an epoch) or by the coordinator
// (between epochs); the channel handshake orders the two.
type clusterShard struct {
	eng     *sim.Engine
	hosts   []*Host
	drivers []*Driver
	reqs    reqArena // request records for every host on the shard (req.go)

	// route maps a block key to its filer backend partition (the filer's
	// pure hash, shared by every shard).
	route func(uint64) int32

	// outMsgs is one outbox lane per filer partition; sealOutbox merges
	// the lanes into sealed — the shard's globally mergeable sorted stream
	// — on the shard's own goroutine at the epoch barrier, keeping the
	// per-partition bookkeeping out of the coordinator's serial section.
	outMsgs   [][]filerMsg
	sealed    []filerMsg
	outSorted []filerMsg   // backing store sealed points into when lanes merge
	outHeads  [][]filerMsg // merge head scratch, reused across epochs
	outInv    []invMsg
	outProto  []protoMsg

	// Barrier-deferred invalidation delivery (worker side). res indexes
	// block residency so a batch message visits only actual holders; it
	// is nil under the callback protocol (which never uses the batch) and
	// in untracked runs.
	res           *residencyIndex
	invDrops      []bool // per message of the current batch: a local copy dropped
	invalidations uint64 // local copies dropped while collecting

	// upInFlight counts this shard's request packets currently crossing
	// the wire toward the filer (incremented at Send2(ToFiler), decremented
	// on arrival). The coordinator sums the shards between epochs: a
	// globally empty up-direction lets the adaptive schedule add one wire
	// transit to the epoch bound (see lookahead.go). Only maintained when
	// the adaptive schedule is active.
	upInFlight int64

	// inboxLanes holds the filer completions the barrier serviced, one
	// lane per filer partition: the service phase appends each completion
	// to its (owning shard, partition) lane, so distinct partitions write
	// distinct slices and may be serviced concurrently. The worker merges
	// and schedules the lanes itself at the start of the next epoch,
	// keeping the coordinator's between-epoch work flat in the message
	// count. laneMin[p] (valid while lane p is non-empty) folds into the
	// event horizon, which must see pending completions.
	inboxLanes   [][]schedEvent
	laneMin      []sim.Time
	inboxScratch []schedEvent

	// execNanos is this shard's cumulative wall time spent executing
	// epochs (inbox delivery, event execution, outbox sealing). Written by
	// the shard's goroutine, read by the coordinator between epochs (the
	// channel handshake orders the two); only maintained when the cluster
	// carries a wall-clock profiler.
	execNanos int64

	cmd  chan sim.Time
	done chan struct{}
}

// schedEvent is one barrier-serviced completion awaiting delivery onto a
// shard engine. The arrival key (arrAt, host, seq) rides along so lane
// delivery can restore the canonical global order: the engine runs
// equal-time events in insertion order, and inserting by (at, then
// arrival key) is exactly the order the pre-partitioned coordinator
// produced by appending completions as it walked the sorted batch.
type schedEvent struct {
	at    sim.Time // completion time on the host's engine
	arrAt sim.Time // arrival time at the filer (the service-order key)
	host  int32
	seq   uint64
	fn    func(any)
	arg   any
}

// cmpSchedEvent orders lane-merged completions for delivery: completion
// time first, then the partition-independent arrival key. The key triple
// is unique per message, so the order is total and sort-algorithm
// independent.
func cmpSchedEvent(a, b schedEvent) int {
	switch {
	case a.at != b.at:
		if a.at < b.at {
			return -1
		}
		return 1
	case a.arrAt != b.arrAt:
		if a.arrAt < b.arrAt {
			return -1
		}
		return 1
	case a.host != b.host:
		if a.host < b.host {
			return -1
		}
		return 1
	case a.seq != b.seq:
		if a.seq < b.seq {
			return -1
		}
		return 1
	}
	return 0
}

// beginEpoch is the worker-side barrier entry: deliver the completions
// the barrier serviced, size and clear the invalidation drop flags, and
// drop the local copies the batch names — all before any of the epoch's
// events run.
func (sh *clusterShard) beginEpoch(inv []invMsg) {
	sh.deliverInbox()
	if cap(sh.invDrops) < len(inv) {
		sh.invDrops = make([]bool, len(inv))
	}
	sh.invDrops = sh.invDrops[:len(inv)]
	clear(sh.invDrops)
	sh.applyInvalidations(inv)
}

// deliverInbox merges the per-partition completion lanes and schedules
// them onto the shard engine in canonical (completion, arrival) order —
// see schedEvent. Delivering in ascending completion time also happens to
// be the engine heap's cheapest insertion order.
func (sh *clusterShard) deliverInbox() {
	sh.inboxScratch = sh.inboxScratch[:0]
	for p := range sh.inboxLanes {
		sh.inboxScratch = append(sh.inboxScratch, sh.inboxLanes[p]...)
		sh.inboxLanes[p] = sh.inboxLanes[p][:0]
	}
	if len(sh.inboxScratch) == 0 {
		return
	}
	slices.SortFunc(sh.inboxScratch, cmpSchedEvent)
	for i := range sh.inboxScratch {
		ev := &sh.inboxScratch[i]
		sh.eng.At2(ev.at, ev.fn, ev.arg)
	}
}

// sealOutbox canonicalizes this shard's per-partition outbox lanes and
// merges them into one sorted stream for the coordinator's global merge.
// It runs on the shard's goroutine (the coordinator's in inline mode), so
// with several shards the per-partition merge work is itself parallel.
func (sh *clusterShard) sealOutbox() {
	for p := range sh.outMsgs {
		canonicalizeRuns(sh.outMsgs[p], filerMsgAt, cmpFilerMsg)
	}
	if len(sh.outMsgs) == 1 {
		sh.sealed = sh.outMsgs[0]
		return
	}
	sh.outHeads = sh.outHeads[:0]
	for p := range sh.outMsgs {
		sh.outHeads = append(sh.outHeads, sh.outMsgs[p])
	}
	sh.outSorted = mergeSorted(sh.outSorted[:0], sh.outHeads, cmpFilerMsg)
	sh.sealed = sh.outSorted
}

// applyInvalidations drops local copies named by the sorted batch, before
// any of the epoch's events run. Invalidation messages come only from
// instant-mode runs, in which NewCluster gives every shard a residency
// index (shards are clamped to the host count, so each holds a host). The
// per-message work is therefore proportional to the hosts actually holding
// the block, visited in ascending local (= global, within a shard) ID
// order.
func (sh *clusterShard) applyInvalidations(batch []invMsg) {
	for i := range batch {
		m := &batch[i]
		// Snapshot the holders first: invalidate fires the residency
		// hooks, which mutate the set being read.
		sh.res.scratch = sh.res.appendLocals(sh.res.scratch[:0], m.key)
		for _, li := range sh.res.scratch {
			h := sh.hosts[li]
			if h.ID() == int(m.writer) {
				continue
			}
			if h.invalidate(m.key) {
				sh.invDrops[i] = true
				if m.collect {
					sh.invalidations++
				}
			}
		}
	}
}

// ClusterSpec describes a sharded simulation.
type ClusterSpec struct {
	// Shards is the number of engine partitions; <= 0 selects
	// runtime.GOMAXPROCS(0). It is clamped to the host count.
	Shards int

	// Hosts configures each host; host i runs on shard i % Shards.
	Hosts []HostConfig

	// Timing is the shared timing model.
	Timing Timing

	// NewFiler builds the shared filer. The engine argument is shard 0's
	// engine; the barrier services the filer directly, so the engine is
	// only a construction convenience.
	NewFiler func(*sim.Engine) *filer.Filer

	// Sources holds each host's private trace stream (same length as
	// Hosts).
	Sources []trace.Source

	// ConsistencyProtocol switches from instant (barrier-deferred)
	// invalidation to the callback ownership protocol: writers acquire
	// exclusive ownership through the barrier coordinator, paying
	// control-message transits and holder callbacks; readers of an
	// exclusively-owned block force a downgrade and dirty flush. The
	// sharded analogue of TrackConsistency's protocol mode. Like the
	// barrier-deferred accounting, it applies only to clusters of more
	// than one host: a single host has nothing to invalidate.
	ConsistencyProtocol bool

	// FixedLookahead pins the epoch schedule to the classic fixed-
	// lookahead walk: barriers one filer floor apart, jumping over idle
	// stretches. Scenario runs set it — their trace feeds and fault
	// events anchor to barrier times, making the barrier grid part of
	// their golden surface — and ConsistencyProtocol implies it, since
	// protocol hop costs are quantized in lookahead units. When false,
	// the cluster uses the adaptive per-edge schedule (lookahead.go),
	// which merges barriers the fixed walk executes needlessly.
	FixedLookahead bool

	// Tracer, when non-nil, samples request lifecycles on every host.
	// Tracing records simulated timestamps only — no events, no RNG — so
	// results are bit-identical with or without it (see internal/obs).
	Tracer *obs.Tracer

	// WallProfile enables the cluster's wall-clock self-profiler:
	// per-shard execution vs barrier-wait time, coordinator merge and
	// filer service phases. Off by default; the profiled run pays a few
	// clock reads per epoch.
	WallProfile bool
}

// Cluster is a sharded simulation: hosts partitioned over per-shard
// engines, synchronized by a conservative epoch barrier (see the file
// comment for the protocol and its determinism contract).
type Cluster struct {
	shards    []*clusterShard
	hosts     []*Host   // by host ID
	drivers   []*Driver // by host ID
	hostShard []*clusterShard
	fsrv      *filer.Filer
	nparts    int      // filer backend partitions
	lookahead sim.Time // the filer floor: protocol hop cost and pinned epoch length
	bound     edgeLookahead

	// Coordinator state between epochs. The batches and the per-shard
	// merge source slices are reused across epochs (see gather), as are
	// the per-partition service index lists (see serviceFiler).
	msgBatch   []filerMsg
	invBatch   []invMsg
	protoBatch []protoMsg
	srcMsgs    [][]filerMsg
	srcInv     [][]invMsg
	srcProto   [][]protoMsg
	partIdx    [][]int32
	cons       ConsistencyStats
	track      bool
	proto      *protoCoordinator   // nil outside protocol runs
	protoPorts []*clusterProtoPort // by host ID; nil outside protocol runs

	// Lifecycle (see Start/StartDrivers/Advance/RunToCompletion/Close).
	started        bool
	inline         bool // epochs run on the coordinator goroutine itself
	closed         bool
	driversStarted bool
	autoStop       bool // RunToCompletion: stop syncers at the barrier after trace completion
	syncersStopped bool
	end            sim.Time // the barrier the next Advance cycle runs to
	wg             sync.WaitGroup
	partWake       []chan struct{} // phase-2 partition workers (see serviceFiler); nil when inline or unpartitioned
	partDone       chan struct{}   // one receive per woken partition worker
	epochs         uint64
	barrierMsgs    uint64

	// Wall-clock self-profiling (ClusterSpec.WallProfile). wall is built
	// in Start (the inline decision feeds it); wallExec is the coordinator's
	// reusable per-shard execNanos snapshot and wallPrev the previous
	// barrier time (the epoch's simulated length).
	profile  bool
	wall     *obs.WallCollector
	wallExec []int64
	wallPrev sim.Time
}

// NewCluster builds the sharded simulation described by the spec.
func NewCluster(spec ClusterSpec) (*Cluster, error) {
	n := len(spec.Hosts)
	if n == 0 {
		return nil, fmt.Errorf("core: cluster needs at least one host")
	}
	if len(spec.Sources) != n {
		return nil, fmt.Errorf("core: cluster needs one trace source per host")
	}
	if spec.NewFiler == nil {
		return nil, fmt.Errorf("core: cluster needs a filer constructor")
	}
	shards := spec.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}

	c := &Cluster{
		shards:    make([]*clusterShard, shards),
		hosts:     make([]*Host, n),
		drivers:   make([]*Driver, n),
		hostShard: make([]*clusterShard, n),
		track:     n > 1,
		profile:   spec.WallProfile,
	}
	for s := range c.shards {
		c.shards[s] = &clusterShard{
			eng:  &sim.Engine{},
			cmd:  make(chan sim.Time),
			done: make(chan struct{}),
		}
	}
	c.fsrv = spec.NewFiler(c.shards[0].eng)
	c.nparts = c.fsrv.Partitions()
	c.lookahead = c.fsrv.MinServiceLatency()
	c.partIdx = make([][]int32, c.nparts)
	route := func(key uint64) int32 { return int32(c.fsrv.Route(key)) }
	for _, sh := range c.shards {
		sh.route = route
		sh.outMsgs = make([][]filerMsg, c.nparts)
		sh.inboxLanes = make([][]schedEvent, c.nparts)
		sh.laneMin = make([]sim.Time, c.nparts)
	}
	protocol := spec.ConsistencyProtocol && c.track
	adaptive := !spec.FixedLookahead && !protocol
	upTransit := sim.Time(-1) // min wire transit over every request lane, found below

	if protocol {
		c.proto = newProtoCoordinator(c)
		c.protoPorts = make([]*clusterProtoPort, n)
	}

	for i, hc := range spec.Hosts {
		sh := c.shards[i%shards]
		seg := netsim.NewSegment(sh.eng, spec.Timing.NetBase, spec.Timing.NetPerBit)
		bgSeg := netsim.NewSegment(sh.eng, spec.Timing.NetBase, spec.Timing.NetPerBit)
		for _, s := range []*netsim.Segment{seg, bgSeg} {
			if lk := s.Lookahead(); upTransit < 0 || lk < upTransit {
				upTransit = lk
			}
		}
		h, err := NewHost(sh.eng, hc, spec.Timing, seg, bgSeg,
			&clusterPort{sh: sh, host: int32(i)})
		if err != nil {
			return nil, err
		}
		h.reqs = &sh.reqs
		if spec.Tracer != nil {
			// Per-host buffers are touched only by the owning shard's
			// goroutine; the barrier handshake orders the final merge.
			h.SetTrace(spec.Tracer.Host(i))
		}
		if adaptive {
			h.setUpCounter(&sh.upInFlight)
		}
		if c.proto != nil {
			p := &clusterProtoPort{sh: sh, h: h, host: int32(i), co: c.proto}
			c.protoPorts[i] = p
			h.SetConsistencyPort(p)
		} else if c.track {
			h.SetConsistencyPort(&clusterSink{sh: sh, h: h})
			if sh.res == nil {
				// Shard s holds hosts s, s+shards, ...
				sh.res = newResidencyIndex((n - i%shards + shards - 1) / shards)
			}
			sh.res.addHost(h, i/shards)
		}
		drv, err := NewDriver(sh.eng, []*Host{h}, spec.Sources[i], 0)
		if err != nil {
			return nil, err
		}
		sh.hosts = append(sh.hosts, h)
		sh.drivers = append(sh.drivers, drv)
		c.hosts[i] = h
		c.drivers[i] = drv
		c.hostShard[i] = sh
	}
	var err error
	if c.bound, err = newEdgeLookahead(c.fsrv.PartitionFloors(), upTransit, adaptive); err != nil {
		return nil, err
	}
	return c, nil
}

// Shards returns the number of engine partitions.
func (c *Cluster) Shards() int { return len(c.shards) }

// Lookahead returns the epoch length bound.
func (c *Cluster) Lookahead() sim.Time { return c.lookahead }

// Hosts returns the hosts in ID order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Filer returns the shared filer.
func (c *Cluster) Filer() *filer.Filer { return c.fsrv }

// Drivers returns the per-host trace drivers in host-ID order. Scenario
// runs feed and poll them between epochs.
func (c *Cluster) Drivers() []*Driver { return c.drivers }

// Consistency returns the invalidation accounting (zero for a single-host
// cluster). Under the callback protocol the coordinator's counters are
// folded together with the per-host port counters (silent-owner writes,
// request-side control messages); call it only between epochs or after
// the run.
func (c *Cluster) Consistency() ConsistencyStats {
	cons := c.cons
	if c.proto != nil {
		c.proto.fold(&cons)
		for _, p := range c.protoPorts {
			p.fold(&cons)
		}
	}
	return cons
}

// Epochs returns the number of barrier intervals executed.
func (c *Cluster) Epochs() uint64 { return c.epochs }

// BarrierMessages returns the total number of cross-shard messages
// exchanged at barriers (filer arrivals, invalidations and protocol
// traffic combined). Both counters are properties of the global barrier
// schedule, so they are invariant across shard counts.
func (c *Cluster) BarrierMessages() uint64 { return c.barrierMsgs }

// WallProfile returns the finished wall-clock breakdown of the run, or
// nil when ClusterSpec.WallProfile was off. Call it after the run (or
// between epochs): it flushes the profiler's partial window.
func (c *Cluster) WallProfile() *obs.WallProfile {
	if c.wall == nil {
		return nil
	}
	return c.wall.Finish(c.wallPrev)
}

// Now returns the completion time of the simulation: the latest event any
// shard executed.
func (c *Cluster) Now() sim.Time {
	var t sim.Time
	for _, sh := range c.shards {
		if at := sh.eng.LastEventAt(); at > t {
			t = at
		}
	}
	return t
}

// Events returns the total events executed across shards.
func (c *Cluster) Events() uint64 {
	var n uint64
	for _, sh := range c.shards {
		n += sh.eng.Processed()
	}
	return n
}

// OpsCompleted sums the per-host drivers' completed trace ops.
func (c *Cluster) OpsCompleted() uint64 {
	var n uint64
	for _, d := range c.drivers {
		n += d.OpsCompleted()
	}
	return n
}

// BlocksIssued sums the per-host drivers' issued block accesses.
func (c *Cluster) BlocksIssued() uint64 {
	var n uint64
	for _, d := range c.drivers {
		n += d.BlocksIssued()
	}
	return n
}

// worker is one shard's goroutine: per epoch it delivers the barrier's
// serviced completions, applies the coordinator's invalidation batch,
// advances its engine to the epoch end, then seals its outbox lanes into
// one sorted stream so the coordinator's serial merge stays S-way.
func (c *Cluster) worker(sh *clusterShard) {
	defer c.wg.Done()
	for end := range sh.cmd {
		if c.wall == nil {
			sh.beginEpoch(c.invBatch)
			sh.eng.RunUntil(end)
			sh.sealOutbox()
		} else {
			t0 := time.Now()
			sh.beginEpoch(c.invBatch)
			sh.eng.RunUntil(end)
			sh.sealOutbox()
			sh.execNanos += int64(time.Since(t0))
		}
		sh.done <- struct{}{}
	}
}

// runEpoch advances every shard to end — in parallel through the workers,
// or inline on this goroutine when parallelism cannot pay (one shard, or
// a single-processor runtime where the channel handshake is pure cost).
func (c *Cluster) runEpoch(end sim.Time) {
	if c.inline {
		for _, sh := range c.shards {
			if c.wall == nil {
				sh.beginEpoch(c.invBatch)
				sh.eng.RunUntil(end)
				sh.sealOutbox()
				continue
			}
			t0 := time.Now()
			sh.beginEpoch(c.invBatch)
			sh.eng.RunUntil(end)
			sh.sealOutbox()
			sh.execNanos += int64(time.Since(t0))
		}
		return
	}
	for _, sh := range c.shards {
		sh.cmd <- end
	}
	for _, sh := range c.shards {
		<-sh.done
	}
}

// gather collects the shard outboxes into the coordinator's batches and
// reduces the previous epoch's invalidation drop flags.
func (c *Cluster) gather() {
	// Reduce the delivered invalidation batch: a write counts as
	// "invalidating" if any shard dropped a copy for it.
	for i := range c.invBatch {
		m := &c.invBatch[i]
		if !m.collect {
			continue
		}
		c.cons.BlocksWritten++
		dropped := false
		for _, sh := range c.shards {
			if sh.invDrops[i] {
				dropped = true
			}
		}
		if dropped {
			c.cons.WritesInvalidating++
		}
	}
	for _, sh := range c.shards {
		c.cons.Invalidations += sh.invalidations
		sh.invalidations = 0
	}

	// Merge the shard streams into the reused batches — the full global
	// order by the partition-independent delivery keys, with no per-epoch
	// allocation (see exchange.go). The filer streams were canonicalized
	// and partition-merged ("sealed") on the shard goroutines at the
	// barrier; the invalidation and protocol outboxes are single-lane and
	// canonicalized here. The workers size and clear their own drop flags
	// at the next epoch's start.
	c.msgBatch = c.msgBatch[:0]
	c.invBatch = c.invBatch[:0]
	c.protoBatch = c.protoBatch[:0]
	c.srcMsgs = c.srcMsgs[:0]
	c.srcInv = c.srcInv[:0]
	c.srcProto = c.srcProto[:0]
	for _, sh := range c.shards {
		canonicalizeRuns(sh.outInv, invMsgAt, cmpInvMsg)
		canonicalizeRuns(sh.outProto, protoMsgAt, cmpProtoMsg)
		c.srcMsgs = append(c.srcMsgs, sh.sealed)
		c.srcInv = append(c.srcInv, sh.outInv)
		c.srcProto = append(c.srcProto, sh.outProto)
	}
	c.msgBatch = mergeSorted(c.msgBatch, c.srcMsgs, cmpFilerMsg)
	c.invBatch = mergeSorted(c.invBatch, c.srcInv, cmpInvMsg)
	c.protoBatch = mergeSorted(c.protoBatch, c.srcProto, cmpProtoMsg)
	c.barrierMsgs += uint64(len(c.msgBatch) + len(c.invBatch) + len(c.protoBatch))
	for _, sh := range c.shards {
		for p := range sh.outMsgs {
			sh.outMsgs[p] = sh.outMsgs[p][:0]
		}
		sh.sealed = nil
		sh.outInv = sh.outInv[:0]
		sh.outProto = sh.outProto[:0]
	}
}

// serviceFiler services every gathered arrival in two phases. Phase 1 is
// serial and order-critical: it walks the globally sorted batch drawing
// the fast/slow outcome for each read — the draw order is what keeps the
// filer's RNG stream shard- and partition-count invariant — while
// building the per-partition index lists and recording each backend's
// barrier queue depth. Phase 2 carries no RNG and no cross-partition
// state: each partition's requests take their tier latencies and land in
// the owning shard's per-partition inbox lane; with several backends and
// real parallelism the partitions are serviced concurrently (distinct
// partitions touch distinct filer counters, residency maps and lane
// slices). The shard merges and schedules its lanes at the next epoch's
// start, restoring the canonical order (see schedEvent). Completions
// always land at or after the next barrier because the epoch bound never
// outruns the arrival-plus-floor guarantee (lookahead.go).
func (c *Cluster) serviceFiler() {
	if len(c.msgBatch) == 0 {
		return
	}
	var t0 time.Time
	if c.wall != nil {
		t0 = time.Now()
	}
	for p := range c.partIdx {
		c.partIdx[p] = c.partIdx[p][:0]
	}
	for i := range c.msgBatch {
		m := &c.msgBatch[i]
		if !m.write {
			m.fast, m.rep = c.fsrv.DrawReadAt(int(m.part))
		}
		c.partIdx[m.part] = append(c.partIdx[m.part], int32(i))
	}
	for p := range c.partIdx {
		c.fsrv.ObserveBarrierQueue(p, len(c.partIdx[p]))
	}
	if c.wall != nil {
		now := time.Now()
		c.wall.AddFiler1(now.Sub(t0))
		t0 = now
	}

	if c.parallelPhase2() {
		woken := 0
		for p := range c.partIdx {
			if len(c.partIdx[p]) == 0 {
				continue
			}
			c.partWake[p] <- struct{}{}
			woken++
		}
		for ; woken > 0; woken-- {
			<-c.partDone
		}
	} else {
		for p := range c.partIdx {
			c.servicePartition(p)
		}
	}
	if c.wall != nil {
		c.wall.AddFiler2(time.Since(t0))
	}
}

// parallelPhase2 reports whether serviceFiler fans phase 2 out to the
// partition workers. That pays only when there are multiple backends, real
// processors (the persistent workers exist), and a batch big enough to
// amortize the channel handshakes; the gate reads only batch shape, never
// results (phase 2 is order-independent, so the cut-over cannot change
// them).
func (c *Cluster) parallelPhase2() bool {
	return c.partWake != nil && len(c.msgBatch) >= 4*c.nparts
}

// partWorker is partition p's persistent phase-2 goroutine: each wake
// services the partition's share of the barrier batch and reports on the
// shared done channel.
func (c *Cluster) partWorker(p int) {
	defer c.wg.Done()
	for range c.partWake[p] {
		c.servicePartition(p)
		c.partDone <- struct{}{}
	}
}

// servicePartition is serviceFiler's phase 2 for one backend partition:
// tier bookkeeping, latency, and delivery into per-(shard,partition)
// inbox lanes. Safe to run concurrently with other partitions.
func (c *Cluster) servicePartition(p int) {
	for _, i := range c.partIdx[p] {
		m := &c.msgBatch[i]
		var lat sim.Time
		if m.write {
			lat = c.fsrv.ServeWrite(p, m.key)
		} else {
			lat = c.fsrv.ServeRead(p, m.rep, m.key, m.fast)
		}
		sh := c.hostShard[m.host]
		at := m.at + lat
		if len(sh.inboxLanes[p]) == 0 || at < sh.laneMin[p] {
			sh.laneMin[p] = at
		}
		sh.inboxLanes[p] = append(sh.inboxLanes[p],
			schedEvent{at: at, arrAt: m.at, host: m.host, seq: m.seq, fn: m.fn, arg: m.arg})
	}
}

// idle reports whether no exchange message is waiting and no engine holds
// a non-daemon event: nothing but background daemon ticks can ever happen
// again. A pending protocol request always keeps at least one callback
// event or ack message alive (see clusterproto.go), so an idle cluster
// with outstanding protocol state is a lost-message bug; fail loudly.
func (c *Cluster) idle() bool {
	if len(c.msgBatch) > 0 || len(c.invBatch) > 0 || len(c.protoBatch) > 0 {
		return false
	}
	for _, sh := range c.shards {
		if sh.eng.NonDaemonPending() > 0 {
			return false
		}
	}
	if c.proto != nil && c.proto.pending() > 0 {
		panic("core: cluster idle with protocol requests outstanding")
	}
	return true
}

// nextEpochEnd picks the next barrier time from the active schedule
// (lookahead.go): the pinned walk places it one filer floor ahead with a
// jump over idle stretches; the adaptive schedule places it one floor —
// plus one wire transit when the up-direction is globally empty — past
// the event horizon. Every input is a function of global simulation
// state, so the barrier schedule — and with it every delivery decision —
// is identical for every shard count.
func (c *Cluster) nextEpochEnd(end sim.Time) sim.Time {
	horizon, ok := c.eventHorizon()
	inFlight := false
	if c.bound.adaptive {
		for _, sh := range c.shards {
			if sh.upInFlight != 0 {
				inFlight = true
				break
			}
		}
	}
	return c.bound.next(end, horizon, ok, inFlight)
}

// eventHorizon returns the globally earliest pending event — across the
// shard engines and the not-yet-delivered barrier completions in the
// shards' per-partition inbox lanes — or false when nothing is pending
// anywhere.
func (c *Cluster) eventHorizon() (sim.Time, bool) {
	var minAt sim.Time
	found := false
	for _, sh := range c.shards {
		if at, ok := sh.eng.NextEventAt(); ok && (!found || at < minAt) {
			minAt, found = at, true
		}
		for p := range sh.inboxLanes {
			if len(sh.inboxLanes[p]) > 0 && (!found || sh.laneMin[p] < minAt) {
				minAt, found = sh.laneMin[p], true
			}
		}
	}
	return minAt, found
}

// Start spawns the shard worker goroutines and, with several filer
// partitions, the phase-2 partition workers. It must be called (directly
// or via Run) before Advance; pair it with Close.
func (c *Cluster) Start() {
	if c.started {
		panic("core: cluster already started")
	}
	c.started = true
	// Worker goroutines only pay off with real parallelism: on a single
	// processor (or a single shard) the channel handshake per epoch is
	// pure overhead, so the coordinator runs the epochs itself.
	c.inline = len(c.shards) == 1 || runtime.GOMAXPROCS(0) == 1
	if c.profile {
		c.wall = obs.NewWallCollector(len(c.shards), !c.inline)
		c.wallExec = make([]int64, len(c.shards))
	}
	if c.inline {
		return
	}
	for _, sh := range c.shards {
		c.wg.Add(1)
		go c.worker(sh)
	}
	if c.nparts > 1 {
		c.partWake = make([]chan struct{}, c.nparts)
		c.partDone = make(chan struct{})
		for p := range c.partWake {
			c.partWake[p] = make(chan struct{})
			c.wg.Add(1)
			go c.partWorker(p)
		}
	}
}

// Close stops the shard and partition workers. Safe to call more than
// once; Run calls it automatically.
func (c *Cluster) Close() {
	if !c.started || c.closed {
		return
	}
	c.closed = true
	if !c.inline {
		for _, sh := range c.shards {
			close(sh.cmd)
		}
		for _, ch := range c.partWake {
			close(ch)
		}
		c.wg.Wait()
	}
}

// StartDrivers primes every per-host trace driver: host i collects
// statistics once it has issued warmup[i] blocks (nil: from the first
// block), and the initial op windows are pumped, scheduling each host's
// first events. Run calls it; step-mode users call it once after any
// prestart work (e.g. crash recovery) has drained.
func (c *Cluster) StartDrivers(warmup []int64) {
	if c.driversStarted {
		panic("core: cluster drivers already started")
	}
	c.driversStarted = true
	for i, d := range c.drivers {
		if warmup != nil {
			d.warmupBlocks = warmup[i]
		}
		d.start()
	}
}

// StopSyncers halts every host's periodic writeback daemons. Scenario runs
// call it during wind-down, exactly like the sequential path.
func (c *Cluster) StopSyncers() {
	for _, h := range c.hosts {
		h.StopSyncers()
	}
}

// Advance runs barrier cycles until the cluster is idle — no undelivered
// exchange message and nothing but daemon ticks pending anywhere — or, if
// pause > 0, until a barrier lands on the pause time (barriers are forced
// onto pause exactly, never past it). It returns true when idle, false
// when paused. On either return every shard's clock sits at the last
// barrier and all events up to it have executed, so the caller may inspect
// and mutate global state (sample telemetry, feed trace, run fault events)
// before calling Advance again. Pause times and the mutations made at them
// must themselves be shard-count invariant for the cluster's determinism
// contract to extend to the whole run.
func (c *Cluster) Advance(pause sim.Time) bool {
	if !c.started {
		panic("core: cluster not started")
	}
	if pause > 0 && c.end > pause {
		// The previous Advance overshot this pause when it scheduled its
		// final barrier (pause times are the caller's, not the cluster's);
		// pull the pending target back. No events have run past the last
		// completed barrier, so lowering the target is always safe.
		c.end = pause
	}
	for {
		if c.wall != nil {
			c.wall.EpochStart()
		}
		c.runEpoch(c.end)
		c.epochs++
		if c.wall == nil {
			c.gather()
		} else {
			for i, sh := range c.shards {
				c.wallExec[i] = sh.execNanos
			}
			c.wall.EpochEnd(c.wallExec, c.end-c.wallPrev, c.end)
			c.wallPrev = c.end
			t0 := time.Now()
			c.gather()
			c.wall.AddMerge(time.Since(t0))
		}

		if c.autoStop && !c.syncersStopped {
			allDone := true
			for _, d := range c.drivers {
				if !d.done() {
					allDone = false
					break
				}
			}
			if allDone {
				// Trace complete: halt the periodic syncers, exactly as
				// the sequential driver does, so remaining dirty blocks
				// stay dirty rather than draining forever. This happens
				// at the first barrier after completion — a schedule
				// that is itself shard-count invariant.
				c.StopSyncers()
				c.syncersStopped = true
			}
		}

		if c.idle() {
			if c.autoStop && !c.syncersStopped {
				// Nothing can ever run again, yet some driver still has
				// trace work: a lost completion. Fail loudly rather than
				// spin.
				panic("core: cluster stalled with trace work outstanding")
			}
			return true
		}

		c.serviceFiler()
		c.serviceProtocol()
		atPause := pause > 0 && c.end >= pause
		prev := c.end
		c.end = c.nextEpochEnd(prev)
		if pause > 0 && prev < pause && c.end > pause {
			c.end = pause
		}
		if c.end <= prev {
			panic("core: cluster epoch failed to advance")
		}
		if atPause {
			return false
		}
	}
}

// RunToCompletion drives a started cluster (drivers already primed) until
// all trace work has drained: syncers stop at the first barrier after
// completion — the sharded analogue of Driver.Run's shutdown — and the
// call returns once the system is quiescent. A steady-state run is Start,
// any prestart work drained by Advance(0), StartDrivers, then
// RunToCompletion.
func (c *Cluster) RunToCompletion() {
	c.autoStop = true
	c.Advance(0)
}

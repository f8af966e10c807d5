package core

import (
	"cmp"
	"fmt"
	"math/bits"
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
// The cluster is driven in steps: Start, StartDrivers, then Advance (run
// barrier cycles to idle or to a pause time) or RunToCompletion (run until
// the trace drains), and Close. Steady-state runs, scenario runs and
// crash-recovery prestarts all drive it this way. In scenario runs,
// scripted fault events execute between epochs with every shard
// quiescent, per-phase trace is fed to the per-host drivers at barriers,
// and telemetry samples are taken at barrier times forced onto the
// sampling grid. All of those decisions are functions of global state at
// shard-count-invariant barrier times, so the invariance contract extends
// to scenario runs.

// filerMsg is one host→filer service request crossing a shard boundary.
// Its arrival time is the up-segment transit's end.
type filerMsg struct {
	arrival
	part  int32 // filer backend partition the key routes to (service phase 1)
	write bool
	fast  bool  // reads: the pre-drawn fast/slow outcome (service phase 1)
	rep   int32 // reads: the pre-drawn serving replica (service phase 1)
	key   uint64
	fn    func(any)
	arg   any
}

// invMsg is one write notification awaiting barrier-deferred invalidation.
// Its arrival key's host is the writer.
type invMsg struct {
	arrival
	key     uint64
	collect bool
}

// clusterPort is the per-host FilerPort of a sharded run: it appends the
// request to the shard's outbox. It runs on the shard's goroutine only.
type clusterPort struct {
	sh   *clusterShard
	host int32
	seq  uint64
}

func (p *clusterPort) Read2(key uint64, fn func(any), arg any) {
	p.seq++
	p.sh.outMsgs = append(p.sh.outMsgs,
		filerMsg{arrival: arrival{p.sh.eng.Now(), p.host, p.seq}, key: key, fn: fn, arg: arg})
}

func (p *clusterPort) Write2(key uint64, fn func(any), arg any) {
	p.seq++
	p.sh.outMsgs = append(p.sh.outMsgs,
		filerMsg{arrival: arrival{p.sh.eng.Now(), p.host, p.seq}, key: key, write: true, fn: fn, arg: arg})
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
		invMsg{arrival: arrival{s.sh.eng.Now(), int32(s.h.cfg.ID), s.seq}, key: key, collect: s.h.collect})
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

	// The shard's outboxes, appended in engine execution order and
	// canonicalized by the coordinator at the barrier (see gather).
	outMsgs  []filerMsg
	outInv   []invMsg
	outProto []protoMsg

	// Barrier-deferred invalidation delivery (worker side). holders is
	// the superset of hosts that may hold each block, so a batch message
	// visits only those; it is nil under the callback protocol (which
	// never uses the batch) and in untracked runs.
	holders       *holderSet
	invDrops      []bool // per message of the current batch: a local copy dropped
	invalidations uint64 // local copies dropped while collecting

	// upInFlight counts this shard's request packets currently crossing
	// the wire toward the filer (incremented at Send2(ToFiler), decremented
	// on arrival). The coordinator sums the shards between epochs: a
	// globally empty up-direction lets the adaptive schedule add one wire
	// transit to the epoch bound (see lookahead.go). Only maintained when
	// the adaptive schedule is active.
	upInFlight int64

	// inbox holds the filer completions the barrier serviced for this
	// shard's hosts. The worker sorts and schedules them itself at the
	// start of the next epoch, keeping the coordinator's between-epoch
	// work flat in the message count. inboxMin (valid while the inbox is
	// non-empty) folds into the event horizon, which must see pending
	// completions.
	inbox    []schedEvent
	inboxMin sim.Time

	// execNanos is this shard's cumulative wall time spent executing
	// epochs (inbox delivery, invalidations, event execution). Written by
	// the shard's goroutine, read by the coordinator between epochs (the
	// channel handshake orders the two); only maintained when the cluster
	// carries a wall-clock profiler.
	execNanos int64

	cmd  chan sim.Time
	done chan struct{}
}

// schedEvent is one barrier-serviced completion awaiting delivery onto a
// shard engine. The request's arrival key rides along so delivery order
// is canonical: the engine runs equal-time events in insertion order, and
// inserting by (at, then arrival key) fixes that order for every shard
// count.
type schedEvent struct {
	at  sim.Time // completion time on the host's engine
	arr arrival  // the request's arrival at the filer (the service-order key)
	fn  func(any)
	arg any
}

// cmpSchedEvent orders inbox completions for delivery: completion
// time first, then the partition-independent arrival key, which is unique
// per message, so the order is total and sort-algorithm independent.
func cmpSchedEvent(a, b schedEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return a.arr.compare(b.arr)
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

// deliverInbox schedules the barrier's completions onto the shard engine
// in canonical (completion, arrival) order — see schedEvent. Delivering in
// ascending completion time also happens to be the engine heap's cheapest
// insertion order.
func (sh *clusterShard) deliverInbox() {
	if len(sh.inbox) == 0 {
		return
	}
	slices.SortFunc(sh.inbox, cmpSchedEvent)
	for i := range sh.inbox {
		ev := &sh.inbox[i]
		sh.eng.At2(ev.at, ev.fn, ev.arg)
	}
	sh.inbox = sh.inbox[:0]
}

// applyInvalidations drops local copies named by the sorted batch, before
// any of the epoch's events run. Invalidation messages come only from
// instant-mode runs, in which NewCluster gives every shard a holder set
// (a cluster has no more shards than hosts, so each holds a host). The
// per-message work is therefore proportional to the hosts that may hold
// the block, visited in ascending local (= global, within a shard) ID
// order; a visited host holds no copy afterwards, so its bit is cleared.
// The writer is skipped and keeps its bit.
func (sh *clusterShard) applyInvalidations(batch []invMsg) {
	for i := range batch {
		m := &batch[i]
		set := sh.holders.bitmap(m.key)
		for w, word := range set {
			for word != 0 {
				b := word & -word
				word &^= b
				h := sh.hosts[w<<6|bits.TrailingZeros64(b)]
				if h.ID() == int(m.host) {
					continue
				}
				set[w] &^= b
				if h.invalidate(m.key) {
					sh.invDrops[i] = true
					if m.collect {
						sh.invalidations++
					}
				}
			}
		}
	}
}

// ClusterSpec describes a sharded simulation.
type ClusterSpec struct {
	// Shards is the number of engine partitions, from one to the host
	// count.
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
	lookahead sim.Time // the filer floor: protocol hop cost and pinned epoch length
	bound     edgeLookahead

	// Coordinator state between epochs. The batches and the per-shard
	// merge source slices are reused across epochs (see gather), as is
	// the per-partition barrier queue count (see serviceFiler).
	msgBatch   []filerMsg
	invBatch   []invMsg
	protoBatch []protoMsg
	srcMsgs    [][]filerMsg
	srcInv     [][]invMsg
	srcProto   [][]protoMsg
	depth      []int
	cons       ConsistencyStats
	track      bool
	proto      *protoCoordinator  // nil outside protocol runs
	protoPorts []clusterProtoPort // by host ID; nil outside protocol runs

	// Lifecycle (see Start/StartDrivers/Advance/RunToCompletion/Close).
	started        bool
	inline         bool // epochs run on the coordinator goroutine itself
	closed         bool
	driversStarted bool
	autoStop       bool // RunToCompletion: stop syncers at the barrier after trace completion
	syncersStopped bool
	end            sim.Time // the barrier the next Advance cycle runs to
	wg             sync.WaitGroup
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
	if shards < 1 || shards > n {
		return nil, fmt.Errorf("core: %d shards out of [1,%d] for %d hosts", shards, n, n)
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
	c.lookahead = c.fsrv.MinServiceLatency()
	c.depth = make([]int, c.fsrv.Partitions())
	protocol := spec.ConsistencyProtocol && c.track
	adaptive := !spec.FixedLookahead && !protocol
	upTransit := sim.Time(-1) // min wire transit over every request lane, found below

	if protocol {
		c.proto = newProtoCoordinator(c)
		c.protoPorts = make([]clusterProtoPort, n)
	}

	// Shard s holds hosts s, s+shards, ...; each shard builds its hosts
	// with NewHosts and their filer ports, consistency sinks and drivers
	// into arrays of its own.
	cfgs := make([]HostConfig, 0, (n+shards-1)/shards)
	for s, sh := range c.shards {
		cfgs = cfgs[:0]
		for i := s; i < n; i += shards {
			cfgs = append(cfgs, spec.Hosts[i])
		}
		hosts, err := NewHosts(sh.eng, cfgs, spec.Timing, nil)
		if err != nil {
			return nil, err
		}
		ports := make([]clusterPort, len(hosts))
		drivers := make([]Driver, len(hosts))
		var sinks []clusterSink
		if c.proto == nil && c.track {
			sinks = make([]clusterSink, len(hosts))
			sh.holders = newHolderSet(len(hosts))
		}
		sh.hosts = hosts
		sh.drivers = make([]*Driver, len(hosts))
		for j, h := range hosts {
			i := s + j*shards
			ports[j] = clusterPort{sh: sh, host: int32(i)}
			h.fsrv = &ports[j]
			for _, seg := range [...]*netsim.Segment{h.seg, h.bgSeg} {
				if lk := seg.Lookahead(); upTransit < 0 || lk < upTransit {
					upTransit = lk
				}
			}
			if spec.Tracer != nil {
				// Per-host buffers are touched only by the owning shard's
				// goroutine; the barrier handshake orders the final merge.
				h.SetTrace(spec.Tracer.Host(i))
			}
			if adaptive {
				h.setUpCounter(&sh.upInFlight)
			}
			if c.proto != nil {
				p := &c.protoPorts[i]
				*p = clusterProtoPort{sh: sh, h: h, host: int32(i), co: c.proto}
				h.SetConsistencyPort(p)
			} else if c.track {
				sinks[j] = clusterSink{sh: sh, h: h}
				h.SetConsistencyPort(&sinks[j])
				h.holders, h.holderLocal = sh.holders, int32(j)
			}
			d := &drivers[j]
			if err := d.init(sh.eng, hosts[j:j+1:j+1], spec.Sources[i], 0); err != nil {
				return nil, err
			}
			sh.drivers[j] = d
			c.hosts[i] = h
			c.drivers[i] = d
			c.hostShard[i] = sh
		}
	}
	var err error
	if c.bound, err = newEdgeLookahead(c.lookahead, upTransit, adaptive); err != nil {
		return nil, err
	}
	return c, nil
}

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
		for i := range c.protoPorts {
			c.protoPorts[i].fold(&cons)
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
// serviced completions, applies the coordinator's invalidation batch and
// advances its engine to the epoch end.
func (c *Cluster) worker(sh *clusterShard) {
	defer c.wg.Done()
	for end := range sh.cmd {
		c.epoch(sh, end)
		sh.done <- struct{}{}
	}
}

// runEpoch advances every shard to end — in parallel through the workers,
// or inline on this goroutine when parallelism cannot pay (one shard, or
// a single-processor runtime where the channel handshake is pure cost).
func (c *Cluster) runEpoch(end sim.Time) {
	if c.inline {
		for _, sh := range c.shards {
			c.epoch(sh, end)
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

// epoch advances one shard to end: it delivers the barrier's serviced
// completions, applies the coordinator's invalidation batch and runs the
// engine. With the wall profiler on, that interval is the shard's
// execution time.
func (c *Cluster) epoch(sh *clusterShard, end sim.Time) {
	var t0 time.Time
	if c.wall != nil {
		t0 = time.Now()
	}
	sh.beginEpoch(c.invBatch)
	sh.eng.RunUntil(end)
	if c.wall != nil {
		sh.execNanos += int64(time.Since(t0))
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
	// allocation (see exchange.go). The workers size and clear their own
	// drop flags at the next epoch's start.
	c.msgBatch = c.msgBatch[:0]
	c.invBatch = c.invBatch[:0]
	c.protoBatch = c.protoBatch[:0]
	c.srcMsgs = c.srcMsgs[:0]
	c.srcInv = c.srcInv[:0]
	c.srcProto = c.srcProto[:0]
	for _, sh := range c.shards {
		canonicalizeRuns(sh.outMsgs)
		canonicalizeRuns(sh.outInv)
		canonicalizeRuns(sh.outProto)
		c.srcMsgs = append(c.srcMsgs, sh.outMsgs)
		c.srcInv = append(c.srcInv, sh.outInv)
		c.srcProto = append(c.srcProto, sh.outProto)
	}
	c.msgBatch = mergeSorted(c.msgBatch, c.srcMsgs)
	c.invBatch = mergeSorted(c.invBatch, c.srcInv)
	c.protoBatch = mergeSorted(c.protoBatch, c.srcProto)
	c.barrierMsgs += uint64(len(c.msgBatch) + len(c.invBatch) + len(c.protoBatch))
	for _, sh := range c.shards {
		sh.outMsgs = sh.outMsgs[:0]
		sh.outInv = sh.outInv[:0]
		sh.outProto = sh.outProto[:0]
	}
}

// serviceFiler services every gathered arrival in two serial walks over
// the globally sorted batch. Phase 1 is order-critical: it routes each
// request to its backend partition, draws the fast/slow outcome and
// serving replica for each read — the draw order is what keeps the
// filer's RNG stream shard- and partition-count invariant — and records
// each backend's barrier queue depth. Phase 2 carries no RNG: each request
// takes its tier latency from its own partition (which therefore sees its
// requests in global order) and lands in the owning shard's inbox, which
// the shard sorts and schedules at the next epoch's start (see
// schedEvent). Completions always land at or after the next barrier
// because the epoch bound never outruns the arrival-plus-floor guarantee
// (lookahead.go).
func (c *Cluster) serviceFiler() {
	if len(c.msgBatch) == 0 {
		return
	}
	var t0 time.Time
	if c.wall != nil {
		t0 = time.Now()
	}
	clear(c.depth)
	for i := range c.msgBatch {
		m := &c.msgBatch[i]
		m.part = int32(c.fsrv.Route(m.key))
		if !m.write {
			m.fast, m.rep = c.fsrv.DrawReadAt(int(m.part))
		}
		c.depth[m.part]++
	}
	for p, n := range c.depth {
		c.fsrv.ObserveBarrierQueue(p, n)
	}
	if c.wall != nil {
		now := time.Now()
		c.wall.AddFiler1(now.Sub(t0))
		t0 = now
	}

	for i := range c.msgBatch {
		m := &c.msgBatch[i]
		var lat sim.Time
		if m.write {
			lat = c.fsrv.ServeWrite(int(m.part), m.key)
		} else {
			lat = c.fsrv.ServeRead(int(m.part), m.rep, m.key, m.fast)
		}
		sh := c.hostShard[m.host]
		at := m.at + lat
		if len(sh.inbox) == 0 || at < sh.inboxMin {
			sh.inboxMin = at
		}
		sh.inbox = append(sh.inbox,
			schedEvent{at: at, arr: m.arrival, fn: m.fn, arg: m.arg})
	}
	if c.wall != nil {
		c.wall.AddFiler2(time.Since(t0))
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
// shard inboxes — or false when nothing is pending anywhere.
func (c *Cluster) eventHorizon() (sim.Time, bool) {
	var minAt sim.Time
	found := false
	for _, sh := range c.shards {
		if at, ok := sh.eng.NextEventAt(); ok && (!found || at < minAt) {
			minAt, found = at, true
		}
		if len(sh.inbox) > 0 && (!found || sh.inboxMin < minAt) {
			minAt, found = sh.inboxMin, true
		}
	}
	return minAt, found
}

// Start spawns the shard worker goroutines. It must be called before
// StartDrivers, Advance or RunToCompletion; pair it with Close.
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
}

// Close stops the shard workers. Safe to call more than once.
func (c *Cluster) Close() {
	if !c.started || c.closed {
		return
	}
	c.closed = true
	if !c.inline {
		for _, sh := range c.shards {
			close(sh.cmd)
		}
		c.wg.Wait()
	}
}

// StartDrivers primes every per-host trace driver: host i collects
// statistics once it has issued warmup[i] blocks (nil: from the first
// block), and the initial op windows are pumped, scheduling each host's
// first events. Call it once, after Start and after any prestart work
// (e.g. crash recovery) has drained.
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

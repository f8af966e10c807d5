package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Driver replays a trace against a set of hosts. Per the paper (§5): "The
// simulator issues I/O requests from the trace as quickly as possible given
// that each application thread can have only one I/O in progress." Ops are
// consumed from the source in order and distributed to per-thread queues of
// bounded depth; each thread executes its requests sequentially, accessing
// the blocks of a multi-block request one at a time.
//
// Each (host, thread) pair of the trace has one threadRec, carved from the
// hosts' engine arena when the pair first appears: its queue is a ring of
// window ops held inline, and it carries the op in flight, so queueing,
// starting and stepping ops allocate nothing. A record sits on the list of
// the host that serves its thread (Host.threads), and the driver finds it
// by walking that list: a host serves a handful of threads (every program
// here runs at most eight per host), so the walk is a few compares.
type Driver struct {
	eng   *sim.Engine
	hosts []*Host
	src   trace.Source

	held    trace.Op // head-of-line op whose thread queue is full
	hasHeld bool     // held is valid; by value, so pumping never allocates
	srcDone bool

	issuedBlocks int64
	warmupBlocks int64
	collecting   bool

	consumed int64 // blocks taken from the source

	opsInFlight  int
	opsCompleted uint64
	blocksIssued uint64
	queuedOps    int // ops sitting in thread queues, not yet started
}

// window is the depth of a thread's queue.
const window = 16

// threadKey packs (host, thread).
func threadKey(host, thread uint16) uint32 {
	return uint32(host)<<16 | uint32(thread)
}

// threadRec is one trace thread's state: its queue, a ring of n ops from
// q[head] (with their enqueue times in qt while tracing), whether it has
// an op in flight, and that op's execution record. h is the host that
// serves the thread, and next links the records on h's list.
type threadRec struct {
	d       *Driver
	h       *Host
	next    *threadRec
	tk      uint32
	busy    bool
	head, n uint8
	q       [window]trace.Op
	qt      *[window]sim.Time
	opTask
}

// opTask is the execution record of a thread's op in flight: the blocks
// of a multi-block request access the cache sequentially, and the record
// carries the cursor between completions.
type opTask struct {
	op trace.Op
	i  uint32
}

// Thread-record slabs start at threadSlabMin records and double up to
// threadSlabMax, so an engine with few threads carves little ahead of use
// and a 1024-host shard still takes only a handful of slabs.
const (
	threadSlabMin = 16
	threadSlabMax = 1024
)

func (a *reqArena) carveThread() *threadRec {
	if len(a.threads) == 0 {
		a.threadSlab = min(max(threadSlabMin, 2*a.threadSlab), threadSlabMax)
		a.threads = make([]threadRec, a.threadSlab)
	}
	t := &a.threads[0]
	a.threads = a.threads[1:]
	return t
}

// NewDriver builds a driver over the hosts. warmupBlocks gates statistics:
// collection starts once that many blocks have been issued (the paper uses
// half the trace volume).
func NewDriver(eng *sim.Engine, hosts []*Host, src trace.Source, warmupBlocks int64) (*Driver, error) {
	d := new(Driver)
	if err := d.init(eng, hosts, src, warmupBlocks); err != nil {
		return nil, err
	}
	return d, nil
}

// init builds the driver in place. A host is served by one driver for
// its life, which keeps its thread records on the host's list.
func (d *Driver) init(eng *sim.Engine, hosts []*Host, src trace.Source, warmupBlocks int64) error {
	if len(hosts) == 0 {
		return fmt.Errorf("core: driver needs at least one host")
	}
	if src == nil {
		return fmt.Errorf("core: driver needs a trace source")
	}
	*d = Driver{
		eng:          eng,
		hosts:        hosts,
		src:          src,
		warmupBlocks: warmupBlocks,
	}
	return nil
}

// thread returns the record of op's thread on the host that serves it,
// carving the record when the thread first appears. A trace recorded on
// more hosts than configured wraps around; the match is on the trace's own
// host ID, so it keeps one record per trace host.
func (d *Driver) thread(op trace.Op) *threadRec {
	h := d.hosts[int(op.Host)%len(d.hosts)]
	tk := threadKey(op.Host, op.Thread)
	for t := h.threads; t != nil; t = t.next {
		if t.tk == tk {
			return t
		}
	}
	t := h.reqs.carveThread()
	t.d, t.h, t.tk = d, h, tk
	t.next, h.threads = h.threads, t
	return t
}

// OpsCompleted returns the number of trace ops fully executed.
func (d *Driver) OpsCompleted() uint64 { return d.opsCompleted }

// BlocksIssued returns the number of block accesses issued.
func (d *Driver) BlocksIssued() uint64 { return d.blocksIssued }

// pump moves ops from the source into per-thread queues until a queue
// fills or the source drains.
func (d *Driver) pump() {
	for {
		var op trace.Op
		if d.hasHeld {
			op = d.held
		} else {
			var ok bool
			op, ok = d.src.Next()
			if !ok {
				d.srcDone = true
				return
			}
			d.consumed += int64(op.Count)
		}
		t := d.thread(op)
		if t.n == window {
			d.held, d.hasHeld = op, true
			return
		}
		d.hasHeld = false
		tail := (t.head + t.n) % window
		t.q[tail] = op
		if d.tracing() {
			if t.qt == nil {
				t.qt = new([window]sim.Time)
			}
			t.qt[tail] = d.eng.Now()
		}
		t.n++
		d.queuedOps++
		d.kick(t)
	}
}

// kick starts the thread's next op if it is idle.
func (d *Driver) kick(t *threadRec) {
	if t.busy || t.n == 0 {
		return
	}
	head := t.head
	t.head = (head + 1) % window
	t.n--
	if d.tracing() {
		d.noteDequeue(t.h, t.qt[head])
	}
	d.queuedOps--
	t.busy = true
	d.opsInFlight++
	t.opTask = opTask{op: t.q[head]}
	opStep(t)
}

// tracing reports whether request-lifecycle tracing is attached. A tracer
// covers every host or none, so host 0 stands for all.
func (d *Driver) tracing() bool { return d.hosts[0].tr != nil }

// noteDequeue records the host-queue wait of an op on host h enqueued at
// time at as a queue span on the track of the op's first block request —
// which opStep issues synchronously next, so it takes the host's next
// request sequence (NextSampled peeks without consuming); every op has a
// block, since the public entry points reject zero-length ops. Tracers
// must attach before any ops are pumped, so every queued op has its
// enqueue time.
func (d *Driver) noteDequeue(h *Host, at sim.Time) {
	if seq := h.tr.NextSampled(); seq != 0 {
		h.tr.Add(seq, obs.KindQueue, 0, at, d.eng.Now())
	}
}

// opStep issues the thread's next block of its op in flight, or completes
// the op and kicks the thread's queue. It is both the initial call and
// every block's completion continuation.
func opStep(a any) {
	t := a.(*threadRec)
	d := t.d
	if t.i >= t.op.Count {
		d.opsInFlight--
		d.opsCompleted++
		t.busy = false
		d.pump()
		d.kick(t)
		return
	}
	d.noteIssue(1)
	key := cache.Key(trace.BlockKey(t.op.File, t.op.Block+t.i))
	t.i++
	if t.op.Kind == trace.Write {
		t.h.write(key, cont{opStep, t})
	} else {
		t.h.read(key, cont{opStep, t})
	}
}

// noteIssue advances the warmup accounting.
func (d *Driver) noteIssue(blocks int64) {
	d.blocksIssued += uint64(blocks)
	if d.collecting {
		return
	}
	d.issuedBlocks += blocks
	if d.issuedBlocks >= d.warmupBlocks {
		d.collecting = true
		for _, h := range d.hosts {
			h.setCollect(true)
		}
	}
}

// Done reports whether all trace work has completed: the source is drained
// and no ops are queued or in flight. Sharded scenario runs poll it at
// epoch barriers to detect the end of a phase.
func (d *Driver) Done() bool { return d.done() }

// done reports whether all trace work has completed.
func (d *Driver) done() bool {
	return d.srcDone && !d.hasHeld && d.opsInFlight == 0 && d.queuedOps == 0
}

// OpsInFlight returns the number of trace ops currently executing; it is
// the scenario telemetry probe's queue-depth signal.
func (d *Driver) OpsInFlight() int { return d.opsInFlight }

// BlocksConsumed returns the number of blocks taken from the trace source.
func (d *Driver) BlocksConsumed() int64 { return d.consumed }

// PumpMore clears the source-drained latch and pumps again. Sharded
// scenario runs append a phase (or chunk) of trace to an appendable source
// between epochs and call this so the driver consults the source it had
// already seen run dry. Threads whose queues refill are kicked, scheduling
// their first events at the engine's current time.
func (d *Driver) PumpMore() {
	d.srcDone = false
	d.pump()
}

// start primes the driver without running the engine: zero-warmup
// collection is enabled and the initial window of ops is pumped (kicking
// their threads, which schedules the first events). Sequential Run calls
// it and then drives the engine to completion; sharded runs call it for
// every per-host driver and step the engines epoch by epoch instead.
func (d *Driver) start() {
	if d.warmupBlocks <= 0 {
		d.noteIssue(0)
		d.collecting = true
		for _, h := range d.hosts {
			h.setCollect(true)
		}
	}
	d.pump()
}

// Run replays the whole trace and drains the simulation. On return the
// engine clock is the trace's completion time and all host statistics are
// final.
func (d *Driver) Run() {
	d.start()
	// Threads were kicked as their queues filled; now run to completion,
	// or until only the syncers' daemon ticks are left, which cannot
	// finish a stranded request.
	d.eng.RunWhile(func() bool { return !d.done() && d.eng.NonDaemonPending() > 0 })
	// The trace is complete: halt the periodic syncers so the event queue
	// can drain, then let in-flight writebacks finish.
	for _, h := range d.hosts {
		h.stopSyncers()
	}
	d.eng.Run()
	if !d.done() {
		panic("core: driver finished with work outstanding")
	}
}

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
type Driver struct {
	eng   *sim.Engine
	hosts []*Host
	src   trace.Source

	queues  map[uint32][]trace.Op
	qtimes  map[uint32][]sim.Time // per-op enqueue times; only when tracing
	busy    map[uint32]bool
	held    trace.Op // head-of-line op whose thread queue is full
	hasHeld bool     // held is valid; by value, so pumping never allocates
	srcDone bool
	freeOps *opTask // free list of per-op execution records

	window       int
	issuedBlocks int64
	warmupBlocks int64
	collecting   bool

	consumed int64 // blocks taken from the source

	opsInFlight  int
	opsCompleted uint64
	blocksIssued uint64
	queuedOps    int // ops sitting in thread queues, not yet started
}

// threadKey packs (host, thread).
func threadKey(host, thread uint16) uint32 {
	return uint32(host)<<16 | uint32(thread)
}

// NewDriver builds a driver over the hosts. warmupBlocks gates statistics:
// collection starts once that many blocks have been issued (the paper uses
// half the trace volume).
func NewDriver(eng *sim.Engine, hosts []*Host, src trace.Source, warmupBlocks int64) (*Driver, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: driver needs at least one host")
	}
	if src == nil {
		return nil, fmt.Errorf("core: driver needs a trace source")
	}
	return &Driver{
		eng:          eng,
		hosts:        hosts,
		src:          src,
		queues:       make(map[uint32][]trace.Op),
		busy:         make(map[uint32]bool),
		window:       16,
		warmupBlocks: warmupBlocks,
	}, nil
}

// OpsCompleted returns the number of trace ops fully executed.
func (d *Driver) OpsCompleted() uint64 { return d.opsCompleted }

// BlocksIssued returns the number of block accesses issued.
func (d *Driver) BlocksIssued() uint64 { return d.blocksIssued }

// Collecting reports whether warmup has ended.
func (d *Driver) Collecting() bool { return d.collecting }

// hostFor returns the host for a trace op, clamping out-of-range host IDs
// (a trace recorded on more hosts than configured wraps around).
func (d *Driver) hostFor(op trace.Op) *Host {
	return d.hosts[int(op.Host)%len(d.hosts)]
}

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
		tk := threadKey(op.Host, op.Thread)
		q, seen := d.queues[tk]
		if len(q) >= d.window {
			d.held, d.hasHeld = op, true
			return
		}
		d.hasHeld = false
		if !seen {
			// A queue never holds more than window ops, so allocating it
			// at that capacity when its thread first appears means it
			// never grows.
			q = make([]trace.Op, 0, d.window)
		}
		d.queues[tk] = append(q, op)
		if d.tracing() {
			if d.qtimes == nil {
				d.qtimes = make(map[uint32][]sim.Time)
			}
			qt, seen := d.qtimes[tk]
			if !seen {
				qt = make([]sim.Time, 0, d.window)
			}
			d.qtimes[tk] = append(qt, d.eng.Now())
		}
		d.queuedOps++
		d.kick(tk)
	}
}

// kick starts the thread's next op if it is idle.
func (d *Driver) kick(tk uint32) {
	if d.busy[tk] {
		return
	}
	q := d.queues[tk]
	if len(q) == 0 {
		return
	}
	op := q[0]
	copy(q, q[1:])
	d.queues[tk] = q[:len(q)-1]
	if d.tracing() {
		d.noteDequeue(tk, op)
	}
	d.queuedOps--
	d.busy[tk] = true
	d.opsInFlight++
	d.runOp(tk, op)
}

// tracing reports whether request-lifecycle tracing is attached. A tracer
// covers every host or none, so host 0 stands for all.
func (d *Driver) tracing() bool { return d.hosts[0].tr != nil }

// noteDequeue pops the op's enqueue time and records its host-queue wait
// as a queue span on the track of the op's first block request — which
// opStep issues synchronously next, so it takes the host's next request
// sequence (NextSampled peeks without consuming). Tracers must attach
// before any ops are pumped, so qtimes mirrors queues exactly.
func (d *Driver) noteDequeue(tk uint32, op trace.Op) {
	qt := d.qtimes[tk]
	at := qt[0]
	copy(qt, qt[1:])
	d.qtimes[tk] = qt[:len(qt)-1]
	if op.Count == 0 {
		return // no block requests; nothing to attach the wait to
	}
	h := d.hostFor(op)
	if seq := h.tr.NextSampled(); seq != 0 {
		h.tr.Add(seq, obs.KindQueue, 0, at, d.eng.Now())
	}
}

// opTask is one trace op's execution record: the blocks of a multi-block
// request access the cache sequentially, and the record carries the cursor
// between completions. Records recycle through the driver's free list, so
// the per-block step allocates nothing (the closure-based predecessor
// allocated one continuation per block).
type opTask struct {
	d    *Driver
	tk   uint32
	op   trace.Op
	i    uint32
	next *opTask // free-list link
}

func (d *Driver) getOp() *opTask {
	t := d.freeOps
	if t == nil {
		return &opTask{d: d}
	}
	d.freeOps = t.next
	return t
}

func (d *Driver) putOp(t *opTask) {
	*t = opTask{d: t.d, next: d.freeOps}
	d.freeOps = t
}

// runOp executes one trace op: its blocks access the cache sequentially.
func (d *Driver) runOp(tk uint32, op trace.Op) {
	t := d.getOp()
	t.tk = tk
	t.op = op
	opStep(t)
}

// opStep issues the op's next block, or completes the op and kicks the
// thread's queue. It is both the initial call and every block's completion
// continuation.
func opStep(a any) {
	t := a.(*opTask)
	d := t.d
	if t.i >= t.op.Count {
		d.opsInFlight--
		d.opsCompleted++
		d.busy[t.tk] = false
		tk := t.tk
		d.putOp(t)
		d.pump()
		d.kick(tk)
		return
	}
	d.noteIssue(1)
	key := cache.Key(trace.BlockKey(t.op.File, t.op.Block+t.i))
	t.i++
	h := d.hostFor(t.op)
	if t.op.Kind == trace.Write {
		h.write(key, cont{opStep, t})
	} else {
		h.read(key, cont{opStep, t})
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
			h.SetCollect(true)
		}
	}
}

// Done reports whether all trace work has completed: the source is drained
// and no ops are queued or in flight. Sharded scenario runs poll it at
// epoch barriers to detect the end of a phase.
func (d *Driver) Done() bool { return d.done() }

// done reports whether all trace work has completed.
func (d *Driver) done() bool {
	if !d.srcDone || d.hasHeld || d.opsInFlight > 0 {
		return false
	}
	for _, q := range d.queues {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// OpsInFlight returns the number of trace ops currently executing; it is
// the scenario telemetry probe's queue-depth signal.
func (d *Driver) OpsInFlight() int { return d.opsInFlight }

// QueuedOps returns the number of ops waiting in thread queues.
func (d *Driver) QueuedOps() int { return d.queuedOps }

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
			h.SetCollect(true)
		}
	}
	d.pump()
}

// Run replays the whole trace and drains the simulation. On return the
// engine clock is the trace's completion time and all host statistics are
// final.
func (d *Driver) Run() {
	d.start()
	// Threads were kicked as their queues filled; now run to completion.
	d.eng.RunWhile(func() bool { return !d.done() })
	// The trace is complete: halt the periodic syncers so the event queue
	// can drain, then let in-flight writebacks finish.
	for _, h := range d.hosts {
		h.StopSyncers()
	}
	d.eng.Run()
	if !d.done() {
		panic("core: driver finished with work outstanding")
	}
}

package flashsim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/filer"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// This file is the cluster coordinator: steady-state runs with Shards >= 1
// and every scenario (Shards 0 runs as one shard) drive a core.Cluster
// from here. Hosts are partitioned round-robin over per-shard engines and
// all cross-host traffic — filer requests, invalidations, protocol
// messages, crash-recovery flushes — is exchanged at conservative epoch
// barriers. Whatever the coordinator does between epochs happens at
// shard-count invariant barrier times, so results are bit-identical for
// every shard count (see internal/core/cluster.go and
// docs/ARCHITECTURE.md).
//
// One feeder splits trace into the per-host queues the
// drivers read. A steady-state run (runCluster) feeds its whole trace
// before the cluster is built, warms each host up on its share of it,
// runs the adaptive barrier schedule and stops the syncers at the first
// barrier after the trace completes. A scenario (runScenarioCluster)
// draws from the shared generator between epochs — one bounded batch per
// block-bounded phase, barrier-timed chunks for time-bounded phases — on
// the pinned fixed-lookahead grid. Three consequences define the scenario
// semantics (see docs/SCENARIOS.md):
//
//   - Phases end fully drained: background writebacks complete before the
//     next phase starts.
//   - A time-bounded phase cuts consumption at the first barrier at or
//     after its deadline and discards the ops it pre-generated but never
//     dispatched.
//   - Telemetry samples are taken at barriers forced onto the sampling
//     grid, so a sample reflects exactly the events up to its timestamp.

// feeder splits trace into the per-host queues the drivers read; it is
// the only code that maps a trace op to its host. Its placed array
// outlives a feed, so a run that feeds the same queues again after they
// drain — a scenario's next phase — places into it again.
type feeder struct {
	queues []*trace.QueueSource
	route  []int      // host h's ops go to route[h]: identity, or the churn remap
	blocks []int64    // blocks each host received in the last feed
	start  []int      // per-host offsets into placed
	placed []trace.Op // every queue's window
}

// newFeeder returns a feeder over one empty queue per host.
func newFeeder(hosts int) *feeder {
	store := make([]trace.QueueSource, hosts)
	f := &feeder{
		queues: make([]*trace.QueueSource, hosts),
		route:  make([]int, hosts),
		blocks: make([]int64, hosts),
		start:  make([]int, hosts+1),
	}
	for i := range f.queues {
		f.queues[i] = &store[i]
		f.route[i] = i
	}
	return f
}

// host returns the host that receives op: its host ID wrapped onto the
// cluster (a trace recorded on more hosts than configured wraps around),
// then routed.
func (f *feeder) host(op trace.Op) int {
	return f.route[int(op.Host)%len(f.queues)]
}

// feed draws ops from src until at least limit blocks have been drawn
// (the last op may overshoot) or src runs dry, and appends each to its
// host's queue behind the ops still pending there, keeping the order
// within a host. It returns the blocks drawn; f.blocks splits them by
// host.
//
// The ops are drained into chunks, counted per host, and placed stably
// into one array that every queue takes a window of: the allocations do
// not grow with the host count, and no queue grows. Ops still pending
// live in the current array, so only a feed into drained queues may place
// into it again.
func (f *feeder) feed(src trace.Source, limit int64) (total int64) {
	clear(f.start)
	clear(f.blocks)
	var chunks [][]trace.Op
	n := 0
	for total < limit {
		op, ok := src.Next()
		if !ok {
			break
		}
		if len(chunks) == 0 || len(chunks[len(chunks)-1]) == cap(chunks[len(chunks)-1]) {
			chunks = append(chunks, make([]trace.Op, 0, feedChunkOps(n)))
		}
		last := &chunks[len(chunks)-1]
		*last = append(*last, op)
		n++
		h := f.host(op)
		f.start[h+1]++
		f.blocks[h] += int64(op.Count)
		total += int64(op.Count)
	}
	// start[h+1] counts host h's ops until the prefix sum turns start[h]
	// into where host h's window begins.
	pending := false
	for h, q := range f.queues {
		pending = pending || len(q.Pending()) > 0
		f.start[h+1] += len(q.Pending()) + f.start[h]
	}
	n = f.start[len(f.queues)]
	if pending || cap(f.placed) < n {
		f.placed = make([]trace.Op, n)
	}
	placed := f.placed[:n]
	// start[h] walks host h's window; afterwards it is where host h+1's
	// window begins.
	for h, q := range f.queues {
		f.start[h] += copy(placed[f.start[h]:], q.Pending())
	}
	for _, chunk := range chunks {
		for _, op := range chunk {
			h := f.host(op)
			placed[f.start[h]] = op
			f.start[h]++
		}
	}
	begin := 0
	for h, q := range f.queues {
		q.Load(placed[begin:f.start[h]:f.start[h]])
		begin = f.start[h]
	}
	return total
}

// feedChunkOps sizes the next chunk a feed drains into once it holds
// n ops: as many again, from 256 up to 8192 (160 KiB). Chunks are never
// copied, unlike one slice grown by append, whose abandoned copies add up
// to several times the trace; how many of those the collector has freed
// when the feeder allocates its placed array is a matter of timing, which
// made a run's peak resident set vary from one run to the next.
func feedChunkOps(n int) int { return min(max(n, 256), 8192) }

// feedChunkBlocks returns the coordinator's trace top-up quantum for
// time-bounded phases: enough to keep every thread's queue full across a
// barrier interval, scaled conservatively so mid-epoch dry spells (hosts
// idling until the next top-up barrier) stay rare. meanIO is the
// generator's resolved mean request size.
func feedChunkBlocks(cfg Config, meanIO float64) int64 {
	chunk := int64(float64(cfg.Hosts*cfg.ThreadsPerHost) * 64 * meanIO)
	if chunk < 4096 {
		chunk = 4096
	}
	return chunk
}

// clusterRun carries the coordinator-side state of one run. The fields
// after tr belong to scenarios; a steady-state run leaves them zero.
type clusterRun struct {
	cfg Config
	cl  *core.Cluster
	tr  *obs.Tracer // nil unless cfg.TraceSample > 0

	gen      *tracegen.Generator
	feeder   *feeder
	attached []bool
	active   []int // indices of attached hosts, ascending
	fed      int64 // blocks fed into the queues

	period   sim.Time
	nextTick sim.Time
	ts       *stats.TimeSeries
	row      []float64
	prev     aggSnap
	cur      aggSnap

	// Live-run surfaces (zero-valued on batch runs; see stream.go).
	hooks    ScenarioHooks
	ctl      *RunController
	res      *ScenarioResult
	curPhase int
	inEvent  bool // an event's own drain is advancing the cluster
}

// newClusterRun builds the cluster whose hosts read the given queues. The
// filer draws from the same forked RNG stream as the sequential path, so
// its fast/slow outcomes depend only on arrival order. fixedLookahead
// pins the barrier grid (see core.ClusterSpec.FixedLookahead).
func newClusterRun(cfg Config, queues []*trace.QueueSource, fixedLookahead bool) (*clusterRun, error) {
	r := &clusterRun{cfg: cfg}
	if cfg.TraceSample > 0 {
		r.tr = obs.NewTracer(cfg.TraceSample)
	}
	hostCfgs := make([]core.HostConfig, cfg.Hosts)
	sources := make([]trace.Source, cfg.Hosts)
	for i := range hostCfgs {
		hostCfgs[i] = hostConfig(cfg, i)
		sources[i] = queues[i]
	}
	seedRNG := rng.New(cfg.Seed)
	cl, err := core.NewCluster(core.ClusterSpec{
		Shards:      cfg.Shards,
		Hosts:       hostCfgs,
		Timing:      cfg.Timing,
		Tracer:      r.tr,
		WallProfile: cfg.WallProfile,
		NewFiler: func(eng *sim.Engine) *filer.Filer {
			return newFiler(eng, seedRNG.Fork(), cfg)
		},
		Sources:             sources,
		ConsistencyProtocol: cfg.ConsistencyProtocol,
		FixedLookahead:      fixedLookahead,
	})
	if err != nil {
		return nil, err
	}
	r.cl = cl
	return r, nil
}

// result completes res off the drained cluster: the run totals the
// coordinator reads from the cluster, the sampled spans and the wall
// profile, then the host, filer and consistency aggregates every executor
// shares (buildResult). Steady-state and scenario runs both end here.
func (r *clusterRun) result(res *Result) *Result {
	cl := r.cl
	res.OpsCompleted, res.BlocksIssued = cl.OpsCompleted(), cl.BlocksIssued()
	res.SimulatedSeconds, res.Events = cl.Now().Seconds(), cl.Events()
	res.Epochs, res.BarrierMessages = cl.Epochs(), cl.BarrierMessages()
	res.WallProfile = cl.WallProfile()
	if r.tr != nil {
		res.Trace = r.tr.Spans()
	}
	return buildResult(res, cl.Hosts(), cl.Filer(), cl.Consistency())
}

// runCluster executes a steady-state run on the cluster. pre, when
// non-nil, is the crash-recovery prestart: it runs per host before the
// drivers start, and its metadata scans and dirty flushes drain through
// the epoch barrier like all other traffic.
func runCluster(cfg Config, src trace.Source, warmupBlocks int64, pre prestartFn) (*Result, error) {
	// The whole trace is fed before the cluster is built, so the drained
	// chunks are garbage before the hosts allocate their caches.
	f := newFeeder(cfg.Hosts)
	total := f.feed(src, math.MaxInt64)
	if cs, ok := src.(*checkedSource); ok && cs.err != nil {
		return nil, cs.err
	}
	// Each host warms up on its own share of the trace, preserving the
	// global warmup fraction (the sequential driver flips collection once
	// the global volume passes warmupBlocks; per-host flips are what keep
	// the decision independent of shard interleaving).
	var warmup []int64
	if warmupBlocks > 0 && total > 0 {
		warmup = f.blocks
		for i, b := range f.blocks {
			warmup[i] = warmupBlocks * b / total
		}
	}
	r, err := newClusterRun(cfg, f.queues, false)
	if err != nil {
		return nil, err
	}
	cl := r.cl
	cl.Start()
	defer cl.Close()
	var recoverySeconds float64
	if pre != nil {
		// Prestart (crash recovery): prefill and recover every host, then
		// drive the barrier until the recovery traffic drains. No driver
		// has pumped yet, so the fed trace waits. The done callbacks fire
		// on the shard goroutines; the flags are read only after
		// Advance's barrier handshake orders them.
		recovered := make([]bool, cfg.Hosts)
		for i, h := range cl.Hosts() {
			i := i
			pre(h, i, func() { recovered[i] = true })
		}
		cl.Advance(0)
		for i, ok := range recovered {
			if !ok {
				return nil, fmt.Errorf("flashsim: recovery did not complete on host %d", i)
			}
		}
		recoverySeconds = cl.Now().Seconds()
	}
	cl.StartDrivers(warmup)
	cl.RunToCompletion()
	return r.result(&Result{RecoverySeconds: recoverySeconds}), nil
}

// runScenarioCluster executes a validated, cloned scenario on the
// cluster. hooks and ctl are the streaming surfaces (stream.go); batch
// runs pass zero values and take exactly the batch path.
func runScenarioCluster(cfg Config, sc *Scenario, period sim.Time, hooks ScenarioHooks, ctl *RunController) (*ScenarioResult, error) {
	tc, err := traceConfig(cfg, scenarioTraceBlocks)
	if err != nil {
		return nil, err
	}
	gen, err := tracegen.NewGenerator(tc)
	if err != nil {
		return nil, err
	}
	// Scenarios pin the fixed-lookahead barrier grid: phase feeds, fault
	// events and telemetry samples anchor to barrier times, so the grid is
	// part of the scenario golden surface and must not shift under the
	// adaptive schedule.
	f := newFeeder(cfg.Hosts)
	r, err := newClusterRun(cfg, f.queues, true)
	if err != nil {
		return nil, err
	}
	cl := r.cl
	res := &ScenarioResult{Scenario: sc.Name}
	r.gen, r.feeder = gen, f
	r.attached = make([]bool, cfg.Hosts)
	r.active = make([]int, cfg.Hosts)
	for i := range r.attached {
		r.attached[i] = true
		r.active[i] = i
	}
	r.period, r.nextTick = period, period
	r.ts = stats.NewTimeSeries("scenario "+sc.Name, telemetryColumns...)
	r.row = make([]float64, len(telemetryColumns))
	r.hooks, r.ctl, r.res = hooks, ctl, res

	cl.Start()
	defer cl.Close()
	cl.StartDrivers(nil) // no warmup: collection is on from the first block

	chunk := feedChunkBlocks(cfg, tc.MeanIOBlocks)
	var phaseStart, phaseEnd aggSnap
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		r.curPhase = pi
		if err := applyOverrides(gen, ph); err != nil {
			return nil, fmt.Errorf("flashsim: scenario %s phase %s: %w", sc.Name, ph.Name, err)
		}
		for _, ev := range ph.Events {
			er, err := r.executeEvent(pi, ev, false)
			if err != nil {
				return nil, fmt.Errorf("flashsim: scenario %s phase %s: %w", sc.Name, ph.Name, err)
			}
			res.Events = append(res.Events, er)
			if r.hooks.Event != nil {
				r.hooks.Event(er)
			}
		}
		start := cl.Now()
		r.snapshot(&phaseStart)
		if blocks := phaseBlocks(cfg, ph); blocks > 0 {
			if err := r.runBlockPhase(blocks); err != nil {
				return nil, fmt.Errorf("flashsim: scenario %s phase %s: %w", sc.Name, ph.Name, err)
			}
		} else {
			deadline := start + sim.Time(ph.Seconds*float64(sim.Second))
			if err := r.runTimedPhase(deadline, chunk); err != nil {
				return nil, fmt.Errorf("flashsim: scenario %s phase %s: %w", sc.Name, ph.Name, err)
			}
		}
		r.snapshot(&phaseEnd)
		pr := phaseResult(ph.Name, start, cl.Now(), &phaseStart, &phaseEnd)
		res.Phases = append(res.Phases, pr)
		if r.hooks.Phase != nil {
			r.hooks.Phase(pr)
		}
	}

	// Wind down: sampling stops, the syncers halt, the remaining work
	// drains, and one final sample closes the series. Phases drain fully
	// at the barrier, so this is usually a no-op epoch.
	cl.StopSyncers()
	cl.Advance(0)
	r.sample(cl.Now())

	r.result(&res.Result)
	res.EngineEvents = res.Result.Events
	res.Telemetry = r.ts
	res.DirtyBlocksEnd = r.prev.dirty // the closing sample's snapshot
	return res, nil
}

// consumed sums the blocks the drivers have taken from their feeds.
func (r *clusterRun) consumed() int64 {
	var n int64
	for _, d := range r.cl.Drivers() {
		n += d.BlocksConsumed()
	}
	return n
}

// inflight sums the drivers' executing ops (the telemetry queue-depth
// signal).
func (r *clusterRun) inflight() int {
	n := 0
	for _, d := range r.cl.Drivers() {
		n += d.OpsInFlight()
	}
	return n
}

func (r *clusterRun) snapshot(out *aggSnap) {
	snapshotHosts(r.cl.Hosts(), r.cl.BlocksIssued(), out)
}

// sample appends one telemetry row at time at, with interval deltas since
// the previous sample. Barriers are forced onto the sampling grid, so the
// row reflects exactly the events up to at.
func (r *clusterRun) sample(at sim.Time) {
	r.snapshot(&r.cur)
	cur, prev := &r.cur, &r.prev
	r.row[0] = meanMicros(cur.readSum-prev.readSum, cur.readCount-prev.readCount)
	r.row[1] = meanMicros(cur.writeSum-prev.writeSum, cur.writeCount-prev.writeCount)
	r.row[2] = rate(cur.ramHits-prev.ramHits, cur.ramMisses-prev.ramMisses)
	r.row[3] = rate(cur.flashHits-prev.flashHits, cur.flashMisses-prev.flashMisses)
	r.row[4] = float64(cur.blocksIssued - prev.blocksIssued)
	r.row[5] = float64(r.inflight())
	r.row[6] = float64(cur.dirty)
	r.prev = r.cur
	r.ts.Append(at.Seconds(), r.row)
	if r.hooks.Sample != nil {
		r.hooks.Sample(at.Seconds(), r.row)
	}
}

// feed draws at least blocks trace blocks from the shared generator into
// the per-host queues and wakes the drivers.
func (r *clusterRun) feed(blocks int64) {
	r.fed += r.feeder.feed(r.gen, blocks)
	for _, d := range r.cl.Drivers() {
		d.PumpMore()
	}
}

// driveToIdle advances the cluster until it is quiescent, sampling at
// every telemetry tick on the way and servicing the run controller at
// every barrier. The only error source is the controller: a batch run
// never fails here.
func (r *clusterRun) driveToIdle() error {
	for !r.cl.Advance(r.nextTick) {
		r.sample(r.nextTick)
		r.nextTick += r.period
		if err := r.checkpoint(); err != nil {
			return err
		}
	}
	return r.checkpoint()
}

// runBlockPhase feeds the phase's whole block budget and drains it.
func (r *clusterRun) runBlockPhase(blocks int64) error {
	r.feed(blocks)
	if err := r.driveToIdle(); err != nil {
		return err
	}
	for i, d := range r.cl.Drivers() {
		if !d.Done() {
			return fmt.Errorf("host %d driver stalled with phase trace outstanding", i)
		}
	}
	return nil
}

// runTimedPhase feeds barrier-timed chunks until the deadline, then cuts
// consumption (discarding undispatched feed) and drains.
func (r *clusterRun) runTimedPhase(deadline sim.Time, chunk int64) error {
	for {
		if buffered := r.fed - r.consumed(); buffered < chunk/2 {
			r.feed(chunk - buffered)
		}
		pause := r.nextTick
		if deadline < pause {
			pause = deadline
		}
		if r.cl.Advance(pause) {
			// Quiescent before the deadline: the feeds ran dry mid-epoch.
			// Top up and continue; simulated time does not advance while
			// the cluster is idle.
			if err := r.checkpoint(); err != nil {
				return err
			}
			if r.cl.Now() >= deadline {
				break
			}
			continue
		}
		if pause == r.nextTick {
			r.sample(r.nextTick)
			r.nextTick += r.period
		}
		if err := r.checkpoint(); err != nil {
			return err
		}
		if pause >= deadline {
			break
		}
	}
	// Deadline reached: discard what was generated but never dispatched
	// and drain the work in flight.
	for _, q := range r.feeder.queues {
		r.fed -= q.DropPending()
	}
	return r.driveToIdle()
}

// executeEvent runs one fault event. A scripted event runs with every
// shard quiescent (phase boundary): recovery scans and flush writebacks
// drain through the epoch barrier before the phase begins, and the event
// fails if they did not complete. An injected event (a live run's
// controller, at an epoch barrier) only initiates: its crash/flush/leave
// writeback traffic merges into the still-running phase, so Flushed and
// Dropped count what the initiation scheduled and dropped synchronously,
// and Seconds stays 0.
func (r *clusterRun) executeEvent(phase int, ev ScenarioEvent, injected bool) (EventResult, error) {
	// The event's own drains advance the cluster; mask the controller
	// checkpoint so injections never execute inside another event.
	r.inEvent = true
	defer func() { r.inEvent = false }()
	cl := r.cl
	er := EventResult{Phase: phase, Kind: string(ev.Kind), Host: ev.Host, Injected: injected}
	start := cl.Now()
	// settle waits out the writeback a scripted event started.
	done := false
	markDone := func() { done = true }
	settle := func(what string) error {
		if injected {
			return nil
		}
		if err := r.driveToIdle(); err != nil {
			return err
		}
		if !done {
			return fmt.Errorf("%s did not complete", what)
		}
		return nil
	}
	switch ev.Kind {
	case scenario.EventCrash:
		h := cl.Hosts()[ev.Host]
		before := h.ResidentBlocks()
		h.Crash()
		if r.cfg.PersistentFlash && r.cfg.Arch != Unified {
			// The flash cache survived; scan its metadata and flush the
			// blocks that were dirty at the crash — the recovery phase the
			// paper declined to simulate (§7.8).
			er.Flushed = h.Recover(markDone)
			if err := settle("crash recovery"); err != nil {
				return er, err
			}
		}
		er.Dropped = before - h.ResidentBlocks()
	case scenario.EventFlush:
		h := cl.Hosts()[ev.Host]
		before := h.ResidentBlocks()
		er.Flushed = h.Flush(ev.Fraction, markDone)
		if err := settle("flush"); err != nil {
			return er, err
		}
		er.Dropped = before - h.ResidentBlocks()
	case scenario.EventLeave:
		if len(r.active) == 1 {
			return er, fmt.Errorf("cannot detach the last attached host")
		}
		h := cl.Hosts()[ev.Host]
		before := h.ResidentBlocks()
		er.Flushed = h.Flush(1, markDone)
		if err := settle("leave flush"); err != nil {
			return er, err
		}
		er.Dropped = before - h.ResidentBlocks()
		r.setAttached(ev.Host, false)
	case scenario.EventJoin:
		r.setAttached(ev.Host, true)
	case scenario.EventFilerCrash:
		er.Partition, er.Replica = ev.Partition, ev.Replica
		if err := cl.Filer().CrashReplica(ev.Partition, ev.Replica); err != nil {
			return er, err
		}
	case scenario.EventFilerRecover:
		er.Partition, er.Replica = ev.Partition, ev.Replica
		blocks, source, err := cl.Filer().RecoverReplica(ev.Partition, ev.Replica)
		if err != nil {
			return er, err
		}
		er.Resynced, er.ResyncSource = blocks, source
	default:
		return er, fmt.Errorf("unknown event kind %q", ev.Kind)
	}
	er.Seconds = (cl.Now() - start).Seconds()
	return er, nil
}

// setAttached updates the churn map and the feed-time remap it implies:
// ops of a detached host go deterministically to an attached one, so a
// departed cache server's clients go somewhere else.
func (r *clusterRun) setAttached(host int, attached bool) {
	if r.attached[host] == attached {
		return
	}
	r.attached[host] = attached
	r.active = r.active[:0]
	for i, a := range r.attached {
		if a {
			r.active = append(r.active, i)
		}
	}
	for i, a := range r.attached {
		r.feeder.route[i] = i
		if !a {
			r.feeder.route[i] = r.active[i%len(r.active)]
		}
	}
}

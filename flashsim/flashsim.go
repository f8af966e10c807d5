// Package flashsim is the public API of the client-side flash caching
// simulator, a reproduction of Holland et al., "Flash Caching on the
// Storage Client" (USENIX ATC 2013).
//
// A simulation is described by a Config — cache sizes, architecture,
// writeback policies, timing model and synthetic workload — and executed
// with Run, which returns a Result carrying the application-observed
// latencies and cache statistics the paper reports. Multi-host fleets can
// shard one simulation across cores (Config.Shards) with results
// bit-identical at every shard count — the callback consistency protocol,
// crash recovery and scripted scenarios included; scripted multi-phase
// runs execute with RunScenario, and point grids with RunBatch/RunGrid.
//
// Quick start:
//
//	cfg := flashsim.DefaultConfig()
//	cfg.Workload.WorkingSetBlocks = 60 * flashsim.BlocksPerGB / 64 // 60 GB at 1:64 scale
//	res, err := flashsim.Run(cfg)
//	...
//	fmt.Printf("read latency: %.1f us\n", res.ReadLatencyMicros)
package flashsim

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/filer"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// BlocksPerGB is the number of 4 KiB blocks in a gigabyte; the paper's
// sizes (8 GB RAM, 64 GB flash, ...) convert to block counts with this.
const BlocksPerGB = 1 << 30 / trace.BlockSize

// Re-exported configuration types. The aliases make flashsim self-contained
// for callers while the implementation lives in internal packages.
type (
	// Architecture selects naive, lookaside or unified (paper §3.3).
	Architecture = core.Architecture
	// Policy is a per-tier writeback policy (paper §3.5).
	Policy = core.Policy
	// Timing is the paper's Table 1 timing model.
	Timing = core.Timing
	// FileSet is the synthetic file-server model traces sample from.
	FileSet = tracegen.FileSet
	// HostStats carries per-host counters.
	HostStats = core.HostStats
	// TraceSource streams trace operations into RunTrace.
	TraceSource = trace.Source
	// TraceOp is one block-level trace record.
	TraceOp = trace.Op
	// ReplacementKind selects the flash tier's replacement policy.
	ReplacementKind = cache.ReplacementKind
)

// Flash replacement policies (extension study; the paper fixes LRU).
const (
	ReplaceLRU   = cache.ReplaceLRU
	ReplaceFIFO  = cache.ReplaceFIFO
	ReplaceClock = cache.ReplaceClock
	ReplaceSLRU  = cache.ReplaceSLRU
	Replace2Q    = cache.Replace2Q
)

// ParseReplacement parses a replacement policy name (lru, fifo, clock,
// slru, 2q).
func ParseReplacement(s string) (ReplacementKind, error) { return cache.ParseReplacement(s) }

// AllReplacements returns the replacement policies in study order.
func AllReplacements() []ReplacementKind {
	return []ReplacementKind{ReplaceLRU, ReplaceFIFO, ReplaceClock, ReplaceSLRU, Replace2Q}
}

// OpenBinaryTrace returns a TraceSource reading the repository's binary
// trace format (as written by cmd/tracegen).
func OpenBinaryTrace(r io.Reader) (TraceSource, error) { return trace.NewBinaryReader(r) }

// Architectures.
const (
	Naive     = core.Naive
	Lookaside = core.Lookaside
	Unified   = core.Unified
)

// Canonical policies (s, a, p1, p5, p15, p30, n).
var (
	PolicySync  = core.PolicySync
	PolicyAsync = core.PolicyAsync
	PolicyP1    = core.PolicyP1
	PolicyP5    = core.PolicyP5
	PolicyP15   = core.PolicyP15
	PolicyP30   = core.PolicyP30
	PolicyNone  = core.PolicyNone
)

// AllPolicies returns the paper's seven policies in figure order.
func AllPolicies() []Policy { return core.AllPolicies() }

// ParsePolicy parses the paper's shorthand (s, a, pN, n).
func ParsePolicy(s string) (Policy, error) { return core.ParsePolicy(s) }

// ParseArchitecture parses "naive", "lookaside" or "unified".
func ParseArchitecture(s string) (Architecture, error) { return core.ParseArchitecture(s) }

// DefaultTiming returns the paper's Table 1 parameters.
func DefaultTiming() Timing { return core.DefaultTiming() }

// GenerateFileSet builds a synthetic file-server model of the given total
// size. Parameter sweeps pass the result via Workload.FileSet so that every
// run samples the same server model, as the paper's experiments all use one
// 1.4 TB Impressions model.
func GenerateFileSet(totalBlocks int64, seed uint64) (*FileSet, error) {
	cfg := tracegen.DefaultFileSetConfig(totalBlocks)
	cfg.Seed = seed
	return tracegen.GenerateFileSet(cfg)
}

// Workload describes the synthetic trace (paper §4).
type Workload struct {
	// WorkingSetBlocks is the per-working-set size in 4 KiB blocks.
	WorkingSetBlocks int64
	// WriteFraction of I/Os are writes (paper baseline: 0.30).
	WriteFraction float64
	// WorkingSetFraction of I/Os come from the working set (0.80).
	WorkingSetFraction float64
	// SharedWorkingSet makes all hosts share one working set, the
	// paper's worst-case consistency scenario (§7.9).
	SharedWorkingSet bool
	// TotalBlocks is the trace volume; zero means 4x the aggregate
	// working set, half of which is warmup.
	TotalBlocks int64
	// MeanIOBlocks is the Poisson mean I/O request size (default 4).
	MeanIOBlocks float64
	// FileSet, when non-nil, overrides file-set generation so sweeps
	// can share one server model as the paper does; otherwise each run
	// generates a file server of 5x the working set (the paper's 1.4 TB
	// model scaled similarly).
	FileSet *FileSet
	// Seed drives all workload randomness.
	Seed uint64
}

// Config describes one simulation.
type Config struct {
	// Hosts and ThreadsPerHost shape the client population (baseline:
	// one host, eight threads).
	Hosts          int
	ThreadsPerHost int

	// RAMBlocks and FlashBlocks size each host's cache tiers.
	RAMBlocks   int
	FlashBlocks int

	Arch        Architecture
	RAMPolicy   Policy
	FlashPolicy Policy

	// FlashReplacement selects the flash tier's replacement policy
	// (layered architectures only; default LRU as in the paper).
	FlashReplacement ReplacementKind

	// PersistentFlash doubles flash write latency to pay for metadata
	// journalling (§7.8).
	PersistentFlash bool

	// ColdStart skips the warmup phase entirely: caches start empty and
	// measurement begins immediately, equivalent to a non-persistent
	// cache crashing at the start of the run (§7.8).
	ColdStart bool

	// RecoveredStart models a persistent cache surviving the same crash
	// (extension; the paper "did not attempt to simulate the recovery
	// phase", §7.8): the flash cache starts populated with working-set
	// blocks, but before any request is served the host scans its
	// on-flash metadata and flushes the blocks that were dirty at the
	// crash. The result reports the recovery delay. Implies the
	// ColdStart trace shape (no warmup half).
	RecoveredStart bool

	// RecoveryDirtyFraction is the fraction of surviving blocks that
	// were dirty at the crash (default 0.05).
	RecoveryDirtyFraction float64

	// ConsistencyProtocol switches from the paper's instant, free
	// invalidation (§3.8) to a callback-based ownership protocol that
	// charges control-message round trips and dirty-block downgrades
	// (extension; quantifies the traffic the paper left unmodeled).
	ConsistencyProtocol bool

	// FTLBackedFlash routes flash traffic through the page-mapped FTL
	// simulator (extension toward the paper's §8 future work): device
	// contention, garbage collection and wear emerge rather than being
	// averaged into a fixed latency.
	FTLBackedFlash bool

	Timing   Timing
	Workload Workload

	// FilerPartitions partitions the filer namespace over that many
	// independent backends, each block routed to exactly one by a
	// deterministic hash of its key, with per-partition service counters,
	// tier residency and (on sharded runs) barrier queue gauges.
	// Partitioning never changes simulated results — they are
	// bit-identical for every (Shards × FilerPartitions) combination —
	// only the backend load accounting. Resolve turns 0 into one
	// partition; negative values are rejected.
	FilerPartitions int

	// FilerReplicas replicates each filer partition over that many
	// independent copies (a replica group): reads are served by the
	// fastest live replica — picked deterministically from the same RNG
	// draw that decides the fast/slow outcome — and writes complete at
	// the FilerWriteQuorum-th ack. With homogeneous replica timing,
	// results are bit-identical for every replica count; the knob buys
	// redundancy (filer-crash/filer-recover scenario events) and the
	// one-slow-backend study (FilerSlowReplica), not different numbers.
	// Resolve turns 0 into one replica, the classic single backend.
	FilerReplicas int

	// FilerWriteQuorum is the ack count a filer write waits for; Resolve
	// turns 0 into the majority quorum FilerReplicas/2+1. Must be within
	// [1, FilerReplicas] when set.
	FilerWriteQuorum int

	// FilerSlowReplica, when > 1, scales the last replica of every
	// partition group's service latencies by this factor — the
	// one-slow-backend tail-latency scenario. Reads route around the slow
	// replica; write-all quorums (FilerWriteQuorum = FilerReplicas) are
	// dragged by it. Requires FilerReplicas >= 2; 0 means homogeneous.
	FilerSlowReplica float64

	// ObjectTier layers an object store (S3-behind-EBS) behind the
	// filer's block tier: reads that miss the prefetch cache and whose
	// block is not block-tier resident pay Timing.ObjectRead instead of
	// the block-tier slow read. Off by default (the paper's two-level
	// filer model).
	ObjectTier bool

	// ObjectWriteThrough copies every buffered filer write to the object
	// tier in the background (accounted as object writes, not charged to
	// the client); ObjectReadPromote installs object-served blocks into
	// the block tier so re-reads pay the cheaper slow read. Both apply
	// only with ObjectTier set.
	ObjectWriteThrough bool
	ObjectReadPromote  bool

	// TraceSample enables sampled request-lifecycle tracing: that
	// fraction of block requests (chosen deterministically by a hash of
	// the request's host and per-host sequence number, so the sampled set
	// is identical for every Shards and FilerPartitions value) record a
	// span per pipeline stage — queue wait, cache lookup, wire transit,
	// filer service, writeback — into Result.Trace. Tracing observes the
	// simulation without perturbing it: results are bit-identical with
	// tracing on or off, and 0 (the default) keeps the request path
	// allocation-free. Out of [0, 1] is rejected.
	TraceSample float64

	// WallProfile enables the sharded executor's wall-clock
	// self-profiler: per-epoch real-time buckets (event execution,
	// barrier wait, exchange merge, filer service) and shard-imbalance
	// gauges, reported in Result.WallProfile. Sequential runs ignore it.
	// Wall-clock numbers are real time and therefore nondeterministic;
	// they never feed the golden-hash surface.
	WallProfile bool

	// Shards, when >= 1, executes the simulation as a sharded cluster:
	// hosts are partitioned over that many parallel discrete-event
	// engines synchronized by a conservative epoch barrier, with the
	// shared filer serviced in globally sorted arrival order at the
	// barrier; consistency traffic (instant invalidations or the callback
	// protocol), crash-recovery metadata scans and scenario runs all ride
	// the same exchange. Steady-state runs and scenarios share one
	// coordinator (cluster.go): it splits the trace into per-host queues,
	// and each host warms up on its own share of the trace. Results are
	// bit-identical for every Shards value >= 1 on any machine, but follow
	// the cluster's (slightly different, fully deterministic) semantics
	// rather than the sequential path's — see docs/ARCHITECTURE.md. For
	// steady-state Run/RunTrace, 0 selects the classic sequential engine;
	// scenarios (RunScenario and friends) always run on the cluster, and
	// Resolve turns their 0 into one shard. Resolve clamps a count above
	// Hosts to Hosts.
	Shards int

	// Seed drives simulator randomness (filer prefetch outcomes).
	Seed uint64
}

// ScalePolicy shrinks a periodic policy's period by the scale factor.
// Scaling the geometry 1:N compresses the simulated run time ~N-fold while
// leaving I/O *rates* unchanged, so keeping the paper's wall-clock periods
// would starve the syncer relative to the (shrunken) cache; dividing the
// period preserves the dimensionless ratio of dirty production per period
// to cache capacity. Non-periodic policies pass through unchanged.
func ScalePolicy(p Policy, scale int) Policy {
	// Periodic and Delayed periods are wall-clock intervals competing
	// with the (compressed) run time, so they scale. Trickle's period is
	// the inverse of a drain *rate*, and rates are unchanged by size
	// scaling, so it passes through.
	if (p.Kind != core.Periodic && p.Kind != core.Delayed) || scale <= 1 {
		return p
	}
	p.Period /= sim.Time(scale)
	if p.Period < sim.Millisecond {
		p.Period = sim.Millisecond
	}
	return p
}

// ScaledConfig returns the paper's baseline configuration with every size
// scaled 1:scale: 8 GB RAM and 64 GB flash serving one host with eight
// threads, a 60 GB working set with 30% writes, one-second periodic RAM
// writeback and asynchronous write-through flash writeback (§7.1's chosen
// combination). The trace volume is 4x the working set with half warmup.
func ScaledConfig(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	return Config{
		Hosts:          1,
		ThreadsPerHost: 8,
		RAMBlocks:      8 * BlocksPerGB / scale,
		FlashBlocks:    64 * BlocksPerGB / scale,
		Arch:           Naive,
		RAMPolicy:      ScalePolicy(PolicyP1, scale),
		FlashPolicy:    PolicyAsync,
		Timing:         DefaultTiming(),
		Workload: Workload{
			WorkingSetBlocks:   60 * int64(BlocksPerGB) / int64(scale),
			WriteFraction:      0.30,
			WorkingSetFraction: 0.80,
			MeanIOBlocks:       4,
			Seed:               1,
		},
		Seed: 1,
	}
}

// DefaultConfig returns ScaledConfig(64), a laptop-friendly baseline.
func DefaultConfig() Config { return ScaledConfig(64) }

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Hosts < 1 {
		return fmt.Errorf("flashsim: need at least one host")
	}
	if c.ThreadsPerHost < 1 {
		return fmt.Errorf("flashsim: need at least one thread per host")
	}
	if c.RAMBlocks < 0 || c.FlashBlocks < 0 {
		return fmt.Errorf("flashsim: negative cache size")
	}
	if c.Workload.WorkingSetBlocks <= 0 {
		return fmt.Errorf("flashsim: working set size must be positive")
	}
	if c.Workload.TotalBlocks < 0 {
		return fmt.Errorf("flashsim: negative trace volume %d", c.Workload.TotalBlocks)
	}
	if f := c.Workload.WriteFraction; math.IsNaN(f) || f < 0 || f > 1 {
		return fmt.Errorf("flashsim: write fraction %v out of [0,1]", f)
	}
	if f := c.Workload.WorkingSetFraction; math.IsNaN(f) || f < 0 || f > 1 {
		return fmt.Errorf("flashsim: working set fraction %v out of [0,1]", f)
	}
	if m := c.Workload.MeanIOBlocks; math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
		return fmt.Errorf("flashsim: mean I/O size %v must be finite and non-negative", m)
	}
	if f := c.RecoveryDirtyFraction; math.IsNaN(f) || f < 0 || f > 1 {
		return fmt.Errorf("flashsim: recovery dirty fraction %v out of [0,1]", f)
	}
	if c.Shards < 0 {
		return fmt.Errorf("flashsim: negative shard count")
	}
	if f := c.TraceSample; math.IsNaN(f) || f < 0 || f > 1 {
		return fmt.Errorf("flashsim: trace sample rate %v out of [0,1]", f)
	}
	// The filer's own Validate covers the partition count (after the
	// 0-means-one normalization), the replica group, tier latencies, and
	// the object-read vs block-tier relation when the object tier is
	// enabled.
	if err := filerConfig(*c).Validate(); err != nil {
		return err
	}
	hc := core.HostConfig{
		RAMBlocks:   c.RAMBlocks,
		FlashBlocks: c.FlashBlocks,
		Arch:        c.Arch,
		RAMPolicy:   c.RAMPolicy,
		FlashPolicy: c.FlashPolicy,
	}
	if err := hc.Validate(); err != nil {
		return err
	}
	return c.Timing.Validate()
}

// Resolve validates a run and returns the configuration it runs: the
// one that reports, run controllers and the daemon's run view show. sc is
// the run's scenario, nil for a steady-state run. Resolve is the only code
// that gives the configuration's zero values their meaning:
//
//   - a scenario's filer spec is folded in first (ApplyFilerSpec);
//   - FilerPartitions, FilerReplicas and FilerWriteQuorum take the
//     filer's defaults: one partition, one replica and the majority
//     quorum of the resolved replica count;
//   - a scenario's Shards 0 becomes one shard, and a count above Hosts is
//     clamped to Hosts (a steady-state 0 stays 0, the sequential engine).
//
// Every scripted event is then checked against the resolved hosts,
// partitions and replicas (scenario.CheckLive, the rule injected events
// are admitted by). Resolve is idempotent; Run, RunTrace and the scenario
// entry points call it first, so passing them its result changes nothing.
func Resolve(cfg Config, sc *Scenario) (Config, error) {
	cfg, _, _, err := resolve(cfg, sc)
	return cfg, err
}

// resolve is Resolve that also returns the validated clone of the
// scenario (normalization never mutates the caller's copy) and its
// sampling period; both are zero for a steady-state run.
func resolve(cfg Config, sc *Scenario) (Config, *Scenario, sim.Time, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, nil, 0, err
	}
	var period sim.Time
	if sc != nil {
		sc = sc.Clone()
		if err := sc.Validate(); err != nil {
			return cfg, nil, 0, err
		}
		period = sim.Time(sc.SampleEveryMillis * float64(sim.Millisecond))
		if period <= 0 {
			return cfg, nil, 0, fmt.Errorf("flashsim: scenario %s sampling period %vms rounds to zero",
				sc.Name, sc.SampleEveryMillis)
		}
		var err error
		if cfg, err = ApplyFilerSpec(cfg, sc.Filer); err != nil {
			return cfg, nil, 0, fmt.Errorf("flashsim: scenario %s: %w", sc.Name, err)
		}
		cfg.Shards = max(cfg.Shards, 1)
	}
	fc := filerConfig(cfg).WithDefaults()
	cfg.FilerPartitions, cfg.FilerReplicas, cfg.FilerWriteQuorum = fc.Partitions, fc.Replicas, fc.WriteQuorum
	cfg.Shards = min(cfg.Shards, cfg.Hosts)
	if sc != nil {
		for pi := range sc.Phases {
			ph := &sc.Phases[pi]
			for j := range ph.Events {
				if err := scenario.CheckLive(&ph.Events[j], cfg.Hosts, cfg.FilerPartitions, cfg.FilerReplicas); err != nil {
					return cfg, nil, 0, fmt.Errorf("flashsim: scenario %s phase %s: %w", sc.Name, ph.Name, err)
				}
			}
		}
	}
	return cfg, sc, period, nil
}

// filerConfig translates the public configuration into the filer's own:
// FilerPartitions 0 normalizes to one partition, and the object tier is
// attached only when enabled. Resolve writes the partition count back.
func filerConfig(cfg Config) filer.Config {
	fc := filer.Config{
		Partitions:        cfg.FilerPartitions,
		Replicas:          cfg.FilerReplicas,
		WriteQuorum:       cfg.FilerWriteQuorum,
		SlowReplicaFactor: cfg.FilerSlowReplica,
		FastRead:          cfg.Timing.FilerFastRead,
		SlowRead:          cfg.Timing.FilerSlowRead,
		Write:             cfg.Timing.FilerWrite,
		PrefetchRate:      cfg.Timing.FilerFastReadRate,
	}
	if fc.Partitions == 0 {
		fc.Partitions = 1
	}
	if cfg.ObjectTier {
		fc.Object = &filer.ObjectTier{
			Read:         cfg.Timing.ObjectRead,
			Write:        cfg.Timing.ObjectWrite,
			WriteThrough: cfg.ObjectWriteThrough,
			ReadPromote:  cfg.ObjectReadPromote,
		}
	}
	return fc
}

// newFiler builds the configuration's filer on the given engine and RNG
// stream; the configuration was validated up front, so a constructor
// error here is a bug.
func newFiler(eng *sim.Engine, rnd *rng.RNG, cfg Config) *filer.Filer {
	f, err := filer.NewPartitioned(eng, rnd, filerConfig(cfg))
	if err != nil {
		panic("flashsim: filer construction after validation: " + err.Error())
	}
	return f
}

// workloadFileSet returns the configuration's file-server model,
// generating one when the workload does not share one explicitly.
func workloadFileSet(cfg Config) (*FileSet, error) {
	if fs := cfg.Workload.FileSet; fs != nil {
		return fs, nil
	}
	fsCfg := tracegen.DefaultFileSetConfig(5 * cfg.Workload.WorkingSetBlocks)
	fsCfg.Seed = cfg.Workload.Seed + 1000
	return tracegen.GenerateFileSet(fsCfg)
}

// traceConfig returns the validated trace-generator configuration of the
// workload, bounded at totalBlocks; tracegen fills in its defaults, the
// volume of a 0 bound among them.
func traceConfig(cfg Config, totalBlocks int64) (tracegen.Config, error) {
	fs, err := workloadFileSet(cfg)
	if err != nil {
		return tracegen.Config{}, err
	}
	tc := tracegen.Config{
		Seed:               cfg.Workload.Seed,
		Hosts:              cfg.Hosts,
		ThreadsPerHost:     cfg.ThreadsPerHost,
		WorkingSetBlocks:   cfg.Workload.WorkingSetBlocks,
		SharedWorkingSet:   cfg.Workload.SharedWorkingSet,
		WorkingSetFraction: cfg.Workload.WorkingSetFraction,
		WriteFraction:      cfg.Workload.WriteFraction,
		TotalBlocks:        totalBlocks,
		MeanIOBlocks:       cfg.Workload.MeanIOBlocks,
		FileSet:            fs,
	}
	return tc, tc.Validate()
}

// Run executes the simulation and returns its results.
func Run(cfg Config) (*Result, error) {
	cfg, err := Resolve(cfg, nil)
	if err != nil {
		return nil, err
	}
	tc, err := traceConfig(cfg, cfg.Workload.TotalBlocks)
	if err != nil {
		return nil, err
	}
	if cfg.ColdStart || cfg.RecoveredStart {
		// Run only the measured half against post-crash caches: the
		// warmup the trace would have provided was "lost in the crash".
		tc.TotalBlocks /= 2
	}
	gen, err := tracegen.NewGenerator(tc)
	if err != nil {
		return nil, err
	}
	warmup := gen.WarmupBlocks()
	if cfg.ColdStart || cfg.RecoveredStart {
		warmup = 0
	}
	var pre prestartFn
	if cfg.RecoveredStart {
		dirtyFrac := cfg.RecoveryDirtyFraction
		if dirtyFrac == 0 {
			dirtyFrac = 0.05
		}
		// One RNG stream shared across hosts: the runners call pre in
		// host-ID order (sequential and sharded alike), so the prefill is
		// identical on every executor and for every shard count.
		rnd := rng.New(cfg.Seed + 7)
		pre = func(h *core.Host, hostIndex int, done func()) {
			keys := workingSetKeys(gen.WorkingSet(hostIndex), cfg.FlashBlocks)
			h.Prefill(keys, dirtyFrac, rnd)
			h.Recover(done)
		}
	}
	return runTrace(cfg, gen, warmup, pre)
}

// workingSetKeys enumerates up to limit block keys from a working set.
func workingSetKeys(ws *tracegen.WorkingSet, limit int) []cache.Key {
	keys := make([]cache.Key, 0, limit)
	for _, reg := range ws.Regions {
		for b := uint32(0); b < reg.Blocks; b++ {
			if len(keys) >= limit {
				return keys
			}
			keys = append(keys, cache.Key(trace.BlockKey(reg.File, reg.Start+b)))
		}
	}
	return keys
}

// prestartFn prepares one host's state (e.g. crash recovery) before the
// trace driver starts; the runner calls it once per host, in host-ID
// order, and must run the simulation until every host's done has fired
// before any request is served.
type prestartFn func(h *core.Host, hostIndex int, done func())

// RunTrace executes the simulation over an explicit trace source (e.g. a
// trace file) with the given warmup volume in blocks. It fails on an op
// that trace.Op.Validate rejects and, for a source with an Err() error
// method such as OpenBinaryTrace's, on a trace it could not decode.
func RunTrace(cfg Config, src trace.Source, warmupBlocks int64) (*Result, error) {
	cfg, err := Resolve(cfg, nil)
	if err != nil {
		return nil, err
	}
	cs := &checkedSource{src: src}
	res, err := runTrace(cfg, cs, warmupBlocks, nil)
	if err == nil && cs.err != nil {
		return nil, cs.err
	}
	return res, err
}

// checkedSource is RunTrace's view of a caller's trace: it ends the trace
// at the first invalid op or decode error and keeps the error. The cluster
// drains it before building anything and fails at once; the sequential
// engine pulls ops as it runs and fails after the valid prefix.
type checkedSource struct {
	src trace.Source
	ops int64 // ops passed through
	err error
}

// Next implements trace.Source.
func (c *checkedSource) Next() (trace.Op, bool) {
	if c.err != nil {
		return trace.Op{}, false
	}
	op, ok := c.src.Next()
	if !ok {
		if e, has := c.src.(interface{ Err() error }); has && e.Err() != nil {
			c.err = fmt.Errorf("flashsim: trace unreadable after %d ops: %w", c.ops, e.Err())
		}
		return trace.Op{}, false
	}
	if err := op.Validate(); err != nil {
		c.err = fmt.Errorf("flashsim: trace op %d (%v): %w", c.ops, op, err)
		return trace.Op{}, false
	}
	c.ops++
	return op, true
}

// simulation bundles the engine-level objects of one run: the engine, the
// shared filer, the consistency accounting (nil for a single host, which
// has nothing to invalidate), the hosts and the trace driver: the
// substrate of the sequential runTrace.
type simulation struct {
	eng   *sim.Engine
	fsrv  *filer.Filer
	cons  *core.ConsistencyStats
	hosts []*core.Host
	drv   *core.Driver
}

// hostConfig maps the public Config onto one host's core configuration.
// Every executor (sequential steady-state, sharded steady-state, scenario)
// builds its hosts through this single mapping, so a new Config knob
// cannot reach one path and silently miss another.
func hostConfig(cfg Config, id int) core.HostConfig {
	return core.HostConfig{
		ID:               id,
		RAMBlocks:        cfg.RAMBlocks,
		FlashBlocks:      cfg.FlashBlocks,
		Arch:             cfg.Arch,
		RAMPolicy:        cfg.RAMPolicy,
		FlashPolicy:      cfg.FlashPolicy,
		FlashReplacement: cfg.FlashReplacement,
		PersistentFlash:  cfg.PersistentFlash,
		FTLBacked:        cfg.FTLBackedFlash,
	}
}

// buildSimulation assembles the hosts, filer, network segments and driver
// described by the configuration around the given trace source.
func buildSimulation(cfg Config, src trace.Source, warmupBlocks int64) (*simulation, error) {
	eng := &sim.Engine{}
	seedRNG := rng.New(cfg.Seed)
	fsrv := newFiler(eng, seedRNG.Fork(), cfg)

	cfgs := make([]core.HostConfig, cfg.Hosts)
	for i := range cfgs {
		cfgs[i] = hostConfig(cfg, i)
	}
	hosts, err := core.NewHosts(eng, cfgs, cfg.Timing, fsrv)
	if err != nil {
		return nil, err
	}

	var cons *core.ConsistencyStats
	if cfg.Hosts > 1 {
		cons = core.TrackConsistency(hosts, cfg.ConsistencyProtocol)
	}
	drv, err := core.NewDriver(eng, hosts, src, warmupBlocks)
	if err != nil {
		return nil, err
	}
	return &simulation{eng: eng, fsrv: fsrv, cons: cons, hosts: hosts, drv: drv}, nil
}

// attachTracer builds the run's request-lifecycle tracer and wires its
// per-host buffers into the hosts. Nil (tracing fully disabled, the
// zero-overhead path) when the sample rate is 0. Must run before any
// trace op is pumped: the driver's queue-span accounting assumes the
// tracer saw every enqueue.
func attachTracer(cfg Config, hosts []*core.Host) *obs.Tracer {
	if cfg.TraceSample <= 0 {
		return nil
	}
	tr := obs.NewTracer(cfg.TraceSample)
	for i, h := range hosts {
		h.SetTrace(tr.Host(i))
	}
	return tr
}

// runTrace executes a resolved configuration over src.
func runTrace(cfg Config, src trace.Source, warmupBlocks int64, pre prestartFn) (*Result, error) {
	wallStart := time.Now()
	if cfg.Shards >= 1 {
		res, err := runCluster(cfg, src, warmupBlocks, pre)
		if err == nil {
			res.WallClockSeconds, res.PeakHeapBytes = runtimeFootprint(wallStart)
		}
		return res, err
	}
	s, err := buildSimulation(cfg, src, warmupBlocks)
	if err != nil {
		return nil, err
	}
	tr := attachTracer(cfg, s.hosts)
	var recoverySeconds float64
	if pre != nil {
		recovered := 0
		for i, h := range s.hosts {
			pre(h, i, func() { recovered++ })
		}
		s.eng.Run()
		if recovered != len(s.hosts) {
			return nil, fmt.Errorf("flashsim: recovery did not complete")
		}
		recoverySeconds = s.eng.Now().Seconds()
	}
	s.drv.Run()

	var cons core.ConsistencyStats
	if s.cons != nil {
		cons = *s.cons
	}
	res := buildResult(&Result{
		OpsCompleted:     s.drv.OpsCompleted(),
		BlocksIssued:     s.drv.BlocksIssued(),
		SimulatedSeconds: s.eng.Now().Seconds(),
		Events:           s.eng.Processed(),
	}, s.hosts, s.fsrv, cons)
	res.RecoverySeconds = recoverySeconds
	if tr != nil {
		res.Trace = tr.Spans()
	}
	res.WallClockSeconds, res.PeakHeapBytes = runtimeFootprint(wallStart)
	return res, nil
}

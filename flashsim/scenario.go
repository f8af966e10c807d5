package flashsim

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/filer"
	"repro/internal/runner/pool"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracegen"
)

// Re-exported scenario types: callers describe scripted runs with these
// and execute them with RunScenario.
type (
	// Scenario is an ordered list of phases with workload overrides and
	// scripted fault events (internal/scenario).
	Scenario = scenario.Scenario
	// ScenarioPhase is one leg of a scenario.
	ScenarioPhase = scenario.Phase
	// ScenarioEvent is one scripted fault (crash, flush, leave, join).
	ScenarioEvent = scenario.Event
	// ScenarioFilerSpec overrides the filer backend layout (partition
	// count, object tier) for a scenario run.
	ScenarioFilerSpec = scenario.FilerSpec
	// TimeSeries is the exportable telemetry table (CSV / NDJSON).
	TimeSeries = stats.TimeSeries
)

// LoadScenario reads and validates a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// ParseScenario decodes and validates scenario JSON.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// BuiltinScenario returns a fresh copy of a built-in scenario (warmup,
// burst, ws-shift, crash-recovery, churn).
func BuiltinScenario(name string) (*Scenario, error) { return scenario.Builtin(name) }

// BuiltinScenarioNames lists the built-in scenarios.
func BuiltinScenarioNames() []string { return scenario.BuiltinNames() }

// Telemetry column names, in series order.
const (
	ColReadMicros  = "read_us"   // interval mean read latency
	ColWriteMicros = "write_us"  // interval mean write latency
	ColRAMHit      = "ram_hit"   // interval RAM hit rate over reads
	ColFlashHit    = "flash_hit" // interval flash hit rate over RAM misses
	ColBlocks      = "blocks"    // blocks issued during the interval
	ColInflight    = "inflight"  // ops executing at the sample instant
	ColDirty       = "dirty"     // dirty blocks resident across hosts
)

// telemetryColumns is the fixed column set of every scenario run.
var telemetryColumns = []string{
	ColReadMicros, ColWriteMicros, ColRAMHit, ColFlashHit,
	ColBlocks, ColInflight, ColDirty,
}

// TelemetryColumns returns the telemetry column names of a scenario run in
// series order — the columns of ScenarioResult.Telemetry and of every
// sample row a streaming run delivers (see RunScenarioStream).
func TelemetryColumns() []string {
	return append([]string(nil), telemetryColumns...)
}

// PhaseResult carries one phase's aggregate measurements: deltas of the
// host statistics between the phase's start (after its events) and end.
type PhaseResult struct {
	Name string

	// StartSeconds and EndSeconds bound the phase on the simulated clock
	// (events at the phase boundary execute before StartSeconds).
	StartSeconds float64
	EndSeconds   float64

	// BlocksIssued counts block accesses issued during the phase.
	BlocksIssued uint64

	ReadLatencyMicros  float64
	WriteLatencyMicros float64
	RAMHitRate         float64
	FlashHitRate       float64

	FilerFetches    uint64
	FilerWritebacks uint64
	SyncEvictions   uint64

	// DirtyBlocksEnd is the resident dirty-block count at phase end.
	DirtyBlocksEnd uint64
}

// EventResult records one executed scripted fault.
type EventResult struct {
	// Phase is the index of the phase at whose start the event ran.
	Phase int
	Kind  string
	Host  int
	// Seconds is the simulated time the event consumed (crash recovery
	// scan + flush, flush writeback drain).
	Seconds float64
	// Flushed counts dirty blocks written back by the event; Dropped
	// counts resident blocks discarded.
	Flushed int
	Dropped int

	// Filer-event fields (filer-crash / filer-recover): the target
	// replica, and for recoveries the re-sync volume in blocks plus its
	// source ("group" or "object").
	Partition    int
	Replica      int
	Resynced     int
	ResyncSource string

	// Injected marks an event delivered to a live run through a
	// RunController rather than scripted in the scenario. Injected events
	// execute at the next epoch barrier, so their placement depends on
	// wall-clock arrival; scripted runs never set this.
	Injected bool
}

// ScenarioResult is everything a scenario run measured: per-phase results,
// the executed events, and the time-resolved telemetry series.
type ScenarioResult struct {
	Scenario string
	Phases   []PhaseResult
	Events   []EventResult

	// Telemetry holds one row per sampling interval (see Col* constants).
	Telemetry *TimeSeries

	// Run bookkeeping.
	BlocksIssued     uint64
	SimulatedSeconds float64
	EngineEvents     uint64

	// Whole-run aggregates over every host, measured at the end of the
	// run (phases carry the per-leg deltas). Shard-count invariant;
	// excluded from String() — the golden-hash surface predates them —
	// but carried into the scenario run report (NewScenarioReport).
	ReadLatencyMicros  float64
	WriteLatencyMicros float64
	RAMHitRate         float64
	FlashHitRate       float64
	FilerFetches       uint64
	FilerWritebacks    uint64
	SyncEvictions      uint64
	DirtyBlocksEnd     uint64

	// Barrier-schedule statistics. Shard-count invariant, and
	// deliberately excluded from String(): the golden-hash surface
	// predates them.
	Epochs          uint64
	BarrierMessages uint64

	// Filer backend statistics: per-partition load accounting (see
	// Result.FilerPartitions) and object-tier traffic. The service
	// counters are shard- and partition-count invariant; like the barrier
	// statistics they are excluded from String().
	FilerPartitions   []FilerPartitionStats
	FilerObjectReads  uint64
	FilerObjectWrites uint64

	// Observability (see the Result fields of the same names): sampled
	// request-lifecycle spans (TraceSample > 0), the cluster's wall-clock
	// self-profile (Config.WallProfile), and the run's real-time
	// footprint. All excluded from the golden-hash surface; String()
	// reports the footprint on a trailing "runtime:" line that hash
	// consumers strip.
	Trace            []TraceSpan
	WallProfile      *WallProfile
	WallClockSeconds float64
	PeakHeapBytes    uint64
}

// String renders a deterministic human-readable summary: the phase table,
// the event log, and the telemetry shape. Together with Telemetry.CSV it
// is the scenario golden-hash surface.
func (r *ScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d phases, %.3f simulated seconds, %d blocks (%d events)\n",
		r.Scenario, len(r.Phases), r.SimulatedSeconds, r.BlocksIssued, r.EngineEvents)
	fmt.Fprintf(&b, "%-12s %10s %10s %9s %9s %8s %8s %10s %8s\n",
		"phase", "start_s", "blocks", "read_us", "write_us", "ram_hit", "fl_hit", "filer_wb", "dirty")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-12s %10.3f %10d %9.2f %9.2f %7.1f%% %7.1f%% %10d %8d\n",
			p.Name, p.StartSeconds, p.BlocksIssued,
			p.ReadLatencyMicros, p.WriteLatencyMicros,
			100*p.RAMHitRate, 100*p.FlashHitRate,
			p.FilerWritebacks, p.DirtyBlocksEnd)
	}
	for _, e := range r.Events {
		switch e.Kind {
		case string(scenario.EventFilerCrash):
			fmt.Fprintf(&b, "event: phase %d %s partition %d replica %d\n",
				e.Phase, e.Kind, e.Partition, e.Replica)
		case string(scenario.EventFilerRecover):
			fmt.Fprintf(&b, "event: phase %d %s partition %d replica %d (%d blocks from %s)\n",
				e.Phase, e.Kind, e.Partition, e.Replica, e.Resynced, e.ResyncSource)
		default:
			fmt.Fprintf(&b, "event: phase %d %s host %d (%.6f s, %d flushed, %d dropped)\n",
				e.Phase, e.Kind, e.Host, e.Seconds, e.Flushed, e.Dropped)
		}
	}
	if r.Telemetry != nil {
		fmt.Fprintf(&b, "telemetry: %d samples x %d columns\n",
			r.Telemetry.Len(), r.Telemetry.NumColumns())
	}
	if r.WallClockSeconds > 0 {
		// Real-time footprint: nondeterministic, so hash consumers strip
		// this line (tests zero the fields; CI filters "^runtime:").
		fmt.Fprintf(&b, "runtime: %.3f s wall, %.1f MiB peak heap\n",
			r.WallClockSeconds, float64(r.PeakHeapBytes)/(1<<20))
	}
	return b.String()
}

// scenarioTraceBlocks caps a scenario's trace volume. Phases bound actual
// consumption; this only keeps the generator from stopping early.
const scenarioTraceBlocks = int64(1) << 56

// workingSets returns the number of distinct working sets the workload
// samples (per-host, or one when shared).
func workingSets(cfg Config) int64 {
	if cfg.Workload.SharedWorkingSet {
		return 1
	}
	return int64(cfg.Hosts)
}

// aggSnap is an aggregate host-statistics snapshot used for both phase
// deltas and telemetry intervals. Collecting one allocates nothing.
type aggSnap struct {
	readSum    sim.Time
	readCount  uint64
	writeSum   sim.Time
	writeCount uint64

	ramHits, ramMisses     uint64
	flashHits, flashMisses uint64

	filerFetches    uint64
	filerWritebacks uint64
	syncEvictions   uint64

	blocksIssued uint64
	dirty        uint64
}

// snapshotHosts collects the aggregate over an explicit host list, in host
// order; blocksIssued is supplied by the caller (the per-host drivers' sum).
func snapshotHosts(hosts []*core.Host, blocksIssued uint64, out *aggSnap) {
	*out = aggSnap{}
	for _, h := range hosts {
		st := h.Stats()
		out.readSum += st.ReadLat.Sum()
		out.readCount += st.ReadLat.Count()
		out.writeSum += st.WriteLat.Sum()
		out.writeCount += st.WriteLat.Count()
		out.ramHits += st.RAMHits
		out.ramMisses += st.RAMMisses
		out.flashHits += st.FlashHits
		out.flashMisses += st.FlashMisses
		out.filerFetches += st.FilerFetches
		out.filerWritebacks += st.FilerWritebacks
		out.syncEvictions += st.SyncEvictions
		out.dirty += uint64(h.DirtyBlocks())
	}
	out.blocksIssued = blocksIssued
}

// meanMicros returns (sum/count) in microseconds, 0 when count is 0.
func meanMicros(sum sim.Time, count uint64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count) / float64(sim.Microsecond)
}

// rate returns hits/(hits+misses), 0 when empty.
func rate(hits, misses uint64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// RunScenario executes a scripted scenario against the configuration: the
// caches start cold, statistics collection is on from the first block
// (warmup is expressed as a phase, not discarded), and each phase's
// overrides and events apply at its start with the simulation quiesced.
// The configuration's ColdStart/RecoveredStart/TotalBlocks knobs are
// ignored — the scenario is the run's shape.
//
// Runs execute on the sharded cluster — phase trace is fed, fault events
// run and telemetry samples are taken at epoch barriers — so a fixed
// (cfg, scenario) pair produces identical results, telemetry included, on
// every run and at every shard count; Shards 0 runs as one shard (see
// cluster.go and docs/SCENARIOS.md).
func RunScenario(cfg Config, sc *Scenario) (*ScenarioResult, error) {
	return RunScenarioStream(cfg, sc, ScenarioHooks{}, nil)
}

// prepareScenario runs the shared prelude of every scenario entry point:
// configuration and scenario validation, the host/churn cross-checks, the
// sampling-period resolution, the fold of the scenario's filer spec into
// the configuration, and the shard-count normalization (Shards 0 means one
// shard). The scenario is cloned, so normalization never mutates the
// caller's copy.
func prepareScenario(cfg Config, sc *Scenario) (Config, *Scenario, sim.Time, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, nil, 0, err
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	sc = sc.Clone()
	if err := sc.Validate(); err != nil {
		return cfg, nil, 0, err
	}
	if maxHost := sc.MaxHost(); maxHost >= cfg.Hosts {
		return cfg, nil, 0, fmt.Errorf("flashsim: scenario %s targets host %d but config has %d hosts",
			sc.Name, maxHost, cfg.Hosts)
	}
	if sc.HasChurn() && cfg.Hosts < 2 {
		return cfg, nil, 0, fmt.Errorf("flashsim: scenario %s has host churn; need at least 2 hosts", sc.Name)
	}
	period := sim.Time(sc.SampleEveryMillis * float64(sim.Millisecond))
	if period <= 0 {
		return cfg, nil, 0, fmt.Errorf("flashsim: scenario %s sampling period %vms rounds to zero",
			sc.Name, sc.SampleEveryMillis)
	}
	cfg, err := applyScenarioFiler(cfg, sc)
	if err != nil {
		return cfg, nil, 0, err
	}
	return cfg, sc, period, nil
}

// CheckScenario validates a (configuration, scenario) pair without running
// it — every admission check RunScenario would apply — and returns the
// effective configuration with the scenario's filer spec folded in and
// Shards normalized to at least one. It is
// the fail-fast gate for services that accept runs and execute them later.
func CheckScenario(cfg Config, sc *Scenario) (Config, error) {
	cfg, _, _, err := prepareScenario(cfg, sc)
	return cfg, err
}

// FilerLayout reports the effective filer geometry of a configuration:
// the partition count and the replica-group size, both normalized to at
// least 1. Live-injected filer events are bounds-checked against it.
func FilerLayout(cfg Config) (partitions, replicas int) {
	fc := filerConfig(cfg)
	partitions, replicas = fc.Partitions, fc.Replicas
	if replicas == 0 {
		replicas = 1
	}
	return partitions, replicas
}

// fillScenarioTotals sets the whole-run aggregate fields from the final
// host snapshot.
func fillScenarioTotals(res *ScenarioResult, fin *aggSnap) {
	res.ReadLatencyMicros = meanMicros(fin.readSum, fin.readCount)
	res.WriteLatencyMicros = meanMicros(fin.writeSum, fin.writeCount)
	res.RAMHitRate = rate(fin.ramHits, fin.ramMisses)
	res.FlashHitRate = rate(fin.flashHits, fin.flashMisses)
	res.FilerFetches = fin.filerFetches
	res.FilerWritebacks = fin.filerWritebacks
	res.SyncEvictions = fin.syncEvictions
	res.DirtyBlocksEnd = fin.dirty
}

// ApplyFilerSpec folds a scenario-style filer specification into the
// configuration — partition/replica layout, quorum, slow-replica factor
// and the object tier — then re-validates the resulting filer layout (a
// spec may pair an object-tier latency with a config whose block tier
// undercuts it). A nil spec returns the configuration unchanged. It is
// the shared fold behind scenario runs and the daemon's config filer
// block.
func ApplyFilerSpec(cfg Config, f *ScenarioFilerSpec) (Config, error) {
	if f == nil {
		return cfg, nil
	}
	// Validate a shallow copy: it normalizes the absent object-tier
	// policy fields to non-nil pointers without mutating the caller's.
	spec := *f
	if err := spec.Validate(); err != nil {
		return cfg, err
	}
	if spec.Partitions > 0 {
		cfg.FilerPartitions = spec.Partitions
	}
	if spec.Replicas > 0 {
		cfg.FilerReplicas = spec.Replicas
	}
	if spec.WriteQuorum > 0 {
		cfg.FilerWriteQuorum = spec.WriteQuorum
	}
	if spec.SlowReplicaFactor > 0 {
		cfg.FilerSlowReplica = spec.SlowReplicaFactor
	}
	if spec.ObjectTier {
		cfg.ObjectTier = true
		if spec.ObjectReadMicros > 0 {
			cfg.Timing.ObjectRead = sim.Time(spec.ObjectReadMicros * float64(sim.Microsecond))
		}
		if spec.ObjectWriteMicros > 0 {
			cfg.Timing.ObjectWrite = sim.Time(spec.ObjectWriteMicros * float64(sim.Microsecond))
		}
		cfg.ObjectWriteThrough = *spec.WriteThrough
		cfg.ObjectReadPromote = *spec.ReadPromote
	}
	if err := filerConfig(cfg).Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// applyScenarioFiler folds the scenario's filer specification into the
// configuration before the cluster builds its filer, and checks the
// scenario's filer events against the resulting layout.
func applyScenarioFiler(cfg Config, sc *Scenario) (Config, error) {
	if sc.Filer == nil {
		return cfg, nil
	}
	cfg, err := ApplyFilerSpec(cfg, sc.Filer)
	if err != nil {
		return cfg, fmt.Errorf("flashsim: scenario %s: %w", sc.Name, err)
	}
	if err := checkFilerEvents(sc, filerConfig(cfg)); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// checkFilerEvents verifies every filer-crash/filer-recover event against
// the effective filer layout, so a typo'd partition or replica index fails
// before the run instead of mid-scenario.
func checkFilerEvents(sc *Scenario, fc filer.Config) error {
	reps := fc.Replicas
	if reps == 0 {
		reps = 1
	}
	for pi := range sc.Phases {
		for _, ev := range sc.Phases[pi].Events {
			if ev.Kind != scenario.EventFilerCrash && ev.Kind != scenario.EventFilerRecover {
				continue
			}
			if ev.Partition >= fc.Partitions {
				return fmt.Errorf("flashsim: scenario %s phase %s: %s targets filer partition %d but the run has %d",
					sc.Name, sc.Phases[pi].Name, ev.Kind, ev.Partition, fc.Partitions)
			}
			if ev.Replica >= reps {
				return fmt.Errorf("flashsim: scenario %s phase %s: %s targets filer replica %d but groups have %d",
					sc.Name, sc.Phases[pi].Name, ev.Kind, ev.Replica, reps)
			}
		}
	}
	return nil
}

// scenarioGenerator builds the effectively-unbounded trace generator of a
// scenario run (phase bounds, not the generator, end the trace).
func scenarioGenerator(cfg Config) (*tracegen.Generator, error) {
	fs, err := workloadFileSet(cfg)
	if err != nil {
		return nil, err
	}
	return tracegen.NewGenerator(tracegen.Config{
		Seed:               cfg.Workload.Seed,
		Hosts:              cfg.Hosts,
		ThreadsPerHost:     cfg.ThreadsPerHost,
		WorkingSetBlocks:   cfg.Workload.WorkingSetBlocks,
		SharedWorkingSet:   cfg.Workload.SharedWorkingSet,
		WorkingSetFraction: cfg.Workload.WorkingSetFraction,
		WriteFraction:      cfg.Workload.WriteFraction,
		TotalBlocks:        scenarioTraceBlocks,
		MeanIOBlocks:       cfg.Workload.MeanIOBlocks,
		FileSet:            fs,
	})
}

// phaseBlocks resolves a phase's block bound against the configuration's
// aggregate working set. 0 means the phase is bounded by time instead.
func phaseBlocks(cfg Config, ph *ScenarioPhase) int64 {
	if ph.WSMultiple > 0 {
		blocks := int64(ph.WSMultiple * float64(cfg.Workload.WorkingSetBlocks*workingSets(cfg)))
		if blocks < 1 {
			// A tiny working set must not truncate the bound to 0, which
			// the runners would read as "unlimited".
			blocks = 1
		}
		return blocks
	}
	return ph.Blocks
}

// phaseResult assembles one phase's result from its bounding snapshots.
func phaseResult(name string, start, end sim.Time, a, b *aggSnap) PhaseResult {
	return PhaseResult{
		Name:               name,
		StartSeconds:       start.Seconds(),
		EndSeconds:         end.Seconds(),
		BlocksIssued:       b.blocksIssued - a.blocksIssued,
		ReadLatencyMicros:  meanMicros(b.readSum-a.readSum, b.readCount-a.readCount),
		WriteLatencyMicros: meanMicros(b.writeSum-a.writeSum, b.writeCount-a.writeCount),
		RAMHitRate:         rate(b.ramHits-a.ramHits, b.ramMisses-a.ramMisses),
		FlashHitRate:       rate(b.flashHits-a.flashHits, b.flashMisses-a.flashMisses),
		FilerFetches:       b.filerFetches - a.filerFetches,
		FilerWritebacks:    b.filerWritebacks - a.filerWritebacks,
		SyncEvictions:      b.syncEvictions - a.syncEvictions,
		DirtyBlocksEnd:     b.dirty,
	}
}

// applyOverrides pushes a phase's workload overrides into the generator.
func applyOverrides(gen *tracegen.Generator, ph *ScenarioPhase) error {
	if ph.WriteFraction != nil {
		if err := gen.SetWriteFraction(*ph.WriteFraction); err != nil {
			return err
		}
	}
	if ph.WorkingSetFraction != nil {
		if err := gen.SetWorkingSetFraction(*ph.WorkingSetFraction); err != nil {
			return err
		}
	}
	if ph.ActiveThreads != nil {
		if err := gen.SetActiveThreads(*ph.ActiveThreads); err != nil {
			return err
		}
	}
	if ph.SharedWorkingSet != nil {
		if err := gen.SetSharedWorkingSet(*ph.SharedWorkingSet); err != nil {
			return err
		}
	}
	if ph.ShiftFraction > 0 {
		if err := gen.ShiftWorkingSets(ph.ShiftFraction); err != nil {
			return err
		}
	}
	return nil
}

// RunScenarioBatch executes one scenario per configuration on the worker
// pool (see RunBatch for the determinism contract): results are indexed
// like the inputs and identical for every parallel setting.
func RunScenarioBatch(cfgs []Config, scs []*Scenario, parallel int) ([]*ScenarioResult, error) {
	if len(cfgs) != len(scs) {
		return nil, fmt.Errorf("flashsim: %d configs but %d scenarios", len(cfgs), len(scs))
	}
	return pool.Collect(len(cfgs), parallel, func(i int) (*ScenarioResult, error) {
		return RunScenario(cfgs[i], scs[i])
	}, nil)
}

package flashsim

import (
	"fmt"
	"strings"

	"repro/internal/core"
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
// The json tags are its wire form in the scenario report and on the
// daemon's phase stream lines.
type PhaseResult struct {
	Name string `json:"name"`

	// StartSeconds and EndSeconds bound the phase on the simulated clock
	// (events at the phase boundary execute before StartSeconds).
	StartSeconds float64 `json:"start_s"`
	EndSeconds   float64 `json:"end_s"`

	// BlocksIssued counts block accesses issued during the phase.
	BlocksIssued uint64 `json:"blocks_issued"`

	ReadLatencyMicros  float64 `json:"read_latency_us"`
	WriteLatencyMicros float64 `json:"write_latency_us"`
	RAMHitRate         float64 `json:"ram_hit_rate"`
	FlashHitRate       float64 `json:"flash_hit_rate"`

	FilerFetches    uint64 `json:"filer_fetches"`
	FilerWritebacks uint64 `json:"filer_writebacks"`
	SyncEvictions   uint64 `json:"sync_evictions"`

	// DirtyBlocksEnd is the resident dirty-block count at phase end.
	DirtyBlocksEnd uint64 `json:"dirty_blocks_end"`
}

// EventResult records one executed scripted fault. The json tags are its
// wire form in the scenario report and on the daemon's event stream
// lines.
type EventResult struct {
	// Phase is the index of the phase at whose start the event ran.
	Phase int    `json:"phase"`
	Kind  string `json:"kind"`
	Host  int    `json:"host"`
	// Seconds is the simulated time the event consumed (crash recovery
	// scan + flush, flush writeback drain).
	Seconds float64 `json:"seconds,omitempty"`
	// Flushed counts dirty blocks written back by the event; Dropped
	// counts resident blocks discarded.
	Flushed int `json:"flushed,omitempty"`
	Dropped int `json:"dropped,omitempty"`

	// Filer-event fields (filer-crash / filer-recover): the target
	// replica, and for recoveries the re-sync volume in blocks plus its
	// source ("group" or "object").
	Partition    int    `json:"partition,omitempty"`
	Replica      int    `json:"replica,omitempty"`
	Resynced     int    `json:"resynced,omitempty"`
	ResyncSource string `json:"resync_source,omitempty"`

	// Injected marks an event delivered to a live run through a
	// RunController rather than scripted in the scenario. Injected events
	// execute at the next epoch barrier, so their placement depends on
	// wall-clock arrival; scripted runs never set this.
	Injected bool `json:"injected,omitempty"`
}

// ScenarioResult is everything a scenario run measured: the whole-run
// Result, built off the drained cluster exactly as a steady-state
// cluster run's is (latencies and percentiles, hit rates, consistency,
// filer and device counters, barrier statistics, spans, wall profile and
// runtime footprint), plus the per-phase results, the executed events and
// the time-resolved telemetry series.
//
// A scenario collects from its first block, so the whole-run figures
// include what a steady-state run would discard as warmup. String()
// renders only the scenario fields below and the run bookkeeping: the
// golden-hash surface predates the embedded measurements.
type ScenarioResult struct {
	Result

	Scenario string
	Phases   []PhaseResult
	// Events is the executed fault-event log. It shadows the embedded
	// Result.Events engine-event count, which EngineEvents carries.
	Events []EventResult

	// Telemetry holds one row per sampling interval (see Col* constants).
	Telemetry *TimeSeries

	// EngineEvents is the simulation events executed (Result.Events).
	EngineEvents uint64
	// DirtyBlocksEnd is the resident dirty-block count across hosts at
	// the end of the run.
	DirtyBlocksEnd uint64
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

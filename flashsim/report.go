package flashsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stats"
)

// This file builds the machine-readable run report (-report-json in
// cmd/flashsim): a versioned JSON snapshot of a run's configuration,
// headline metrics, counters, latency histograms, per-partition filer
// load and (when profiled) the wall-clock breakdown. The schema is
// documented in docs/OBSERVABILITY.md; consumers should tolerate new
// fields and counter keys within a schema version.

// ReportSchema identifies the report format; it changes only on
// breaking (field-removing or meaning-changing) revisions. Version 2
// added the filer replica layer: per-partition degraded counters, the
// per-replica stats split, and the replica knobs in the config summary.
// ReadReport accepts both versions.
const (
	ReportSchema   = "flashsim-report/2"
	ReportSchemaV1 = "flashsim-report/1"
)

// HistogramBucket is one exported latency-histogram bucket: the
// bucket's lower bound in simulated nanoseconds and its sample count
// (internal/stats; only non-empty buckets are exported).
type HistogramBucket = stats.HistogramBucket

// ReportConfig is the configuration summary embedded in a report —
// the knobs that shape the run, not the full Config (whose workload
// may carry a multi-megabyte file-set model). It echoes the Config the
// report is built from; built from Resolve's result, it is the
// configuration that ran.
type ReportConfig struct {
	Hosts            int     `json:"hosts"`
	ThreadsPerHost   int     `json:"threads_per_host"`
	RAMBlocks        int     `json:"ram_blocks"`
	FlashBlocks      int     `json:"flash_blocks"`
	Arch             string  `json:"arch"`
	RAMPolicy        string  `json:"ram_policy"`
	FlashPolicy      string  `json:"flash_policy"`
	FlashReplacement string  `json:"flash_replacement"`
	Shards           int     `json:"shards"`
	FilerPartitions  int     `json:"filer_partitions"`
	FilerReplicas    int     `json:"filer_replicas,omitempty"`
	FilerWriteQuorum int     `json:"filer_write_quorum,omitempty"`
	FilerSlowReplica float64 `json:"filer_slow_replica,omitempty"`
	ObjectTier       bool    `json:"object_tier"`
	WorkingSetBlocks int64   `json:"working_set_blocks"`
	WriteFraction    float64 `json:"write_fraction"`
	SharedWorkingSet bool    `json:"shared_working_set"`
	WorkloadSeed     uint64  `json:"workload_seed"`
	Seed             uint64  `json:"seed"`
	TraceSample      float64 `json:"trace_sample"`
}

// ReportPartition is one filer backend partition's load in a report.
// The degraded counters and the replica split are schema-version-2
// fields; version-1 reports decode with them empty.
type ReportPartition struct {
	FastReads        uint64  `json:"fast_reads"`
	SlowReads        uint64  `json:"slow_reads"`
	ObjectReads      uint64  `json:"object_reads"`
	Writes           uint64  `json:"writes"`
	ObjectWrites     uint64  `json:"object_writes"`
	DegradedReads    uint64  `json:"degraded_reads,omitempty"`
	DegradedWrites   uint64  `json:"degraded_writes,omitempty"`
	MaxBarrierQueue  int     `json:"max_barrier_queue"`
	MeanBarrierQueue float64 `json:"mean_barrier_queue"`

	Replicas []ReportReplica `json:"replicas,omitempty"`
}

// ReportReplica is one replica's serviced/degraded/resync accounting
// inside its partition group (schema version 2; omitted for
// single-replica groups, whose partition row carries everything).
type ReportReplica struct {
	FastReads    uint64 `json:"fast_reads"`
	SlowReads    uint64 `json:"slow_reads"`
	ObjectReads  uint64 `json:"object_reads"`
	Writes       uint64 `json:"writes"`
	Resyncs      uint64 `json:"resyncs,omitempty"`
	ResyncBlocks uint64 `json:"resync_blocks,omitempty"`
	Live         bool   `json:"live"`
}

// ReportWallClock is the wall-clock self-profile in a report
// (WallProfile sharded runs only). All values are real time and vary
// run to run.
type ReportWallClock struct {
	Shards           int     `json:"shards"`
	Parallel         bool    `json:"parallel"`
	Epochs           uint64  `json:"epochs"`
	ExecNanos        []int64 `json:"exec_ns"`
	BarrierWaitNanos int64   `json:"barrier_wait_ns"`
	EpochSpanNanos   int64   `json:"epoch_span_ns"`
	MergeNanos       int64   `json:"merge_ns"`
	FilerPhase1Nanos int64   `json:"filer_phase1_ns"`
	FilerPhase2Nanos int64   `json:"filer_phase2_ns"`
	Imbalance        float64 `json:"imbalance"`
	BarrierShare     float64 `json:"barrier_share"`
}

// Report is the machine-readable snapshot of one run. Everything
// deterministic in it is bit-identical for every Shards and
// FilerPartitions value; the wall_clock section and the runtime
// footprint fields are real-time measurements and are not.
type Report struct {
	Schema string       `json:"schema"`
	Config ReportConfig `json:"config"`

	ReadLatencyMicros  float64 `json:"read_latency_us"`
	WriteLatencyMicros float64 `json:"write_latency_us"`
	ReadP50Micros      float64 `json:"read_p50_us"`
	ReadP99Micros      float64 `json:"read_p99_us"`
	WriteP50Micros     float64 `json:"write_p50_us"`
	WriteP99Micros     float64 `json:"write_p99_us"`
	RAMHitRate         float64 `json:"ram_hit_rate"`
	FlashHitRate       float64 `json:"flash_hit_rate"`
	FlashBusyFraction  float64 `json:"flash_busy_fraction"`
	SimulatedSeconds   float64 `json:"simulated_seconds"`
	RecoverySeconds    float64 `json:"recovery_seconds,omitempty"`

	// Counters holds the run's integer counters under stable snake_case
	// keys (encoding/json emits map keys sorted).
	Counters map[string]uint64 `json:"counters"`

	// Latency histograms: non-empty log buckets of the per-block
	// application-observed samples.
	ReadHistogram  []HistogramBucket `json:"read_histogram"`
	WriteHistogram []HistogramBucket `json:"write_histogram"`

	FilerPartitions []ReportPartition `json:"filer_partitions"`

	// Scenario carries the phase/event breakdown of a scripted run
	// (NewScenarioReport); steady-state reports omit it. Added within
	// schema version 2 — consumers tolerate its absence.
	Scenario *ReportScenario `json:"scenario,omitempty"`

	WallClock *ReportWallClock `json:"wall_clock,omitempty"`

	// Runtime footprint (nondeterministic; see Result).
	WallClockSeconds float64 `json:"wall_clock_seconds"`
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`

	// TraceSpans counts the sampled request-lifecycle spans the run
	// recorded (exported separately with WriteChromeTrace).
	TraceSpans int `json:"trace_spans"`
}

// reportConfig builds the configuration summary shared by the
// steady-state and scenario report constructors.
func reportConfig(cfg Config) ReportConfig {
	return ReportConfig{
		Hosts:            cfg.Hosts,
		ThreadsPerHost:   cfg.ThreadsPerHost,
		RAMBlocks:        cfg.RAMBlocks,
		FlashBlocks:      cfg.FlashBlocks,
		Arch:             cfg.Arch.String(),
		RAMPolicy:        cfg.RAMPolicy.String(),
		FlashPolicy:      cfg.FlashPolicy.String(),
		FlashReplacement: cfg.FlashReplacement.String(),
		Shards:           cfg.Shards,
		FilerPartitions:  cfg.FilerPartitions,
		FilerReplicas:    cfg.FilerReplicas,
		FilerWriteQuorum: cfg.FilerWriteQuorum,
		FilerSlowReplica: cfg.FilerSlowReplica,
		ObjectTier:       cfg.ObjectTier,
		WorkingSetBlocks: cfg.Workload.WorkingSetBlocks,
		WriteFraction:    cfg.Workload.WriteFraction,
		SharedWorkingSet: cfg.Workload.SharedWorkingSet,
		WorkloadSeed:     cfg.Workload.Seed,
		Seed:             cfg.Seed,
		TraceSample:      cfg.TraceSample,
	}
}

// NewReport assembles a run's report from its configuration and result.
// Pass the resolved configuration (Resolve), so the report's config
// shows the shard count and filer layout that ran.
func NewReport(cfg Config, res *Result) *Report {
	rep := &Report{
		Schema:             ReportSchema,
		Config:             reportConfig(cfg),
		ReadLatencyMicros:  res.ReadLatencyMicros,
		WriteLatencyMicros: res.WriteLatencyMicros,
		ReadP50Micros:      res.ReadP50Micros,
		ReadP99Micros:      res.ReadP99Micros,
		WriteP50Micros:     res.WriteP50Micros,
		WriteP99Micros:     res.WriteP99Micros,
		RAMHitRate:         res.RAMHitRate,
		FlashHitRate:       res.FlashHitRate,
		FlashBusyFraction:  res.FlashBusyFraction,
		SimulatedSeconds:   res.SimulatedSeconds,
		RecoverySeconds:    res.RecoverySeconds,
		Counters: map[string]uint64{
			"ops_completed":         res.OpsCompleted,
			"blocks_issued":         res.BlocksIssued,
			"events":                res.Events,
			"epochs":                res.Epochs,
			"barrier_messages":      res.BarrierMessages,
			"ram_hits":              res.Hosts.RAMHits,
			"ram_misses":            res.Hosts.RAMMisses,
			"flash_hits":            res.Hosts.FlashHits,
			"flash_misses":          res.Hosts.FlashMisses,
			"filer_fetches":         res.Hosts.FilerFetches,
			"filer_writebacks":      res.Hosts.FilerWritebacks,
			"flash_fills":           res.Hosts.FlashFills,
			"flash_writebacks":      res.Hosts.FlashWritebacks,
			"sync_evictions":        res.Hosts.SyncEvictions,
			"coalesced_skips":       res.Hosts.CoalescedSkips,
			"eviction_retries":      res.Hosts.EvictionRetries,
			"blocks_read":           res.Hosts.BlocksRead,
			"blocks_written":        res.Hosts.BlocksWritten,
			"filer_fast_reads":      res.FilerFastReads,
			"filer_slow_reads":      res.FilerSlowReads,
			"filer_writes":          res.FilerWrites,
			"filer_object_reads":    res.FilerObjectReads,
			"filer_object_writes":   res.FilerObjectWrites,
			"flash_device_reads":    res.FlashDeviceReads,
			"flash_device_writes":   res.FlashDeviceWrites,
			"invalidations":         res.Invalidations,
			"blocks_written_shared": res.BlocksWrittenShared,
			"control_messages":      res.ControlMessages,
			"ownership_acquires":    res.OwnershipAcquires,
			"downgrades":            res.Downgrades,
		},
		ReadHistogram:    res.Hosts.ReadHist.Buckets(),
		WriteHistogram:   res.Hosts.WriteHist.Buckets(),
		WallClockSeconds: res.WallClockSeconds,
		PeakHeapBytes:    res.PeakHeapBytes,
		TraceSpans:       len(res.Trace),
	}
	rep.FilerPartitions = reportPartitions(res.FilerPartitions)
	rep.WallClock = reportWallClock(res.WallProfile)
	return rep
}

// reportPartitions converts the filer's per-partition stats to the
// tagged report shape.
func reportPartitions(parts []FilerPartitionStats) []ReportPartition {
	out := make([]ReportPartition, len(parts))
	for i, p := range parts {
		out[i] = ReportPartition{
			FastReads:        p.FastReads,
			SlowReads:        p.SlowReads,
			ObjectReads:      p.ObjectReads,
			Writes:           p.Writes,
			ObjectWrites:     p.ObjectWrites,
			DegradedReads:    p.DegradedReads,
			DegradedWrites:   p.DegradedWrites,
			MaxBarrierQueue:  p.MaxBarrierQueue,
			MeanBarrierQueue: p.MeanBarrierQueue,
		}
		if len(p.Replicas) > 1 {
			reps := make([]ReportReplica, len(p.Replicas))
			for j, r := range p.Replicas {
				reps[j] = ReportReplica{
					FastReads:    r.FastReads,
					SlowReads:    r.SlowReads,
					ObjectReads:  r.ObjectReads,
					Writes:       r.Writes,
					Resyncs:      r.Resyncs,
					ResyncBlocks: r.ResyncBlocks,
					Live:         r.Live,
				}
			}
			out[i].Replicas = reps
		}
	}
	return out
}

// reportWallClock converts a wall profile to the tagged report shape
// (nil in, nil out).
func reportWallClock(wp *WallProfile) *ReportWallClock {
	if wp == nil {
		return nil
	}
	return &ReportWallClock{
		Shards:           wp.Shards,
		Parallel:         wp.Parallel,
		Epochs:           wp.Epochs,
		ExecNanos:        wp.ExecNanos,
		BarrierWaitNanos: wp.BarrierWaitNanos,
		EpochSpanNanos:   wp.EpochSpanNanos,
		MergeNanos:       wp.MergeNanos,
		FilerPhase1Nanos: wp.FilerPhase1Nanos,
		FilerPhase2Nanos: wp.FilerPhase2Nanos,
		Imbalance:        wp.Imbalance(),
		BarrierShare:     wp.BarrierShare(),
	}
}

// ReportScenario is the scenario section of a scripted run's report: the
// scenario name, the per-phase measurements, the executed fault events
// and the telemetry shape (the series itself exports separately as
// CSV/NDJSON).
type ReportScenario struct {
	Name             string        `json:"name"`
	Phases           []PhaseResult `json:"phases"`
	Events           []EventResult `json:"events,omitempty"`
	TelemetrySamples int           `json:"telemetry_samples"`
}

// ReportEvent is one executed fault event as a report or a stream line
// carries it.
type ReportEvent = EventResult

// NewScenarioReport assembles a scripted run's report: the same schema as
// NewReport with the scenario section filled in. Its headline metrics and
// counters are a scenario's own set: the latency percentiles, the
// histograms and the flash busy fraction stay zero, and the counters omit
// the host, device and consistency totals the embedded Result carries.
func NewScenarioReport(cfg Config, res *ScenarioResult) *Report {
	rep := &Report{
		Schema:             ReportSchema,
		Config:             reportConfig(cfg),
		ReadLatencyMicros:  res.ReadLatencyMicros,
		WriteLatencyMicros: res.WriteLatencyMicros,
		RAMHitRate:         res.RAMHitRate,
		FlashHitRate:       res.FlashHitRate,
		SimulatedSeconds:   res.SimulatedSeconds,
		Counters: map[string]uint64{
			"blocks_issued":       res.BlocksIssued,
			"events":              res.EngineEvents,
			"epochs":              res.Epochs,
			"barrier_messages":    res.BarrierMessages,
			"filer_fetches":       res.Hosts.FilerFetches,
			"filer_writebacks":    res.Hosts.FilerWritebacks,
			"sync_evictions":      res.Hosts.SyncEvictions,
			"dirty_blocks_end":    res.DirtyBlocksEnd,
			"filer_object_reads":  res.FilerObjectReads,
			"filer_object_writes": res.FilerObjectWrites,
			"scenario_events":     uint64(len(res.Events)),
		},
		Scenario: &ReportScenario{
			Name:   res.Scenario,
			Phases: res.Phases,
			Events: res.Events,
		},
		FilerPartitions:  reportPartitions(res.FilerPartitions),
		WallClock:        reportWallClock(res.WallProfile),
		WallClockSeconds: res.WallClockSeconds,
		PeakHeapBytes:    res.PeakHeapBytes,
		TraceSpans:       len(res.Trace),
	}
	if res.Telemetry != nil {
		rep.Scenario.TelemetrySamples = res.Telemetry.Len()
	}
	return rep
}

// ReadReport decodes a run report, accepting every schema version this
// build knows (flashsim-report/1 and /2): version 1 reports simply
// decode with the replica-layer fields empty. Unknown versions and
// unknown fields are rejected, so a consumer never silently misreads a
// future format.
func ReadReport(data []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("flashsim: report: %w", err)
	}
	switch rep.Schema {
	case ReportSchema, ReportSchemaV1:
	default:
		return nil, fmt.Errorf("flashsim: unknown report schema %q", rep.Schema)
	}
	return &rep, nil
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

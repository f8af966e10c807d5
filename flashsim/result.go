package flashsim

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/filer"
	"repro/internal/obs"
)

// Re-exported observability types (internal/obs).
type (
	// TraceSpan is one recorded request-lifecycle stage: host, stage
	// kind, per-host request sequence, block key and simulated [start,
	// end) bounds.
	TraceSpan = obs.Span
	// TraceKind labels a span's pipeline stage.
	TraceKind = obs.Kind
	// WallProfile is the sharded executor's wall-clock self-profile.
	WallProfile = obs.WallProfile
)

// Result carries everything a simulation measured. Latencies are
// application-observed per-block means after warmup, the paper's governing
// metric (§7).
type Result struct {
	// ReadLatencyMicros and WriteLatencyMicros are the headline numbers.
	ReadLatencyMicros  float64
	WriteLatencyMicros float64

	// Approximate latency percentiles (log-bucketed).
	ReadP50Micros  float64
	ReadP99Micros  float64
	WriteP50Micros float64
	WriteP99Micros float64

	// Hit rates. RAMHitRate is hits over all reads; FlashHitRate is hits
	// over reads that missed RAM.
	RAMHitRate   float64
	FlashHitRate float64

	// Consistency metrics (zero unless multiple hosts).
	InvalidationFraction float64 // fraction of block writes invalidating a remote copy
	Invalidations        uint64  // remote copies dropped
	BlocksWrittenShared  uint64  // block writes observed by the registry

	// Callback-protocol traffic (ConsistencyProtocol runs only).
	ControlMessages   uint64
	OwnershipAcquires uint64
	Downgrades        uint64

	// Filer-side traffic.
	FilerFastReads uint64
	FilerSlowReads uint64
	FilerWrites    uint64

	// Object-tier traffic (ObjectTier runs only; zero otherwise).
	FilerObjectReads  uint64
	FilerObjectWrites uint64

	// FilerPartitions reports each filer backend partition's load
	// accounting in partition order (always at least one entry). The
	// service counters are shard- and partition-count invariant; the
	// barrier queue gauges exist only on sharded runs. Excluded from
	// String() like the barrier statistics below: the golden-hash surface
	// predates partitioning, and the per-backend split is diagnostic.
	FilerPartitions []FilerPartitionStats

	// Flash device utilisation across hosts.
	FlashBusyFraction float64

	// Flash device operation totals across hosts; FlashDeviceWrites per
	// application write is the wear figure of merit for the lifetime
	// extension study.
	FlashDeviceReads  uint64
	FlashDeviceWrites uint64

	// Aggregate per-host counters (summed over hosts).
	Hosts HostStats

	// Run bookkeeping.
	OpsCompleted     uint64
	BlocksIssued     uint64
	SimulatedSeconds float64
	Events           uint64

	// RecoverySeconds is the post-crash recovery delay before the first
	// request was served (RecoveredStart runs only).
	RecoverySeconds float64

	// Barrier-schedule statistics (sharded runs only; zero otherwise).
	// Both are properties of the global epoch schedule and therefore
	// identical at every shard count. Deliberately excluded from String():
	// the golden-hash surface predates them.
	Epochs          uint64
	BarrierMessages uint64

	// Trace holds the sampled request-lifecycle spans (TraceSample > 0
	// runs only), merged across hosts into one deterministic order. The
	// span set is identical for every Shards and FilerPartitions value;
	// export with WriteChromeTrace. Excluded from String().
	Trace []TraceSpan

	// WallProfile carries the sharded executor's wall-clock self-profile
	// (Config.WallProfile on a Shards >= 1 run; nil otherwise). Real-time
	// measurements, so nondeterministic and excluded from String().
	WallProfile *WallProfile

	// WallClockSeconds and PeakHeapBytes record the real (not simulated)
	// cost of the run: elapsed wall time and the runtime's peak heap
	// footprint (MemStats.HeapSys). Nondeterministic, so excluded from
	// the golden-hash surface — String() reports them on a trailing
	// "runtime:" line that hash consumers strip (see golden_test.go).
	WallClockSeconds float64
	PeakHeapBytes    uint64
}

// runtimeFootprint returns the elapsed wall time since start and the
// runtime's current heap footprint, read at run completion (the heap
// high-water mark for a simulation, which allocates up front and
// recycles in steady state).
func runtimeFootprint(start time.Time) (float64, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Since(start).Seconds(), ms.HeapSys
}

// FilerPartitionStats is one filer backend partition's load accounting;
// see filer.PartitionStats for field semantics.
type FilerPartitionStats = filer.PartitionStats

// fillFilerStats copies the filer's aggregate and per-partition counters
// into the result (shared by every executor; scenarios copy the fields
// their results carry).
func fillFilerStats(res *Result, fsrv *filer.Filer) {
	res.FilerFastReads = fsrv.FastReads()
	res.FilerSlowReads = fsrv.SlowReads()
	res.FilerWrites = fsrv.Writes()
	res.FilerObjectReads = fsrv.ObjectReads()
	res.FilerObjectWrites = fsrv.ObjectWrites()
	res.FilerPartitions = make([]FilerPartitionStats, fsrv.Partitions())
	for p := range res.FilerPartitions {
		res.FilerPartitions[p] = fsrv.PartitionStats(p)
	}
}

// buildResult completes res, which carries the executor's own run totals
// (ops, blocks, simulated time, events, and a cluster's barrier counters),
// with the host, filer and consistency aggregates every executor shares.
func buildResult(res *Result, hosts []*core.Host, fsrv *filer.Filer, cons core.ConsistencyStats) *Result {
	fillFilerStats(res, fsrv)
	var busy float64
	for _, h := range hosts {
		res.Hosts.Merge(h.Stats())
		busy += h.FlashDevice().Utilisation()
		res.FlashDeviceReads += h.FlashDevice().Reads()
		res.FlashDeviceWrites += h.FlashDevice().Writes()
	}
	res.FlashBusyFraction = busy / float64(len(hosts))
	res.ReadLatencyMicros = res.Hosts.ReadLat.MeanMicros()
	res.WriteLatencyMicros = res.Hosts.WriteLat.MeanMicros()
	res.ReadP50Micros = res.Hosts.ReadHist.Quantile(0.5).Micros()
	res.ReadP99Micros = res.Hosts.ReadHist.Quantile(0.99).Micros()
	res.WriteP50Micros = res.Hosts.WriteHist.Quantile(0.5).Micros()
	res.WriteP99Micros = res.Hosts.WriteHist.Quantile(0.99).Micros()
	res.RAMHitRate = res.Hosts.ReadHitRateRAM()
	res.FlashHitRate = res.Hosts.ReadHitRateFlash()
	res.InvalidationFraction = cons.InvalidationFraction()
	res.Invalidations = cons.Invalidations
	res.BlocksWrittenShared = cons.BlocksWritten
	res.ControlMessages = cons.ControlMessages
	res.OwnershipAcquires = cons.OwnershipAcquires
	res.Downgrades = cons.Downgrades
	return res
}

// String renders a human-readable summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "read latency:  %9.2f us   (p50 %.1f, p99 %.1f; RAM hit %5.1f%%, flash hit %5.1f%%)\n",
		r.ReadLatencyMicros, r.ReadP50Micros, r.ReadP99Micros, 100*r.RAMHitRate, 100*r.FlashHitRate)
	fmt.Fprintf(&b, "write latency: %9.2f us   (p50 %.1f, p99 %.1f)\n",
		r.WriteLatencyMicros, r.WriteP50Micros, r.WriteP99Micros)
	fmt.Fprintf(&b, "filer: %d fast reads, %d slow reads, %d writes\n",
		r.FilerFastReads, r.FilerSlowReads, r.FilerWrites)
	if r.FilerObjectReads > 0 || r.FilerObjectWrites > 0 {
		// Conditional like the consistency lines below: the object tier is
		// opt-in, so pre-tier goldens never see this row.
		fmt.Fprintf(&b, "object tier: %d reads, %d writes\n",
			r.FilerObjectReads, r.FilerObjectWrites)
	}
	fmt.Fprintf(&b, "flash device busy: %4.1f%%\n", 100*r.FlashBusyFraction)
	if r.BlocksWrittenShared > 0 {
		fmt.Fprintf(&b, "invalidations: %.1f%% of %d block writes (%d copies dropped)\n",
			100*r.InvalidationFraction, r.BlocksWrittenShared, r.Invalidations)
	}
	if r.ControlMessages > 0 {
		fmt.Fprintf(&b, "protocol: %d control messages, %d ownership acquires, %d downgrades\n",
			r.ControlMessages, r.OwnershipAcquires, r.Downgrades)
	}
	if r.RecoverySeconds > 0 {
		fmt.Fprintf(&b, "recovery: %.3f s before the first request\n", r.RecoverySeconds)
	}
	fmt.Fprintf(&b, "completed %d ops / %d blocks in %.3f simulated seconds (%d events)\n",
		r.OpsCompleted, r.BlocksIssued, r.SimulatedSeconds, r.Events)
	if r.WallClockSeconds > 0 {
		// Real-time footprint: nondeterministic, so hash consumers strip
		// this line (tests zero the fields; CI filters "^runtime:").
		fmt.Fprintf(&b, "runtime: %.3f s wall, %.1f MiB peak heap\n",
			r.WallClockSeconds, float64(r.PeakHeapBytes)/(1<<20))
	}
	return b.String()
}

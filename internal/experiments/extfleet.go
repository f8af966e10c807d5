package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/flashsim"
	"repro/internal/stats"
)

func init() {
	registry["ext-fleet"] = ExtFleet
}

// fleetPartitions is the partition count the ext-fleet partition sweep
// compares against the single-backend baseline.
const fleetPartitions = 4

// ExtFleet is the fleet-scale extension: the paper simulates at most eight
// hosts (§7.9), but its model — many client caches contending on one
// shared filer — is exactly the shape of a production fleet, where the
// interesting effects (invalidation storms, per-host hit-rate dilution,
// aggregate filer pressure) only emerge at hundreds to thousands of
// clients. Every host actively modifies one shared working set (the
// paper's consistency worst case) while the population grows 64 → 4096;
// each simulation point runs on the sharded cluster executor
// (flashsim.Config.Shards), whose results are bit-identical for every
// shard count, so the charts are reproducible on any machine. A second
// sweep re-runs the smaller populations under the callback consistency
// protocol (the traffic the paper's §3.8 deliberately left unmodeled) and
// charts its control-message volume and latency overhead against the
// instant-invalidation baseline.
func ExtFleet(o Options) (*Report, error) {
	scale := o.scale()
	hostCounts := []int{64, 256, 1024, 4096}
	perHostBlocks := int64(2048) // trace volume each host replays
	if o.Quick {
		hostCounts = []int{8, 32}
		perHostBlocks = 1024
	}

	trafficFig := stats.NewFigure(
		"Extension: aggregate filer load vs fleet size (shared working set)",
		"hosts", "filer reads per simulated second")
	latFig := stats.NewFigure(
		"Extension: per-host service quality vs fleet size",
		"hosts", "read latency (us)")
	hitFig := stats.NewFigure(
		"Extension: hit-rate dilution vs fleet size",
		"hosts", "rate (%)")
	protoFig := stats.NewFigure(
		"Extension: callback-protocol overhead vs fleet size (the traffic paper §3.8 left unmodeled)",
		"hosts", "overhead")
	partFig := stats.NewFigure(
		"Extension: hottest filer backend load vs fleet size (filer partitioning)",
		"hosts", "peak barrier queue (messages)")
	wallFig := stats.NewFigure(
		"Extension: wall-clock barrier-wait share vs shard count "+
			"(cluster self-profile; real time — varies with the machine, unlike every other chart)",
		"engine shards", "share of shard wall time (%)")
	traffic := trafficFig.AddSeries("filer reads/s")
	lat := latFig.AddSeries("read latency")
	ramHit := hitFig.AddSeries("RAM hit rate")
	flashHit := hitFig.AddSeries("flash hit rate")
	invFrac := hitFig.AddSeries("writes invalidating")
	msgsPerWrite := protoFig.AddSeries("control msgs per block write")
	latOverhead := protoFig.AddSeries("read latency overhead (%)")
	p1Peak := partFig.AddSeries("partitions=1 backend")
	pNPeak := partFig.AddSeries(fmt.Sprintf("partitions=%d hottest backend", fleetPartitions))
	barrierShare := wallFig.AddSeries("barrier wait")
	execImb := wallFig.AddSeries("shard imbalance")

	var table strings.Builder
	fmt.Fprintf(&table, "%-8s %12s %12s %10s %10s %12s %14s\n",
		"hosts", "read (us)", "filer rd/s", "ram hit", "flash hit", "invalidating", "sim seconds")
	var protoTable strings.Builder
	fmt.Fprintf(&protoTable, "%-8s %14s %14s %12s %14s %12s\n",
		"hosts", "ctrl msgs", "msgs/write", "acquires", "downgrades", "read +%")
	var partTable strings.Builder
	fmt.Fprintf(&partTable, "%-8s %14s %14s %16s %16s %10s\n",
		"hosts", "p1 peak queue", "p1 mean queue",
		fmt.Sprintf("p%d hot peak", fleetPartitions),
		fmt.Sprintf("p%d hot mean", fleetPartitions), "relief")
	var wallTable strings.Builder
	fmt.Fprintf(&wallTable, "%-8s %8s %10s %12s %8s %10s %10s %10s\n",
		"shards", "epochs", "exec ms", "barrier ms", "share", "merge ms", "filer1 ms", "filer2 ms")

	// Always run on the cluster executor — its results are identical for
	// every shard count, so the report does not depend on the machine's
	// core count even though the wall-clock time does.
	shardCount := max(runtime.GOMAXPROCS(0), 2)

	// The protocol sweep is capped: a write-acquire calls back every
	// holder, so on a fully shared working set the message volume grows
	// with the square of the population — the sweep's own point.
	protoMaxHosts := 256

	fleetPoint := func(hosts int) flashsim.Config {
		cfg := baseline(o)
		cfg.Hosts = hosts
		cfg.ThreadsPerHost = 2
		// Modest per-host caches: the point is population scaling, not
		// per-host capacity.
		cfg.RAMBlocks = int(gb(0.25, scale))
		cfg.FlashBlocks = int(gb(2, scale))
		cfg.Workload.SharedWorkingSet = true
		cfg.Workload.WorkingSetBlocks = gb(8, scale)
		cfg.Workload.TotalBlocks = perHostBlocks * int64(hosts)
		cfg.Shards = shardCount
		return cfg
	}

	// instantRead remembers each population's instant-mode read latency so
	// the protocol point (delivered later in declaration order) can chart
	// its overhead against it; p1Queue likewise remembers the single
	// backend's peak barrier queue for the partition sweep's relief column.
	instantRead := make(map[int]float64)
	p1Queue := make(map[int]int)
	meanQueue1 := make(map[int]float64)

	s := newSweep(o, "ext-fleet")
	for _, hosts := range hostCounts {
		hosts := hosts
		s.add(fmt.Sprintf("ext-fleet hosts=%d", hosts), fleetPoint(hosts),
			func(res *flashsim.Result) {
				reads := float64(res.FilerFastReads + res.FilerSlowReads)
				readRate := 0.0
				if res.SimulatedSeconds > 0 {
					readRate = reads / res.SimulatedSeconds
				}
				x := float64(hosts)
				instantRead[hosts] = res.ReadLatencyMicros
				if len(res.FilerPartitions) > 0 {
					p1Queue[hosts] = res.FilerPartitions[0].MaxBarrierQueue
					meanQueue1[hosts] = res.FilerPartitions[0].MeanBarrierQueue
					p1Peak.Add(x, float64(p1Queue[hosts]))
				}
				traffic.Add(x, readRate)
				lat.Add(x, res.ReadLatencyMicros)
				ramHit.Add(x, 100*res.RAMHitRate)
				flashHit.Add(x, 100*res.FlashHitRate)
				invFrac.Add(x, 100*res.InvalidationFraction)
				fmt.Fprintf(&table, "%-8d %12.1f %12.0f %9.1f%% %9.1f%% %11.1f%% %14.3f\n",
					hosts, res.ReadLatencyMicros, readRate,
					100*res.RAMHitRate, 100*res.FlashHitRate,
					100*res.InvalidationFraction, res.SimulatedSeconds)
			})
	}
	for _, hosts := range hostCounts {
		hosts := hosts
		if hosts > protoMaxHosts {
			continue
		}
		cfg := fleetPoint(hosts)
		cfg.ConsistencyProtocol = true
		s.add(fmt.Sprintf("ext-fleet hosts=%d protocol", hosts), cfg,
			func(res *flashsim.Result) {
				x := float64(hosts)
				perWrite := 0.0
				if res.BlocksWrittenShared > 0 {
					perWrite = float64(res.ControlMessages) / float64(res.BlocksWrittenShared)
				}
				overhead := 0.0
				if base := instantRead[hosts]; base > 0 {
					overhead = 100 * (res.ReadLatencyMicros - base) / base
				}
				msgsPerWrite.Add(x, perWrite)
				latOverhead.Add(x, overhead)
				fmt.Fprintf(&protoTable, "%-8d %14d %14.1f %12d %14d %11.1f%%\n",
					hosts, res.ControlMessages, perWrite,
					res.OwnershipAcquires, res.Downgrades, overhead)
			})
	}
	// Partition sweep: the same populations with the filer hash-split
	// over fleetPartitions backends. The simulated timeline is
	// bit-identical to the single-backend rows (partitioning is pure
	// routing; see TestPartitionCountInvariance), so the curve that moves
	// is the load each backend carries: the hottest backend's peak
	// barrier queue drops ~fleetPartitions-fold, pushing the host count
	// at which a single backend saturates — the knee of the 64 -> 4096
	// curve — right by the same factor.
	for _, hosts := range hostCounts {
		hosts := hosts
		cfg := fleetPoint(hosts)
		cfg.FilerPartitions = fleetPartitions
		s.add(fmt.Sprintf("ext-fleet hosts=%d partitions=%d", hosts, fleetPartitions), cfg,
			func(res *flashsim.Result) {
				var hot flashsim.FilerPartitionStats
				for _, st := range res.FilerPartitions {
					if st.MaxBarrierQueue > hot.MaxBarrierQueue {
						hot = st
					}
				}
				relief := 0.0
				if hot.MaxBarrierQueue > 0 {
					relief = float64(p1Queue[hosts]) / float64(hot.MaxBarrierQueue)
				}
				pNPeak.Add(float64(hosts), float64(hot.MaxBarrierQueue))
				fmt.Fprintf(&partTable, "%-8d %14d %14.2f %16d %16.2f %9.1fx\n",
					hosts, p1Queue[hosts], meanQueue1[hosts],
					hot.MaxBarrierQueue, hot.MeanBarrierQueue, relief)
			})
	}
	// Wall-clock breakdown sweep: one mid-size population re-run at
	// growing shard counts with the cluster's self-profiler on. The
	// simulated results stay bit-identical (shard-count invariance); what
	// moves is where real time goes — the barrier-wait share is the
	// fraction of shard capacity the conservative handshake idles, the
	// number the overlapped-execution work exists to drive down. Unlike
	// every other chart this one measures the machine it runs on.
	wallHosts := hostCounts[1]
	wallShards := []int{2, 4, 8}
	if o.Quick {
		wallShards = []int{2, 4}
	}
	for _, shards := range wallShards {
		shards := shards
		cfg := fleetPoint(wallHosts)
		cfg.Shards = shards
		cfg.WallProfile = true
		s.add(fmt.Sprintf("ext-fleet hosts=%d shards=%d wall-profile", wallHosts, shards), cfg,
			func(res *flashsim.Result) {
				wp := res.WallProfile
				if wp == nil {
					return
				}
				x := float64(shards)
				barrierShare.Add(x, 100*wp.BarrierShare())
				execImb.Add(x, 100*wp.Imbalance())
				fmt.Fprintf(&wallTable, "%-8d %8d %10.1f %12.1f %7.1f%% %10.1f %10.1f %10.1f\n",
					shards, wp.Epochs,
					float64(wp.ExecTotalNanos())/1e6, float64(wp.BarrierWaitNanos)/1e6,
					100*wp.BarrierShare(),
					float64(wp.MergeNanos)/1e6,
					float64(wp.FilerPhase1Nanos)/1e6, float64(wp.FilerPhase2Nanos)/1e6)
			})
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return &Report{
		Name: "ext-fleet",
		Description: "Fleet-scale population sweep on the sharded cluster executor, " +
			"instant invalidation vs the callback consistency protocol, " +
			"the filer partition sweep, and the cluster's wall-clock " +
			"barrier-wait profile " +
			"(extension; the paper stops at eight hosts and counts invalidations only)",
		Figures: []*stats.Figure{trafficFig, latFig, hitFig, protoFig, partFig, wallFig},
		Tables:  []string{table.String(), protoTable.String(), partTable.String(), wallTable.String()},
	}, nil
}

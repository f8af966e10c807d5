package flashsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/filer"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file executes a Config with Shards >= 1 as a core.Cluster: the
// trace is split into per-host streams, hosts are partitioned round-robin
// over per-shard engines, and the shared filer is serviced at a
// conservative epoch barrier in globally sorted arrival order — as are
// cross-host invalidations, callback-protocol control messages
// (ConsistencyProtocol) and the crash-recovery prestart's dirty flushes
// (RecoveredStart). The cluster guarantees bit-identical results for
// every shard count (the sharded determinism contract; see
// internal/core/cluster.go and docs/ARCHITECTURE.md), which
// TestShardedShardCountInvariance and its protocol/recovery siblings
// lock.

// splitTrace drains the source into per-host op slices, mirroring the
// sequential driver's host clamping (a trace recorded on more hosts than
// configured wraps around). It returns the per-host streams and per-host
// block volumes. The streams share one backing array: the ops are drained
// once into chunks, counted per host, and placed stably, so the
// allocations do not grow with the host count.
func splitTrace(src trace.Source, hosts int) (perHost [][]trace.Op, blocks []int64, total int64) {
	// start[h] is where host h's ops begin in the shared backing array.
	start := make([]int, hosts+1)
	blocks = make([]int64, hosts)
	var chunks [][]trace.Op
	n := 0
	for {
		op, ok := src.Next()
		if !ok {
			break
		}
		if len(chunks) == 0 || len(chunks[len(chunks)-1]) == cap(chunks[len(chunks)-1]) {
			chunks = append(chunks, make([]trace.Op, 0, splitChunkOps(n)))
		}
		last := &chunks[len(chunks)-1]
		*last = append(*last, op)
		n++
		hi := int(op.Host) % hosts
		start[hi+1]++
		blocks[hi] += int64(op.Count)
		total += int64(op.Count)
	}
	for h := 0; h < hosts; h++ {
		start[h+1] += start[h]
	}
	placed := make([]trace.Op, n)
	perHost = make([][]trace.Op, hosts)
	for h := range perHost {
		perHost[h] = placed[start[h]:start[h]:start[h+1]]
	}
	for _, chunk := range chunks {
		for _, op := range chunk {
			hi := int(op.Host) % hosts
			perHost[hi] = append(perHost[hi], op) // within capacity: never reallocates
		}
	}
	return perHost, blocks, total
}

// splitChunkOps sizes the next chunk splitTrace drains into once it holds
// n ops: as many again, from 256 up to 8192 (160 KiB). Chunks are never
// copied, unlike one slice grown by append, whose abandoned copies add up
// to several times the trace; how many of those the collector has freed
// when the split allocates its placed array is a matter of timing, which
// made a run's peak resident set vary from one run to the next.
func splitChunkOps(n int) int { return min(max(n, 256), 8192) }

// clusterSpec assembles the core.ClusterSpec shared by the sharded
// steady-state and scenario executors; only the per-host trace sources and
// warmup volumes differ between them. The filer draws from the same forked
// RNG stream as the sequential path, so its fast/slow outcomes depend only
// on arrival order.
func clusterSpec(cfg Config, sources []trace.Source, warmup []int64, tr *obs.Tracer) core.ClusterSpec {
	hostCfgs := make([]core.HostConfig, cfg.Hosts)
	for i := range hostCfgs {
		hostCfgs[i] = hostConfig(cfg, i)
	}
	seedRNG := rng.New(cfg.Seed)
	return core.ClusterSpec{
		Shards:      cfg.Shards,
		Hosts:       hostCfgs,
		Timing:      cfg.Timing,
		Tracer:      tr,
		WallProfile: cfg.WallProfile,
		NewFiler: func(eng *sim.Engine) *filer.Filer {
			return newFiler(eng, seedRNG.Fork(), cfg)
		},
		Sources:             sources,
		Warmup:              warmup,
		ConsistencyProtocol: cfg.ConsistencyProtocol,
	}
}

// runSharded executes the simulation as a sharded cluster. pre, when
// non-nil, is the crash-recovery prestart: it runs per host before the
// drivers start, and its metadata scans and dirty flushes drain through
// the epoch barrier like all other traffic.
func runSharded(cfg Config, src trace.Source, warmupBlocks int64, pre prestartFn) (*Result, error) {
	perHost, blocks, total := splitTrace(src, cfg.Hosts)

	// Each host warms up on its own share of the trace, preserving the
	// global warmup fraction (the sequential driver flips collection once
	// the global volume passes warmupBlocks; per-host flips are what keep
	// the decision independent of shard interleaving).
	warmup := make([]int64, cfg.Hosts)
	if warmupBlocks > 0 && total > 0 {
		for i := range warmup {
			warmup[i] = warmupBlocks * blocks[i] / total
		}
	}

	sources := make([]trace.Source, cfg.Hosts)
	for i := range sources {
		sources[i] = trace.NewSliceSource(perHost[i])
	}
	var tr *obs.Tracer
	if cfg.TraceSample > 0 {
		tr = obs.NewTracer(cfg.TraceSample)
	}
	cl, err := core.NewCluster(clusterSpec(cfg, sources, warmup, tr))
	if err != nil {
		return nil, err
	}

	cl.Start()
	defer cl.Close()
	var recoverySeconds float64
	if pre != nil {
		// Prestart (crash recovery): prefill and recover every host, then
		// drive the barrier until the recovery traffic drains. The done
		// callbacks fire on the shard goroutines; the flags are read only
		// after Advance's barrier handshake orders them.
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
	cl.StartDrivers()
	cl.RunToCompletion()
	res := buildResult(&Result{
		OpsCompleted:     cl.OpsCompleted(),
		BlocksIssued:     cl.BlocksIssued(),
		SimulatedSeconds: cl.Now().Seconds(),
		Events:           cl.Events(),
		Epochs:           cl.Epochs(),
		BarrierMessages:  cl.BarrierMessages(),
	}, cl.Hosts(), cl.Filer(), cl.Consistency())
	res.RecoverySeconds = recoverySeconds
	if tr != nil {
		res.Trace = tr.Spans()
	}
	res.WallProfile = cl.WallProfile()
	return res, nil
}

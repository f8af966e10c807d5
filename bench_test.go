// Repository-level benchmarks: one per table and figure of the paper's
// evaluation (regenerated in reduced Quick form at 1:4096 scale), plus
// the baseline configuration and one bench per cache architecture at
// 1:1024.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benches report the headline series mean as a custom
// "us/op-mean" metric so shape regressions show up in benchmark diffs.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/flashsim"
	"repro/internal/experiments"
)

const benchScale = 4096

func benchOpts() experiments.Options {
	return experiments.Options{Scale: benchScale, Quick: true}
}

// benchExperiment runs one named experiment per iteration and reports the
// mean Y of its first figure's first series.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	runner, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	var headline float64
	for i := 0; i < b.N; i++ {
		rep, err := runner(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Figures) > 0 && len(rep.Figures[0].Series) > 0 {
			s := rep.Figures[0].Series[0]
			sum := 0.0
			for _, p := range s.Points {
				sum += p.Y
			}
			if len(s.Points) > 0 {
				headline = sum / float64(len(s.Points))
			}
		}
	}
	if headline > 0 {
		b.ReportMetric(headline, "us/headline-mean")
	}
}

// --- one bench per table and figure ---

func BenchmarkTable1Timing(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig1SSDLatency(b *testing.B)      { benchExperiment(b, "fig1") }
func BenchmarkFig2PolicyArch(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3EffectiveSize(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4FlashVsNoFlash(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5Prefetch(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6SmallRAM(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7SmallRAMSmallWS(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8WriteRatio(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9FlashTimings(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10Persistence(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11InvalWritePct(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12InvalWSS(b *testing.B)       { benchExperiment(b, "fig12") }

// --- baseline and architecture benches ---

// benchVariant runs the baseline with a config mutation and reports the
// read and write latencies as metrics.
func benchVariant(b *testing.B, mutate func(*flashsim.Config)) {
	b.Helper()
	var read, write float64
	for i := 0; i < b.N; i++ {
		cfg := flashsim.ScaledConfig(benchScale / 4) // 1:1024
		mutate(&cfg)
		res, err := flashsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		read, write = res.ReadLatencyMicros, res.WriteLatencyMicros
	}
	b.ReportMetric(read, "us/read")
	b.ReportMetric(write, "us/write")
}

func BenchmarkBaseline(b *testing.B) {
	benchVariant(b, func(cfg *flashsim.Config) {})
}

// Architecture comparison at the benchmark scale (the Figure 2/3 story in
// three rows).
func BenchmarkArchNaive(b *testing.B) {
	benchVariant(b, func(cfg *flashsim.Config) { cfg.Arch = flashsim.Naive })
}

func BenchmarkArchLookaside(b *testing.B) {
	benchVariant(b, func(cfg *flashsim.Config) { cfg.Arch = flashsim.Lookaside })
}

func BenchmarkArchUnified(b *testing.B) {
	benchVariant(b, func(cfg *flashsim.Config) { cfg.Arch = flashsim.Unified })
}

// --- sweep runner benches ---

// sweepConfigs builds the multi-point grid both sweep benches run: a
// working-set sweep against one shared file-server model, the shape of
// every figure in the paper's evaluation.
func sweepConfigs(b *testing.B) []flashsim.Config {
	b.Helper()
	const scale = benchScale
	fs, err := flashsim.GenerateFileSet(352*int64(flashsim.BlocksPerGB)/scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []flashsim.Config
	for _, wssGB := range []int64{5, 20, 40, 60, 80, 120, 160} {
		cfg := flashsim.ScaledConfig(scale)
		cfg.Workload.WorkingSetBlocks = wssGB * int64(flashsim.BlocksPerGB) / scale
		cfg.Workload.FileSet = fs
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// benchSweep runs the grid through flashsim.RunBatch at the given pool
// size; the sequential/parallel pair makes the worker-pool speedup visible
// in the benchmark trajectory (results are identical by construction).
func benchSweep(b *testing.B, parallel int) {
	b.Helper()
	cfgs := sweepConfigs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := flashsim.RunBatch(cfgs, parallel)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(cfgs) {
			b.Fatalf("%d results for %d points", len(results), len(cfgs))
		}
	}
	b.ReportMetric(float64(len(cfgs)), "points/op")
}

func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchSweep(b, 0) } // all CPUs

// Raw simulator throughput: events per second through the full stack.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	cfg := flashsim.ScaledConfig(1024)
	var events uint64
	var seconds float64
	for i := 0; i < b.N; i++ {
		res, err := flashsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
		seconds = res.SimulatedSeconds
	}
	b.ReportMetric(float64(events), "events/run")
	b.ReportMetric(seconds, "simsec/run")
}

// --- fleet-scale sharded benches ---

// fleetConfig is the 1024-host fleet point of the ext-fleet sweep: every
// host modifying one shared working set behind modest private caches.
func fleetBenchConfig(shards int) flashsim.Config {
	const scale = 4096
	cfg := flashsim.ScaledConfig(scale)
	cfg.Hosts = 1024
	cfg.ThreadsPerHost = 2
	cfg.RAMBlocks = int(0.25 * float64(flashsim.BlocksPerGB) / scale)
	cfg.FlashBlocks = 2 * flashsim.BlocksPerGB / scale
	cfg.Workload.SharedWorkingSet = true
	cfg.Workload.WorkingSetBlocks = 8 * int64(flashsim.BlocksPerGB) / scale
	cfg.Workload.TotalBlocks = 512 * 1024 // half a thousand blocks per host
	cfg.Shards = shards
	return cfg
}

// reportParallelismEnv records the parallelism environment as benchmark
// metrics: a shard-speedup number is meaningless without knowing how many
// cores the run actually had (BENCH_6 showed shards>1 losing to shards=1
// on a single-core CI runner, which reads as a regression unless the core
// count travels with the numbers). The -cpu flag varies GOMAXPROCS per
// sub-benchmark, so the metric is per-row, not per-process.
func reportParallelismEnv(b *testing.B) {
	b.Helper()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// benchFleet runs the 1024-host fleet at a fixed shard count. The
// sequential/sharded pair makes the intra-simulation speedup visible; on a
// multi-core machine the sharded rows should run several times faster,
// while producing identical results for every shard count.
func benchFleet(b *testing.B, shards int) {
	b.Helper()
	benchFleetConfig(b, fleetBenchConfig(shards))
}

func benchFleetConfig(b *testing.B, cfg flashsim.Config) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := flashsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/run")
	reportParallelismEnv(b)
}

// BenchmarkFleetSequential runs the fleet on the classic sequential
// engine (Shards = 0; any value >= 1 now selects the cluster).
func BenchmarkFleetSequential(b *testing.B) { benchFleet(b, 0) }

// BenchmarkFleetSharded always exercises the cluster executor: GOMAXPROCS
// shards, minimum two so the exchange machinery runs even on one core.
func BenchmarkFleetSharded(b *testing.B) {
	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		shards = 2
	}
	benchFleet(b, shards)
}

// BenchmarkFleetShards sweeps the fleet across explicit shard counts so
// scaling (and the single-shard cluster overhead against the sequential
// row) is visible in one benchmark table. Shards=1 still pays the barrier
// machinery; 2..8 show how the epoch schedule amortizes it.
func BenchmarkFleetShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchFleet(b, shards)
		})
	}
}

// BenchmarkFleetPartitions sweeps the filer partition count on the
// 4-shard fleet with the object tier enabled. The barrier services every
// partition in the same two serial walks, so the rows should match:
// partitioning adds only routing and per-partition accounting (results
// are bit-identical at every count; see TestPartitionCountInvariance).
func BenchmarkFleetPartitions(b *testing.B) {
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			cfg := fleetBenchConfig(4)
			cfg.FilerPartitions = parts
			cfg.ObjectTier = true
			cfg.ObjectWriteThrough = true
			cfg.ObjectReadPromote = true
			benchFleetConfig(b, cfg)
		})
	}
}

// --- sharded scenario benches ---

// benchScenario runs the crash-recovery built-in on a 64-host fleet with
// a persistent flash cache on the cluster; results are bit-identical at
// every shard count.
func benchScenario(b *testing.B, shards int) {
	b.Helper()
	const scale = 4096
	cfg := flashsim.ScaledConfig(scale)
	cfg.Hosts = 64
	cfg.ThreadsPerHost = 2
	cfg.RAMBlocks = int(0.25 * float64(flashsim.BlocksPerGB) / scale)
	cfg.FlashBlocks = 2 * flashsim.BlocksPerGB / scale
	cfg.PersistentFlash = true
	cfg.Workload.WorkingSetBlocks = 8 * int64(flashsim.BlocksPerGB) / scale
	cfg.Shards = shards
	var events uint64
	for i := 0; i < b.N; i++ {
		sc, err := flashsim.BuiltinScenario("crash-recovery")
		if err != nil {
			b.Fatal(err)
		}
		res, err := flashsim.RunScenario(cfg, sc)
		if err != nil {
			b.Fatal(err)
		}
		events = res.EngineEvents
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkScenarioSharded drives the same scenario through the cluster's
// epoch barrier at GOMAXPROCS shards (minimum two).
func BenchmarkScenarioSharded(b *testing.B) {
	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		shards = 2
	}
	benchScenario(b, shards)
}

package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/flashsim"
	"repro/internal/experiments"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// setup prepares a child to measure the workload. It returns the
	// measurement loop and a stop function releasing what set-up acquired.
	setup func(c *child) (work, stop func(), err error)
}

// workloads are the four workloads in run order; README.md gives the
// reason for each.
var workloads = []*workload{
	{"paper-figs", setupPaperFigs},
	{"fleet-1024", setupFleet},
	{"crash-recovery-256", setupCrashRecovery},
	{"daemon-live", setupDaemon},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// benchParallel is the fixed load: pool workers, shards, daemon clients
// and daemon concurrency. It is sized for a 2-core machine and never
// derived from the core count, so both sides of a comparison run
// identical inputs.
const benchParallel = 2

// figScale is the paper figures' geometry, 1:2048.
const figScale = 2048

// figureNames are the paper's table and figures in paper order.
var figureNames = []string{
	"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
}

// smokeFigures are the three cheapest, regenerated by a smoke run.
var smokeFigures = []string{"table1", "fig1", "fig7"}

// figureKey names a figure's output hash.
func figureKey(name string) string { return "paper-figs/" + name }

// setupPaperFigs regenerates the paper's evaluation, one pass over every
// figure per unit of work. The figures fix their own seeds, so -seed does
// not change this workload's inputs.
func setupPaperFigs(c *child) (func(), func(), error) {
	names := figureNames
	if c.spec.Smoke {
		names = smokeFigures
	}
	runners := make([]experiments.Runner, len(names))
	for i, n := range names {
		r, ok := experiments.Lookup(n)
		if !ok {
			return nil, nil, fmt.Errorf("unknown experiment %q", n)
		}
		runners[i] = r
	}
	opts := experiments.Options{Scale: figScale, Quick: true, Parallel: benchParallel}
	work := func() {
		c.sequential("pass", func(pass spanRef) {
			for i, n := range names {
				var (
					rep *experiments.Report
					err error
				)
				sp := c.rec.begin(pass, "experiments."+n)
				t := time.Now()
				c.peakRSSOf(func() { rep, err = runners[i](opts) })
				c.sampleMillis("experiments."+n+"_ms", time.Since(t))
				c.rec.end(sp)
				if err == nil {
					err = c.verify(figureKey(n), reportText(rep))
				}
				c.outcome(err)
			}
		})
	}
	return work, func() {}, nil
}

// reportText is the serialization the experiments package's golden hashes
// cover: name, description, tables, and each figure's CSV.
func reportText(rep *experiments.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", rep.Name, rep.Description)
	for _, tbl := range rep.Tables {
		fmt.Fprintln(&b, tbl)
	}
	for _, fig := range rep.Figures {
		fmt.Fprintln(&b, fig.CSV())
	}
	return b.String()
}

// simScale is the cluster workloads' geometry, 1:4096.
const simScale = 4096

// clusterConfig is the host shape both cluster workloads share: two
// threads, 0.25 GB of RAM and 2 GB of flash per host against 8 GB working
// sets, sharded over benchParallel engines.
func clusterConfig(seed uint64) flashsim.Config {
	cfg := flashsim.ScaledConfig(simScale)
	cfg.ThreadsPerHost = 2
	cfg.RAMBlocks = int(0.25 * float64(flashsim.BlocksPerGB) / simScale)
	cfg.FlashBlocks = 2 * flashsim.BlocksPerGB / simScale
	cfg.Workload.WorkingSetBlocks = 8 * int64(flashsim.BlocksPerGB) / simScale
	cfg.Workload.Seed, cfg.Seed = seed, seed
	cfg.Shards = benchParallel
	return cfg
}

// setupFleet runs 1024 hosts writing one shared working set through a
// partitioned, replicated filer; one rep per unit of work.
func setupFleet(c *child) (func(), func(), error) {
	cfg := clusterConfig(c.spec.Seed)
	cfg.Hosts = 1024
	cfg.Workload.SharedWorkingSet = true
	cfg.Workload.TotalBlocks = 1 << 20
	cfg.FilerPartitions = 4
	cfg.FilerReplicas = 3
	if c.spec.Smoke {
		cfg.Hosts = 32
		cfg.Workload.TotalBlocks = 1 << 15
	}
	if err := c.attachFileSet(&cfg); err != nil {
		return nil, nil, err
	}
	cfg.WallProfile = c.spec.Trace
	work := func() {
		c.sequential("rep", func(rep spanRef) {
			var (
				res *flashsim.Result
				err error
			)
			sp := c.rec.begin(rep, "flashsim.Run")
			c.peakRSSOf(func() { res, err = flashsim.Run(cfg) })
			c.rec.end(sp)
			if err == nil {
				err = c.recordResult(res)
			}
			if err == nil {
				res.WallClockSeconds, res.PeakHeapBytes = 0, 0
				err = c.verify("fleet-1024", res.String())
			}
			c.outcome(err)
		})
	}
	return work, func() {}, nil
}

// setupCrashRecovery runs the built-in crash-recovery scenario on 256
// hosts with private working sets and persistent flash; one rep per unit
// of work.
func setupCrashRecovery(c *child) (func(), func(), error) {
	cfg := clusterConfig(c.spec.Seed)
	cfg.Hosts = 256
	cfg.PersistentFlash = true
	if c.spec.Smoke {
		cfg.Hosts = 8
	}
	if err := c.attachFileSet(&cfg); err != nil {
		return nil, nil, err
	}
	cfg.WallProfile = c.spec.Trace
	work := func() {
		c.sequential("rep", func(rep spanRef) {
			sc, err := flashsim.BuiltinScenario("crash-recovery")
			var res *flashsim.ScenarioResult
			if err == nil {
				sp := c.rec.begin(rep, "flashsim.RunScenario")
				c.peakRSSOf(func() { res, err = flashsim.RunScenario(cfg, sc) })
				c.rec.end(sp)
			}
			if err == nil {
				err = c.recordScenario(res)
			}
			if err == nil {
				res.WallClockSeconds, res.PeakHeapBytes = 0, 0
				err = c.verify("crash-recovery-256", res.String()+res.Telemetry.CSV())
			}
			c.outcome(err)
		})
	}
	return work, func() {}, nil
}

// attachFileSet builds the workload's file-server model during set-up:
// the model Run and RunScenario would otherwise generate inside every
// timed call, five times the working set, seeded from the workload seed
// plus 1000.
func (c *child) attachFileSet(cfg *flashsim.Config) error {
	sp := c.rec.begin(spanRef{}, "flashsim.GenerateFileSet")
	t := time.Now()
	fs, err := flashsim.GenerateFileSet(5*cfg.Workload.WorkingSetBlocks, cfg.Workload.Seed+1000)
	c.sampleMillis(sampleFileSet, time.Since(t))
	c.rec.end(sp)
	cfg.Workload.FileSet = fs
	return err
}

// recordResult samples a steady-state rep's per-layer counters.
func (c *child) recordResult(res *flashsim.Result) error {
	c.sample(sampleSimSeconds, res.SimulatedSeconds)
	c.sample("sim.events", float64(res.Events))
	c.sample("cache.ram_hit", 100*res.RAMHitRate)
	c.sample("cache.flash_hit", 100*res.FlashHitRate)
	c.sample("core.host.blocks", float64(res.BlocksIssued))
	c.sample("core.host.ops", float64(res.OpsCompleted))
	c.sample("core.cluster.epochs", float64(res.Epochs))
	c.sample("core.cluster.barrier_msgs", float64(res.BarrierMessages))
	c.sample("filer.max_queue", float64(maxQueue(res.FilerPartitions)))
	c.sample("devices.flash_busy", 100*res.FlashBusyFraction)
	return c.recordWallProfile(res.WallProfile)
}

// recordScenario samples a scenario rep's per-layer counters.
func (c *child) recordScenario(res *flashsim.ScenarioResult) error {
	c.sample(sampleSimSeconds, res.SimulatedSeconds)
	c.sample("sim.events", float64(res.EngineEvents))
	c.sample("cache.ram_hit", 100*res.RAMHitRate)
	c.sample("cache.flash_hit", 100*res.FlashHitRate)
	c.sample("core.host.blocks", float64(res.BlocksIssued))
	c.sample("core.cluster.epochs", float64(res.Epochs))
	c.sample("core.cluster.barrier_msgs", float64(res.BarrierMessages))
	c.sample("filer.max_queue", float64(maxQueue(res.FilerPartitions)))
	c.sample("stats.samples", float64(res.Telemetry.Len()))
	return c.recordWallProfile(res.WallProfile)
}

// recordWallProfile samples a traced rep's wall-clock profile and writes
// it out; untraced reps carry none.
func (c *child) recordWallProfile(wp *flashsim.WallProfile) error {
	if wp == nil {
		return nil
	}
	c.sample("core.cluster.barrier_wait_share", 100*wp.BarrierShare())
	c.sample("core.cluster.imbalance", wp.Imbalance())
	c.sampleMillis("core.cluster.merge_ms", time.Duration(wp.MergeNanos))
	c.sampleMillis("filer.phase1_ms", time.Duration(wp.FilerPhase1Nanos))
	c.sampleMillis("filer.phase2_ms", time.Duration(wp.FilerPhase2Nanos))
	return os.WriteFile(artifactPath(c.spec.Out, c.spec.Workload, "wall.txt"), []byte(wp.Summary()+"\n"+wp.Series.CSV()), 0o644)
}

// maxQueue is the deepest barrier queue any filer partition absorbed.
func maxQueue(parts []flashsim.FilerPartitionStats) int {
	m := 0
	for _, p := range parts {
		m = max(m, p.MaxBarrierQueue)
	}
	return m
}

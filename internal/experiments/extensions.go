package experiments

import (
	"fmt"
	"strings"

	"repro/flashsim"
	"repro/internal/ftl"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	registry["ext-replacement"] = ExtReplacement
	registry["ext-writeback"] = ExtWriteback
	registry["ext-wear"] = ExtWear
}

// ExtReplacement is the replacement-policy study the paper set aside
// ("we put aside other relevant but secondary considerations, such as
// cache replacement policy (we use LRU)", §1): LRU vs FIFO, CLOCK,
// segmented LRU and 2Q on the flash tier, across working-set sizes.
// The workload's 20% whole-file-server traffic acts as a scan that the
// scan-resistant policies (SLRU, 2Q) filter out of the flash cache.
func ExtReplacement(o Options) (*Report, error) {
	scale := o.scale()
	fs, err := sharedServer(o, 160)
	if err != nil {
		return nil, err
	}
	readFig := stats.NewFigure(
		"Extension: read latency vs working set size by flash replacement policy",
		"working set (GB)", "read latency (us)")
	hitFig := stats.NewFigure(
		"Extension: flash hit rate vs working set size by flash replacement policy",
		"working set (GB)", "flash hit rate (%)")
	sweeps := []float64{40, 60, 80, 120, 160}
	if o.Quick {
		sweeps = []float64{60, 80}
	}
	kinds := flashsim.AllReplacements()
	if o.Quick {
		kinds = []flashsim.ReplacementKind{flashsim.ReplaceLRU, flashsim.ReplaceFIFO, flashsim.Replace2Q}
	}
	s := newSweep(o, "ext-replacement")
	for _, kind := range kinds {
		rs := readFig.AddSeries(kind.String())
		hs := hitFig.AddSeries(kind.String())
		for _, wss := range sweeps {
			cfg := baseline(o)
			cfg.FlashReplacement = kind
			cfg.Workload.WorkingSetBlocks = gb(wss, scale)
			cfg.Workload.FileSet = fs
			s.add(fmt.Sprintf("ext-repl %s wss=%g", kind, wss), cfg,
				func(res *flashsim.Result) {
					rs.Add(wss, res.ReadLatencyMicros)
					hs.Add(wss, 100*res.FlashHitRate)
				})
		}
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return &Report{
		Name:        "ext-replacement",
		Description: "Flash-tier replacement policies (extension; the paper fixes LRU)",
		Figures:     []*stats.Figure{readFig, hitFig},
	}, nil
}

// ExtWriteback evaluates the "more elaborate" writeback policies the paper
// mentions but does not try (§3.6): delayed writeback (dN) and trickle
// flushing (tN), against the paper's async write-through and one-second
// periodic baselines. Delayed writeback coalesces rewrites, cutting filer
// writeback traffic; trickle bounds writeback bandwidth and falls behind
// when set below the dirty production rate.
func ExtWriteback(o Options) (*Report, error) {
	scale := o.scale()
	fs, err := sharedServer(o, 60)
	if err != nil {
		return nil, err
	}
	policies := []string{"a", "p1", "d1", "d5", "t20000", "t2000"}
	if o.Quick {
		policies = []string{"a", "d1", "t2000"}
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-8s %12s %12s %16s %14s\n",
		"policy", "read (us)", "write (us)", "filer writebacks", "sync evictions")
	fig := stats.NewFigure(
		"Extension: RAM writeback policy (paper's a/p1 vs delayed/trickle)",
		"policy index", "write latency (us)")
	ws := fig.AddSeries("write latency")
	wbs := fig.AddSeries("filer writebacks (k)")
	s := newSweep(o, "ext-writeback")
	for i, ps := range policies {
		pol, err := flashsim.ParsePolicy(ps)
		if err != nil {
			return nil, err
		}
		cfg := baseline(o)
		cfg.RAMPolicy = flashsim.ScalePolicy(pol, scale)
		cfg.Workload.FileSet = fs
		s.add("ext-wb "+ps, cfg, func(res *flashsim.Result) {
			fmt.Fprintf(&table, "%-8s %12.1f %12.1f %16d %14d\n",
				ps, res.ReadLatencyMicros, res.WriteLatencyMicros,
				res.Hosts.FilerWritebacks, res.Hosts.SyncEvictions)
			ws.Add(float64(i), res.WriteLatencyMicros)
			wbs.Add(float64(i), float64(res.Hosts.FilerWritebacks)/1000)
		})
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return &Report{
		Name:        "ext-writeback",
		Description: "Delayed and trickle writeback policies (extension, paper §3.6)",
		Figures:     []*stats.Figure{fig},
		Tables:      []string{table.String()},
	}, nil
}

// ExtWear addresses the paper's lifetime future work (§8): how many flash
// device writes each architecture performs per application write, and the
// NAND-level write amplification an FTL adds at cache-like occupancy —
// together, the endurance cost of client-side flash caching.
func ExtWear(o Options) (*Report, error) {
	scale := o.scale()
	fs, err := sharedServer(o, 60)
	if err != nil {
		return nil, err
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-10s %18s %18s %20s\n",
		"arch", "dev writes/app wr", "dev writes/app op", "flash busy (%)")
	s := newSweep(o, "ext-wear")
	for _, arch := range []flashsim.Architecture{flashsim.Naive, flashsim.Lookaside, flashsim.Unified} {
		cfg := baseline(o)
		cfg.Arch = arch
		cfg.Workload.FileSet = fs
		s.add("ext-wear "+arch.String(), cfg, func(res *flashsim.Result) {
			appWrites := float64(res.Hosts.BlocksWritten)
			appOps := float64(res.Hosts.BlocksWritten + res.Hosts.BlocksRead)
			fmt.Fprintf(&table, "%-10s %18.2f %18.2f %20.1f\n",
				arch,
				float64(res.FlashDeviceWrites)/appWrites,
				float64(res.FlashDeviceWrites)/appOps,
				100*res.FlashBusyFraction)
		})
	}
	if err := s.run(); err != nil {
		return nil, err
	}

	// NAND-level amplification below the block interface: churn an FTL
	// at high occupancy, the regime a cache keeps its device in.
	var eng sim.Engine
	devCfg := ftl.DefaultConfig(int(gb(4, scale/8+1)) + 4096)
	dev, err := ftl.NewDevice(&eng, devCfg)
	if err != nil {
		return nil, err
	}
	r := rng.New(3)
	n := dev.LogicalPages()
	churn := 10 * n
	if o.Quick {
		churn = 4 * n
	}
	for i := 0; i < churn; i++ {
		dev.Write2(r.Intn(n), nil, nil)
		eng.Run()
	}
	snap := dev.Snapshot()
	fmt.Fprintf(&table,
		"\nFTL at cache occupancy: write amplification %.2f, %d erases, wear spread %d..%d\n"+
			"effective NAND writes per application write = device rate x %.2f\n",
		snap.WriteAmplification, snap.Erases, snap.MinErase, snap.MaxErase,
		snap.WriteAmplification)

	return &Report{
		Name:        "ext-wear",
		Description: "Flash lifetime: device writes per app write and FTL amplification (extension, paper §8)",
		Tables:      []string{table.String()},
	}, nil
}

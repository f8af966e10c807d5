package obs

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// This file is the cluster's wall-clock self-profiler: where real time
// goes inside a sharded run — per-shard event execution, barrier wait,
// exchange merge, and the two filer service phases — accumulated as
// cumulative buckets plus a per-window stats.TimeSeries. The profile
// reads wall clocks, so its numbers vary run to run; it lives entirely
// off the golden hash surface, and the collector is nil (zero cost)
// unless Config.WallProfile asks for it.

// wallStride is how many epochs one TimeSeries row covers.
const wallStride = 256

// WallProfile is the finished wall-clock breakdown of one sharded run.
type WallProfile struct {
	// Shards is the number of engine partitions profiled; Parallel
	// reports whether they ran on worker goroutines (false inline, where
	// barrier wait is structurally zero).
	Shards   int
	Parallel bool
	// Epochs is the number of barrier intervals profiled.
	Epochs uint64

	// ExecNanos is each shard's cumulative wall time executing events
	// (including outbox sealing). BarrierWaitNanos is the total wall time
	// shards spent blocked at the barrier: per epoch, the parallel
	// region's span minus each shard's own execution, summed over shards.
	ExecNanos        []int64
	BarrierWaitNanos int64
	// EpochSpanNanos is the cumulative wall time of the parallel regions
	// (the epoch handshakes, end to end).
	EpochSpanNanos int64
	// Coordinator serial sections: outbox merge (gather) and the filer
	// barrier service's two serial walks (routing and draws, then tier
	// latencies and inbox delivery).
	MergeNanos       int64
	FilerPhase1Nanos int64
	FilerPhase2Nanos int64

	// Epoch-length gauges in simulated time.
	MinEpochSim sim.Time
	MaxEpochSim sim.Time

	// Series is the per-window breakdown: one row per wallStride epochs,
	// timestamped in simulated seconds, with per-window milliseconds in
	// columns exec_ms (summed over shards), barrier_ms, merge_ms,
	// filer1_ms, filer2_ms, and the window's shard imbalance.
	Series *stats.TimeSeries
}

// ExecTotalNanos sums the shards' execution buckets.
func (p *WallProfile) ExecTotalNanos() int64 {
	var n int64
	for _, v := range p.ExecNanos {
		n += v
	}
	return n
}

// Imbalance is the spread of per-shard execution time: (max - min) /
// mean, 0 for a perfectly balanced run.
func (p *WallProfile) Imbalance() float64 { return imbalance(p.ExecNanos) }

func imbalance(exec []int64) float64 {
	if len(exec) == 0 {
		return 0
	}
	minv, maxv, sum := exec[0], exec[0], int64(0)
	for _, v := range exec {
		if v < minv {
			minv = v
		}
		if v > maxv {
			maxv = v
		}
		sum += v
	}
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(exec))
	return float64(maxv-minv) / mean
}

// BarrierShare is barrier wait over all shard wall time (execution +
// wait): the fraction of shard capacity the conservative handshake
// idles, the number the optimistic-execution work must drive down.
func (p *WallProfile) BarrierShare() float64 {
	total := p.ExecTotalNanos() + p.BarrierWaitNanos
	if total <= 0 {
		return 0
	}
	return float64(p.BarrierWaitNanos) / float64(total)
}

func ms(nanos int64) float64 { return float64(nanos) / 1e6 }

// Summary renders the human-readable breakdown the extended -epochstats
// prints. Wall-clock numbers vary run to run; nothing here may reach a
// golden or byte-compared surface.
func (p *WallProfile) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall clock: %.1f ms epochs (%.1f ms exec over %d shards, %.1f ms barrier wait, share %.1f%%)\n",
		ms(p.EpochSpanNanos), ms(p.ExecTotalNanos()), p.Shards, ms(p.BarrierWaitNanos), 100*p.BarrierShare())
	fmt.Fprintf(&b, "coordinator: %.1f ms exchange merge, %.1f ms filer phase 1, %.1f ms filer phase 2\n",
		ms(p.MergeNanos), ms(p.FilerPhase1Nanos), ms(p.FilerPhase2Nanos))
	fmt.Fprintf(&b, "shard imbalance: %.3f (max-min/mean exec); epoch length %s..%s sim\n",
		p.Imbalance(), p.MinEpochSim, p.MaxEpochSim)
	return b.String()
}

// WallCollector accumulates the profile while a cluster runs. The
// coordinator drives it between epochs (shards quiescent), so no
// synchronization is needed beyond the cluster's own handshake.
type WallCollector struct {
	P WallProfile

	epochStart time.Time
	lastExec   []int64 // per-shard snapshot at the previous epoch

	// Window accumulators for the series rows.
	winEpochs   uint64
	winExec     []int64
	winBarrier  int64
	lastMerge   int64
	lastFiler1  int64
	lastFiler2  int64
	rowBuf      []float64
	seriesStart bool
}

// NewWallCollector builds a collector for the given shard topology.
func NewWallCollector(shards int, parallel bool) *WallCollector {
	c := &WallCollector{
		P: WallProfile{
			Shards:    shards,
			Parallel:  parallel,
			ExecNanos: make([]int64, shards),
			Series: stats.NewTimeSeries("wallclock",
				"exec_ms", "barrier_ms", "merge_ms", "filer1_ms", "filer2_ms", "imbalance"),
		},
		lastExec: make([]int64, shards),
		winExec:  make([]int64, shards),
	}
	c.rowBuf = make([]float64, c.P.Series.NumColumns())
	return c
}

// EpochStart marks the beginning of one epoch's parallel region.
func (c *WallCollector) EpochStart() { c.epochStart = time.Now() }

// EpochEnd folds one epoch: exec is each shard's cumulative execution
// wall time, epochSim the epoch's simulated length, and now the
// simulated barrier time (the series' x-axis).
func (c *WallCollector) EpochEnd(exec []int64, epochSim sim.Time, now sim.Time) {
	span := int64(time.Since(c.epochStart))
	p := &c.P
	p.Epochs++
	p.EpochSpanNanos += span
	for s := range exec {
		d := exec[s] - c.lastExec[s]
		c.lastExec[s] = exec[s]
		p.ExecNanos[s] = exec[s]
		c.winExec[s] += d
		if p.Parallel {
			if w := span - d; w > 0 {
				p.BarrierWaitNanos += w
				c.winBarrier += w
			}
		}
	}
	if !c.seriesStart || epochSim < p.MinEpochSim {
		p.MinEpochSim = epochSim
	}
	if epochSim > p.MaxEpochSim {
		p.MaxEpochSim = epochSim
	}
	c.seriesStart = true

	c.winEpochs++
	if c.winEpochs >= wallStride {
		c.flushWindow(now)
	}
}

// AddMerge charges the coordinator's barrier merge (gathering the shard
// outboxes into the global batches).
func (c *WallCollector) AddMerge(d time.Duration) { c.P.MergeNanos += int64(d) }

// AddFiler1 charges the filer service's first walk: routing, read draws
// and barrier queue depths.
func (c *WallCollector) AddFiler1(d time.Duration) { c.P.FilerPhase1Nanos += int64(d) }

// AddFiler2 charges the filer service's second walk: tier latencies and
// delivery into the shard inboxes.
func (c *WallCollector) AddFiler2(d time.Duration) { c.P.FilerPhase2Nanos += int64(d) }

// flushWindow appends one series row covering the epochs since the last.
func (c *WallCollector) flushWindow(now sim.Time) {
	var execSum int64
	for _, v := range c.winExec {
		execSum += v
	}
	c.rowBuf[0] = ms(execSum)
	c.rowBuf[1] = ms(c.winBarrier)
	c.rowBuf[2] = ms(c.P.MergeNanos - c.lastMerge)
	c.rowBuf[3] = ms(c.P.FilerPhase1Nanos - c.lastFiler1)
	c.rowBuf[4] = ms(c.P.FilerPhase2Nanos - c.lastFiler2)
	c.rowBuf[5] = imbalance(c.winExec)
	c.P.Series.Append(now.Seconds(), c.rowBuf)
	c.lastMerge = c.P.MergeNanos
	c.lastFiler1 = c.P.FilerPhase1Nanos
	c.lastFiler2 = c.P.FilerPhase2Nanos
	c.winEpochs = 0
	c.winBarrier = 0
	clear(c.winExec)
}

// Finish flushes any partial window and returns the profile.
func (c *WallCollector) Finish(now sim.Time) *WallProfile {
	if c.winEpochs > 0 {
		c.flushWindow(now)
	}
	return &c.P
}

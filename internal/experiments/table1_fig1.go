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

// Table1 prints the timing model parameters (paper Table 1).
func Table1(o Options) (*Report, error) {
	tm := flashsim.DefaultTiming()
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %s\n", "Parameter", "Value")
	row := func(name string, v sim.Time, unit string) {
		fmt.Fprintf(&b, "%-28s %g %s\n", name, v.Micros(), unit)
	}
	row("RAM read", tm.RAMRead, "us / 4K block")
	row("RAM write", tm.RAMWrite, "us / 4K block")
	row("Flash read", tm.FlashRead, "us / 4K block")
	row("Flash write", tm.FlashWrite, "us / 4K block")
	row("Network base latency", tm.NetBase, "us / packet")
	fmt.Fprintf(&b, "%-28s %d ns / bit\n", "Network data latency", tm.NetPerBit)
	row("File server fast read", tm.FilerFastRead, "us / 4K block")
	row("File server slow read", tm.FilerSlowRead, "us / 4K block")
	row("File server write", tm.FilerWrite, "us / 4K block")
	fmt.Fprintf(&b, "%-28s %.0f%%\n", "File server fast read rate", tm.FilerFastReadRate*100)
	return &Report{
		Name:        "table1",
		Description: "Timing model parameters (paper Table 1, in microseconds)",
		Tables:      []string{b.String()},
	}, nil
}

// latencyProbe records one in-flight device op's host-observed latency:
// start is the engine time the op was issued, and probeDone adds the
// elapsed time to acc at completion. The loop runs one op at a time, so
// one probe per op kind serves every op.
type latencyProbe struct {
	eng   *sim.Engine
	start sim.Time
	acc   *stats.LatencyAccum
}

func probeDone(a any) {
	p := a.(*latencyProbe)
	p.acc.Add(p.eng.Now() - p.start)
}

// Fig1 regenerates Figure 1: SSD read and write latency as a function of
// cumulative I/Os, on the FTL device model standing in for the paper's
// measured consumer SSDs (see docs/ARCHITECTURE.md, "Departures from the
// paper"). The device is 58 GB (scaled) and the workload walks a 60 GB
// working set with 30% writes and caching-style skew, so the device fills
// and then churns under garbage collection.
func Fig1(o Options) (*Report, error) {
	scale := o.scale()
	logical := int(gb(58, scale))
	churn := 12
	buckets := 60
	if o.Quick {
		churn = 6
		buckets = 20
	}

	var eng sim.Engine
	cfg := ftl.DefaultConfig(logical)
	dev, err := ftl.NewDevice(&eng, cfg)
	if err != nil {
		return nil, err
	}
	logical = dev.LogicalPages()

	fig := stats.NewFigure(
		"Figure 1: SSD access latency as a function of cumulative I/Os",
		"cumulative I/Os", "latency (us)")
	readSeries := fig.AddSeries("read latency")
	writeSeries := fig.AddSeries("write latency")

	r := rng.New(7)
	total := churn * logical
	perBucket := total / buckets
	if perBucket < 1 {
		perBucket = 1
	}
	var readAcc, writeAcc stats.LatencyAccum
	readProbe := &latencyProbe{eng: &eng, acc: &readAcc}
	writeProbe := &latencyProbe{eng: &eng, acc: &writeAcc}
	done := 0
	for i := 0; i < total; i++ {
		// Caching workloads are not random (paper §6.2): concentrate
		// half the accesses on a hot tenth of the device.
		var lpn int
		if r.Bool(0.5) {
			lpn = r.Intn(logical / 10)
		} else {
			lpn = r.Intn(logical)
		}
		if r.Bool(0.3) {
			writeProbe.start = eng.Now()
			dev.Write2(lpn, probeDone, writeProbe)
		} else {
			readProbe.start = eng.Now()
			dev.Read2(lpn, probeDone, readProbe)
		}
		eng.Run() // closed loop, one op at a time
		done++
		if done%perBucket == 0 {
			x := float64(done)
			if readAcc.Count() > 0 {
				readSeries.Add(x, readAcc.MeanMicros())
			}
			if writeAcc.Count() > 0 {
				writeSeries.Add(x, writeAcc.MeanMicros())
			}
			readAcc = stats.LatencyAccum{}
			writeAcc = stats.LatencyAccum{}
		}
	}

	snap := dev.Snapshot()
	table := fmt.Sprintf(
		"device: %d logical pages, WA=%.2f, %d erases, wear min/max %d/%d\n",
		snap.LogicalPages, snap.WriteAmplification, snap.Erases, snap.MinErase, snap.MaxErase)
	o.logf("  fig1: write amplification %.2f after %d host writes", snap.WriteAmplification, snap.HostWrites)
	return &Report{
		Name:        "fig1",
		Description: "SSD device latency over time (FTL model; paper Figure 1)",
		Figures:     []*stats.Figure{fig},
		Tables:      []string{table},
	}, nil
}

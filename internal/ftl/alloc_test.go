package ftl

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestClosedLoopAllocationFree locks Figure 1's driving loop: a closed
// loop of Read2/Write2 with a latency probe allocates nothing per op once
// the engine's heap is warm, across device garbage collection (page
// relocations and erases on the die) and jittered NAND timings.
func TestClosedLoopAllocationFree(t *testing.T) {
	var e sim.Engine
	cfg := smallConfig()
	cfg.LatencyJitter = 0.25
	d := mustDevice(t, &e, cfg)
	r := rng.New(5)
	p := &latProbe{eng: &e}
	n := d.LogicalPages()
	// Every run issues both kinds, so an allocation on either path shows
	// as at least one per run; AllocsPerRun truncates the average.
	ops := func() {
		p.write(d, r.Intn(n))
		e.Run()
		p.write(d, r.Intn(n))
		e.Run()
		p.read(d, r.Intn(n))
		e.Run()
	}
	for i := 0; i < 2*n; i++ { // fill the device and reach steady GC
		ops()
	}
	before := d.Snapshot()
	if allocs := testing.AllocsPerRun(2*n, ops); allocs != 0 {
		t.Errorf("closed-loop write, write, read allocated %v per run, want 0", allocs)
	}
	after := d.Snapshot()
	if after.GCRuns == before.GCRuns || after.Erases == before.Erases {
		t.Fatalf("no device GC during the measurement (%d GC runs, %d erases before and after)",
			after.GCRuns, after.Erases)
	}
	if p.count == 0 || p.total <= 0 {
		t.Fatal("latency probe never completed")
	}
}

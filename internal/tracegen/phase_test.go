package tracegen

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// countWrites drains n ops and returns the write fraction.
func countWrites(t *testing.T, g *Generator, n int) float64 {
	t.Helper()
	writes := 0
	for i := 0; i < n; i++ {
		op, ok := g.Next()
		if !ok {
			t.Fatal("generator drained early")
		}
		if op.Kind == trace.Write {
			writes++
		}
	}
	return float64(writes) / float64(n)
}

func TestGeneratorSetWriteFraction(t *testing.T) {
	fs := testFileSet(t, 100000)
	cfg := defaultGenConfig(fs)
	cfg.TotalBlocks = 1 << 40 // effectively unbounded
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := countWrites(t, g, 4000)
	if math.Abs(before-0.3) > 0.03 {
		t.Fatalf("phase 1 write fraction %.3f, want ~0.30", before)
	}
	if err := g.SetWriteFraction(0.9); err != nil {
		t.Fatal(err)
	}
	after := countWrites(t, g, 4000)
	if math.Abs(after-0.9) > 0.03 {
		t.Fatalf("phase 2 write fraction %.3f, want ~0.90", after)
	}
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		if err := g.SetWriteFraction(bad); err == nil {
			t.Errorf("SetWriteFraction(%v) accepted", bad)
		}
	}
}

func TestGeneratorSetWorkingSetFraction(t *testing.T) {
	fs := testFileSet(t, 100000)
	cfg := defaultGenConfig(fs)
	cfg.TotalBlocks = 1 << 40
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := g.WorkingSet(0)
	inWS := func(n int) float64 {
		hits := 0
		for i := 0; i < n; i++ {
			op, ok := g.Next()
			if !ok {
				t.Fatal("generator drained early")
			}
			for _, reg := range ws.Regions {
				if op.File == reg.File && op.Block >= reg.Start && op.Block < reg.Start+reg.Blocks {
					hits++
					break
				}
			}
		}
		return float64(hits) / float64(n)
	}
	before := inWS(2000) // default locality: 80% + incidental overlap
	if before < 0.75 {
		t.Fatalf("baseline working-set fraction %.3f, want >= 0.75", before)
	}
	if err := g.SetWorkingSetFraction(0); err != nil {
		t.Fatal(err)
	}
	// Whole-server draws still overlap the (popularity-sampled) working
	// set incidentally, but far less than targeted draws.
	after := inWS(2000)
	if after > before-0.15 {
		t.Fatalf("working-set fraction %.3f -> %.3f; expected a clear drop", before, after)
	}
	if err := g.SetWorkingSetFraction(math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
}

func TestGeneratorSetActiveThreads(t *testing.T) {
	fs := testFileSet(t, 100000)
	cfg := defaultGenConfig(fs)
	cfg.TotalBlocks = 1 << 40
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetActiveThreads(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		op, _ := g.Next()
		if op.Thread >= 2 {
			t.Fatalf("op on thread %d with 2 active threads", op.Thread)
		}
	}
	// Raising past the initial count is allowed: thread IDs are logical.
	if err := g.SetActiveThreads(32); err != nil {
		t.Fatal(err)
	}
	seen := map[uint16]bool{}
	for i := 0; i < 4000; i++ {
		op, _ := g.Next()
		seen[op.Thread] = true
	}
	if len(seen) < 24 {
		t.Fatalf("only %d threads seen after raising to 32", len(seen))
	}
	if err := g.SetActiveThreads(0); err == nil {
		t.Error("SetActiveThreads(0) accepted")
	}
}

func TestGeneratorSetSharedWorkingSet(t *testing.T) {
	fs := testFileSet(t, 200000)
	cfg := defaultGenConfig(fs)
	cfg.Hosts = 2
	cfg.TotalBlocks = 1 << 40
	g, err := NewGenerator(cfg) // private sets
	if err != nil {
		t.Fatal(err)
	}
	if g.WorkingSet(0) == g.WorkingSet(1) {
		t.Fatal("private sets alias")
	}
	if err := g.SetSharedWorkingSet(true); err != nil {
		t.Fatal(err)
	}
	if g.WorkingSet(0) != g.WorkingSet(1) {
		t.Fatal("shared mode still private")
	}
	if err := g.SetSharedWorkingSet(false); err != nil {
		t.Fatal(err) // per-host sets exist, switching back is fine
	}

	// A generator born shared cannot go private.
	cfg.SharedWorkingSet = true
	g2, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.SetSharedWorkingSet(false); err == nil {
		t.Error("shared-born generator switched to private")
	}
}

func TestShiftWorkingSet(t *testing.T) {
	fs := testFileSet(t, 400000)
	r := rng.New(9)
	ws, err := fs.sampleWorkingSet(r, 20000, 64)
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := fs.shiftWorkingSet(r, ws, 0.5, 64)
	if err != nil {
		t.Fatal(err)
	}
	if shifted == ws {
		t.Fatal("shift returned the same set")
	}
	if shifted.TotalBlocks < ws.TotalBlocks || shifted.TotalBlocks > ws.TotalBlocks+1000 {
		t.Fatalf("shifted size %d, want ~%d", shifted.TotalBlocks, ws.TotalBlocks)
	}
	// Measure block overlap: ~half the volume should be retained.
	old := map[uint64]bool{}
	for _, reg := range ws.Regions {
		for b := uint32(0); b < reg.Blocks; b++ {
			old[trace.BlockKey(reg.File, reg.Start+b)] = true
		}
	}
	var kept int64
	for _, reg := range shifted.Regions {
		for b := uint32(0); b < reg.Blocks; b++ {
			if old[trace.BlockKey(reg.File, reg.Start+b)] {
				kept++
			}
		}
	}
	frac := float64(kept) / float64(ws.TotalBlocks)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("retained fraction %.3f after 0.5 shift, want ~0.5", frac)
	}

	if _, err := fs.shiftWorkingSet(r, ws, 1.5, 64); err == nil {
		t.Error("shift fraction 1.5 accepted")
	}
}

func TestGeneratorShiftWorkingSetsDeterministic(t *testing.T) {
	fs := testFileSet(t, 400000)
	run := func() []trace.Op {
		cfg := defaultGenConfig(fs)
		cfg.TotalBlocks = 1 << 40
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ops []trace.Op
		for i := 0; i < 500; i++ {
			op, _ := g.Next()
			ops = append(ops, op)
		}
		if err := g.ShiftWorkingSets(0.4); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			op, _ := g.Next()
			ops = append(ops, op)
		}
		return ops
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

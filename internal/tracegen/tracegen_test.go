package tracegen

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

func testFileSet(t *testing.T, total int64) *FileSet {
	t.Helper()
	cfg := DefaultFileSetConfig(total)
	fs, err := GenerateFileSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFileSetTotalSize(t *testing.T) {
	fs := testFileSet(t, 100000)
	if fs.TotalBlocks < 100000 {
		t.Fatalf("total %d below target", fs.TotalBlocks)
	}
	// Overshoot is bounded by the largest single file (capped at 1/8).
	if fs.TotalBlocks > 100000+100000/8+1 {
		t.Fatalf("total %d overshoots wildly", fs.TotalBlocks)
	}
	var sum int64
	for _, f := range fs.Files {
		if f.Blocks == 0 {
			t.Fatal("zero-size file")
		}
		if f.Popularity < 1 || f.Popularity > 20 {
			t.Fatalf("popularity %d out of range", f.Popularity)
		}
		sum += int64(f.Blocks)
	}
	if sum != fs.TotalBlocks {
		t.Fatal("recorded total does not match file sum")
	}
}

func TestFileSetDeterministic(t *testing.T) {
	a := testFileSet(t, 50000)
	b := testFileSet(t, 50000)
	if len(a.Files) != len(b.Files) {
		t.Fatal("same seed, different file counts")
	}
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			t.Fatalf("file %d differs", i)
		}
	}
}

func TestFileSetSizeDistributionSkewed(t *testing.T) {
	fs := testFileSet(t, 200000)
	// Median should be well below mean for a lognormal+Pareto mix.
	sizes := make([]int, len(fs.Files))
	var sum float64
	for i, f := range fs.Files {
		sizes[i] = int(f.Blocks)
		sum += float64(f.Blocks)
	}
	mean := sum / float64(len(sizes))
	below := 0
	for _, s := range sizes {
		if float64(s) < mean {
			below++
		}
	}
	frac := float64(below) / float64(len(sizes))
	if frac < 0.6 {
		t.Fatalf("only %.2f of files below mean; distribution not right-skewed", frac)
	}
}

func TestFileSetConfigValidation(t *testing.T) {
	bad := []FileSetConfig{
		{TotalBlocks: 0, MeanFileBlocks: 4, MaxPopularity: 5},
		{TotalBlocks: 100, MeanFileBlocks: 0, MaxPopularity: 5},
		{TotalBlocks: 100, MeanFileBlocks: 4, TailFraction: 0.9, MaxPopularity: 5},
		{TotalBlocks: 100, MeanFileBlocks: 4, MaxPopularity: 0},
	}
	for i, cfg := range bad {
		if _, err := GenerateFileSet(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSampleFilePopularityBias(t *testing.T) {
	fs := testFileSet(t, 100000)
	r := rng.New(7)
	counts := make(map[uint32]int)
	for i := 0; i < 50000; i++ {
		counts[fs.sampleFile(r).ID]++
	}
	// Average draw rate of popularity >= 10 files should exceed that of
	// popularity 1 files.
	var hiSum, hiN, loSum, loN float64
	for _, f := range fs.Files {
		c := float64(counts[f.ID])
		if f.Popularity >= 10 {
			hiSum += c
			hiN++
		} else if f.Popularity == 1 {
			loSum += c
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("degenerate popularity split")
	}
	if hiSum/hiN <= loSum/loN {
		t.Fatalf("popular files not drawn more often: hi %.2f lo %.2f", hiSum/hiN, loSum/loN)
	}
}

func TestWorkingSetSize(t *testing.T) {
	fs := testFileSet(t, 100000)
	r := rng.New(3)
	ws, err := fs.sampleWorkingSet(r, 20000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ws.TotalBlocks != 20000 {
		t.Fatalf("working set %d blocks, want exactly 20000 (last region clamped)", ws.TotalBlocks)
	}
	for _, reg := range ws.Regions {
		if reg.Blocks == 0 {
			t.Fatal("empty region")
		}
		// Region must lie within its file.
		var f *File
		for i := range fs.Files {
			if fs.Files[i].ID == reg.File {
				f = &fs.Files[i]
				break
			}
		}
		if f == nil {
			t.Fatalf("region references unknown file %d", reg.File)
		}
		if reg.Start+reg.Blocks > f.Blocks {
			t.Fatalf("region [%d,%d) exceeds file size %d", reg.Start, reg.Start+reg.Blocks, f.Blocks)
		}
	}
}

func TestWorkingSetTooLarge(t *testing.T) {
	fs := testFileSet(t, 1000)
	if _, err := fs.sampleWorkingSet(rng.New(1), 10000, 64); err == nil {
		t.Fatal("oversized working set accepted")
	}
}

func TestWorkingSetUniqueBlocks(t *testing.T) {
	fs := testFileSet(t, 50000)
	ws, err := fs.sampleWorkingSet(rng.New(5), 10000, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, reg := range ws.Regions {
		for b := uint32(0); b < reg.Blocks; b++ {
			seen[trace.BlockKey(reg.File, reg.Start+b)] = true
		}
	}
	uniq := int64(len(seen))
	if uniq <= 0 || uniq > ws.TotalBlocks {
		t.Fatalf("unique blocks %d out of range (total %d)", uniq, ws.TotalBlocks)
	}
	// Overlap should be modest: most of the set is distinct data.
	if float64(uniq) < 0.5*float64(ws.TotalBlocks) {
		t.Fatalf("working set is mostly overlap: %d unique of %d", uniq, ws.TotalBlocks)
	}
}

func defaultGenConfig(fs *FileSet) Config {
	return Config{
		Seed:               1,
		Hosts:              1,
		ThreadsPerHost:     8,
		WorkingSetBlocks:   10000,
		WorkingSetFraction: 0.8,
		WriteFraction:      0.3,
		MeanIOBlocks:       4,
		FileSet:            fs,
	}
}

func TestGeneratorVolumeAndDefaults(t *testing.T) {
	fs := testFileSet(t, 100000)
	g, err := NewGenerator(defaultGenConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalBlocks() != 40000 {
		t.Fatalf("default volume %d, want 4x working set", g.TotalBlocks())
	}
	if g.WarmupBlocks() != 20000 {
		t.Fatalf("warmup %d, want half", g.WarmupBlocks())
	}
	var vol int64
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if err := op.Validate(); err != nil {
			t.Fatal(err)
		}
		vol += int64(op.Count)
	}
	if vol < 40000 || vol > 40000+1000 {
		t.Fatalf("emitted %d blocks, want ~40000", vol)
	}
}

func TestGeneratorWriteFraction(t *testing.T) {
	fs := testFileSet(t, 100000)
	cfg := defaultGenConfig(fs)
	cfg.WriteFraction = 0.3
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Collect(g)
	frac := float64(st.WriteOps) / float64(st.Ops)
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("write fraction %.3f, want ~0.30", frac)
	}
}

func TestGeneratorHostThreadUniform(t *testing.T) {
	fs := testFileSet(t, 100000)
	cfg := defaultGenConfig(fs)
	cfg.Hosts = 4
	cfg.ThreadsPerHost = 4
	cfg.TotalBlocks = 200000
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hostCount := make([]int, 4)
	total := 0
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		if op.Host >= 4 || op.Thread >= 4 {
			t.Fatalf("op outside host/thread range: %v", op)
		}
		hostCount[op.Host]++
		total++
	}
	for h, c := range hostCount {
		frac := float64(c) / float64(total)
		if math.Abs(frac-0.25) > 0.02 {
			t.Fatalf("host %d got %.3f of ops, want ~0.25", h, frac)
		}
	}
}

func TestGeneratorWorkingSetLocality(t *testing.T) {
	// With an 80% working-set fraction and a working set much smaller
	// than the file server, most I/O blocks must fall inside the set.
	fs := testFileSet(t, 200000)
	cfg := defaultGenConfig(fs)
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inSet := make(map[uint64]bool)
	ws := g.WorkingSet(0)
	for _, reg := range ws.Regions {
		for b := uint32(0); b < reg.Blocks; b++ {
			inSet[trace.BlockKey(reg.File, reg.Start+b)] = true
		}
	}
	var hits, blocks int64
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		for b := uint32(0); b < op.Count; b++ {
			if inSet[trace.BlockKey(op.File, op.Block+b)] {
				hits++
			}
			blocks++
		}
	}
	frac := float64(hits) / float64(blocks)
	if frac < 0.7 {
		t.Fatalf("only %.2f of blocks inside working set, want >= ~0.8 minus tail overlap", frac)
	}
}

func TestGeneratorSharedWorkingSet(t *testing.T) {
	fs := testFileSet(t, 100000)
	cfg := defaultGenConfig(fs)
	cfg.Hosts = 2
	cfg.SharedWorkingSet = true
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.WorkingSet(0) != g.WorkingSet(1) {
		t.Fatal("shared working set differs across hosts")
	}
	if g.TotalBlocks() != 40000 {
		t.Fatalf("shared volume %d, want 4x one working set", g.TotalBlocks())
	}
}

func TestGeneratorSeparateWorkingSets(t *testing.T) {
	fs := testFileSet(t, 100000)
	cfg := defaultGenConfig(fs)
	cfg.Hosts = 2
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.WorkingSet(0) == g.WorkingSet(1) {
		t.Fatal("separate hosts share a working set")
	}
	if g.TotalBlocks() != 80000 {
		t.Fatalf("volume %d, want 4x aggregate working sets", g.TotalBlocks())
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	fs := testFileSet(t, 100000)
	g1, _ := NewGenerator(defaultGenConfig(fs))
	g2, _ := NewGenerator(defaultGenConfig(fs))
	for i := 0; i < 5000; i++ {
		op1, ok1 := g1.Next()
		op2, ok2 := g2.Next()
		if ok1 != ok2 || op1 != op2 {
			t.Fatalf("divergence at op %d: %v vs %v", i, op1, op2)
		}
		if !ok1 {
			break
		}
	}
}

func TestGeneratorConfigValidation(t *testing.T) {
	fs := testFileSet(t, 10000)
	bad := []Config{
		{FileSet: nil, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 10},
		{FileSet: fs, Hosts: 0, ThreadsPerHost: 1, WorkingSetBlocks: 10},
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 0, WorkingSetBlocks: 10},
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 0},
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 10, WriteFraction: 1.5},
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 10, WorkingSetFraction: -1},
		// NaN fails every range comparison, so each bound must test it.
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 10, WriteFraction: math.NaN()},
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 10, WorkingSetFraction: math.NaN()},
		// A NaN mean never ends rng.Poisson's draw loop.
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 10, MeanIOBlocks: math.NaN()},
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 10, MeanIOBlocks: math.Inf(1)},
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 10, MeanIOBlocks: -1},
		// A negative volume is a typo, not a request for the default.
		{FileSet: fs, Hosts: 1, ThreadsPerHost: 1, WorkingSetBlocks: 10, TotalBlocks: -1},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	ok := defaultGenConfig(fs)
	ok.MeanIOBlocks = 0
	if err := ok.Validate(); err != nil || ok.MeanIOBlocks != 4 {
		t.Errorf("mean I/O 0: err %v, mean %v; want the default of 4", err, ok.MeanIOBlocks)
	}
}

func TestGeneratorOpsWithinFiles(t *testing.T) {
	fs := testFileSet(t, 50000)
	sizes := map[uint32]uint32{}
	for _, f := range fs.Files {
		sizes[f.ID] = f.Blocks
	}
	g, err := NewGenerator(defaultGenConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	for {
		op, ok := g.Next()
		if !ok {
			break
		}
		size, exists := sizes[op.File]
		if !exists {
			t.Fatalf("op references unknown file: %v", op)
		}
		if op.Block+op.Count > size {
			t.Fatalf("op exceeds file size %d: %v", size, op)
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	fs, err := GenerateFileSet(DefaultFileSetConfig(500000))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Seed: 1, Hosts: 1, ThreadsPerHost: 8,
		WorkingSetBlocks: 100000, WorkingSetFraction: 0.8,
		WriteFraction: 0.3, TotalBlocks: 1 << 40, FileSet: fs,
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// TestWorkingSetSubBlockMeanRegion: a mean region size below one block
// samples regions of at least one block, and a shift keeps the size.
func TestWorkingSetSubBlockMeanRegion(t *testing.T) {
	fs := testFileSet(t, 50000)
	ws, err := fs.sampleWorkingSet(rng.New(3), 500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range ws.Regions {
		if reg.Blocks == 0 {
			t.Fatal("empty region sampled")
		}
	}
	shifted, err := fs.shiftWorkingSet(rng.New(4), ws, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ws.TotalBlocks != 500 || shifted.TotalBlocks != 500 {
		t.Fatalf("sizes %d and %d, want 500", ws.TotalBlocks, shifted.TotalBlocks)
	}
}

// Package tracegen generates the synthetic block-level traces used for the
// paper's analysis (§4). The pipeline mirrors the paper's generator: an
// Impressions-style file-server model supplies a list of files and sizes;
// working sets are sampled from it weighted by Zipfian small-integer
// popularities; I/O requests are sampled from the working set (80% by
// default) or the whole file server (the rest), with Poisson sizes clamped
// to the file, uniform starting points, and uniform distribution over hosts
// and threads.
package tracegen

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// File is one file in the server model.
type File struct {
	ID         uint32
	Blocks     uint32 // size in 4 KiB blocks
	Popularity int    // small integer weight, Zipf-distributed
}

// FileSet is the file-server model: a population of files whose total size
// and size distribution mimic the Impressions generator used by the paper.
type FileSet struct {
	Files       []File
	TotalBlocks int64

	cumPop []float64 // cumulative popularity weights for sampling
}

// FileSetConfig controls synthesis of the server model.
type FileSetConfig struct {
	// TotalBlocks is the target aggregate size (the paper uses a 1.4 TB
	// model; at 4 KiB blocks that is 367,001,600 blocks, usually scaled).
	TotalBlocks int64
	// MeanFileBlocks sets the lognormal body's mean file size in blocks.
	// Impressions' 2009 defaults have a median around a few KiB with a
	// heavy tail; we default the body median to 16 blocks (64 KiB) and
	// mix in a Pareto tail.
	MeanFileBlocks float64
	// TailFraction of files draw from a Pareto tail of large files.
	TailFraction float64
	// MaxPopularity bounds the small-integer Zipfian popularity.
	MaxPopularity int
	Seed          uint64
}

// DefaultFileSetConfig returns the configuration used by the experiment
// harness for a given total size.
func DefaultFileSetConfig(totalBlocks int64) FileSetConfig {
	return FileSetConfig{
		TotalBlocks:    totalBlocks,
		MeanFileBlocks: 64, // 256 KiB mean body size
		TailFraction:   0.02,
		MaxPopularity:  20,
		Seed:           42,
	}
}

// GenerateFileSet synthesises the server model.
func GenerateFileSet(cfg FileSetConfig) (*FileSet, error) {
	if cfg.TotalBlocks <= 0 {
		return nil, fmt.Errorf("tracegen: total blocks must be positive")
	}
	if cfg.MeanFileBlocks < 1 {
		return nil, fmt.Errorf("tracegen: mean file size must be >= 1 block")
	}
	if cfg.TailFraction < 0 || cfg.TailFraction > 0.5 {
		return nil, fmt.Errorf("tracegen: tail fraction out of range")
	}
	if cfg.MaxPopularity < 1 {
		return nil, fmt.Errorf("tracegen: max popularity must be >= 1")
	}
	r := rng.New(cfg.Seed)
	fs := &FileSet{}
	// Lognormal body: choose sigma 1.2 (heavy but not extreme spread) and
	// derive mu from the requested mean: mean = exp(mu + sigma^2/2).
	const sigma = 1.2
	mu := math.Log(cfg.MeanFileBlocks) - sigma*sigma/2
	var id uint32
	for fs.TotalBlocks < cfg.TotalBlocks {
		var blocks float64
		if r.Bool(cfg.TailFraction) {
			// Pareto tail: large files starting at 32x the mean.
			blocks = r.Pareto(cfg.MeanFileBlocks*32, 1.3)
		} else {
			blocks = r.LogNormal(mu, sigma)
		}
		if blocks < 1 {
			blocks = 1
		}
		// Cap single files at 1/8 of the server so one draw cannot
		// dominate a small scaled-down model.
		if cap := float64(cfg.TotalBlocks) / 8; blocks > cap && cap >= 1 {
			blocks = cap
		}
		f := File{
			ID:         id,
			Blocks:     uint32(blocks),
			Popularity: rng.SmallZipfPopularity(r, cfg.MaxPopularity, 1.2),
		}
		id++
		fs.Files = append(fs.Files, f)
		fs.TotalBlocks += int64(f.Blocks)
	}
	fs.buildIndex()
	return fs, nil
}

func (fs *FileSet) buildIndex() {
	fs.cumPop = make([]float64, len(fs.Files))
	sum := 0.0
	for i, f := range fs.Files {
		sum += float64(f.Popularity)
		fs.cumPop[i] = sum
	}
}

// SampleFile draws a file weighted by popularity.
func (fs *FileSet) SampleFile(r *rng.RNG) *File {
	total := fs.cumPop[len(fs.cumPop)-1]
	u := r.Float64() * total
	lo, hi := 0, len(fs.cumPop)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if fs.cumPop[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &fs.Files[lo]
}

// Region is a contiguous block range within one file.
type Region struct {
	File   uint32
	Start  uint32
	Blocks uint32
	Weight float64 // sampling weight (popularity of the owning file)
}

// WorkingSet is a set of file subregions totalling roughly a target size,
// sampled from the file server model as the paper's generator does.
type WorkingSet struct {
	Regions     []Region
	TotalBlocks int64

	cum []float64
}

// SampleWorkingSet draws subregions (uniform start, Poisson length clamped
// to the file) from popularity-weighted files until the target size is
// reached.
func (fs *FileSet) SampleWorkingSet(r *rng.RNG, targetBlocks int64, meanRegionBlocks float64) (*WorkingSet, error) {
	if targetBlocks <= 0 {
		return nil, fmt.Errorf("tracegen: working set target must be positive")
	}
	if targetBlocks > fs.TotalBlocks {
		return nil, fmt.Errorf("tracegen: working set %d exceeds file server %d blocks",
			targetBlocks, fs.TotalBlocks)
	}
	if meanRegionBlocks < 1 {
		meanRegionBlocks = 1
	}
	ws := &WorkingSet{}
	fs.appendRegions(r, ws, targetBlocks, meanRegionBlocks)
	ws.buildIndex()
	return ws, nil
}

// appendRegions grows ws with freshly sampled regions (disjoint from those
// already in it) until it covers targetBlocks. It is the sampling core
// shared by SampleWorkingSet and ShiftWorkingSet.
func (fs *FileSet) appendRegions(r *rng.RNG, ws *WorkingSet, targetBlocks int64, meanRegionBlocks float64) {
	// Each file's regions form a chain over ws.Regions: head[f]-1 is the
	// index of f's latest region (head[f] == 0: none yet) and link[i] the
	// one before region i (-1 ends a chain), so the overlap check
	// allocates nothing per file. GenerateFileSet numbers the files
	// 0..len(Files)-1, so head is indexed by file ID.
	head := make([]int32, len(fs.Files))
	link := make([]int32, 0, len(ws.Regions))
	chain := func(i int) {
		f := ws.Regions[i].File
		link = append(link, head[f]-1)
		head[f] = int32(i) + 1
	}
	for i := range ws.Regions {
		chain(i)
	}
	overlaps := func(f uint32, start, n uint32) bool {
		for i := head[f] - 1; i >= 0; i = link[i] {
			reg := &ws.Regions[i]
			if start < reg.Start+reg.Blocks && reg.Start < start+n {
				return true
			}
		}
		return false
	}
	for ws.TotalBlocks < targetBlocks {
		f := fs.SampleFile(r)
		n := uint32(r.Poisson(meanRegionBlocks))
		if n == 0 {
			n = 1
		}
		if n > f.Blocks {
			n = f.Blocks
		}
		var start uint32
		found := false
		// Keep regions disjoint within a file so the working set's
		// unique size matches its nominal size; a handful of retries
		// suffices because the set is much smaller than the file server.
		for attempt := 0; attempt < 6; attempt++ {
			if f.Blocks > n {
				start = uint32(r.Intn(int(f.Blocks - n + 1)))
			} else {
				start = 0
			}
			if !overlaps(f.ID, start, n) {
				found = true
				break
			}
		}
		if !found {
			continue // heavily covered file; sample another
		}
		remaining := targetBlocks - ws.TotalBlocks
		if int64(n) > remaining {
			n = uint32(remaining)
		}
		reg := Region{
			File:   f.ID,
			Start:  start,
			Blocks: n,
			Weight: float64(f.Popularity),
		}
		ws.Regions = append(ws.Regions, reg)
		ws.TotalBlocks += int64(n)
		chain(len(ws.Regions) - 1)
	}
}

// ShiftWorkingSet returns a new working set in which roughly fraction of
// ws's blocks have been replaced by freshly sampled regions, modeling
// working-set drift (new data becomes hot, old data goes cold). The oldest
// regions — those sampled first — are retired first, and the total size is
// preserved. ws itself is not modified.
func (fs *FileSet) ShiftWorkingSet(r *rng.RNG, ws *WorkingSet, fraction float64,
	meanRegionBlocks float64) (*WorkingSet, error) {
	if badFraction(fraction) {
		return nil, fmt.Errorf("tracegen: shift fraction %v out of [0,1]", fraction)
	}
	if meanRegionBlocks < 1 {
		meanRegionBlocks = 1
	}
	target := ws.TotalBlocks
	dropTarget := int64(fraction * float64(target))
	out := &WorkingSet{}
	var dropped int64
	for _, reg := range ws.Regions {
		if dropped < dropTarget {
			dropped += int64(reg.Blocks)
			continue
		}
		out.Regions = append(out.Regions, reg)
		out.TotalBlocks += int64(reg.Blocks)
	}
	fs.appendRegions(r, out, target, meanRegionBlocks)
	out.buildIndex()
	return out, nil
}

func (ws *WorkingSet) buildIndex() {
	ws.cum = make([]float64, len(ws.Regions))
	sum := 0.0
	for i, reg := range ws.Regions {
		// Weight regions by size only, making I/O uniform per block over
		// the working set. Popularity already shaped the set's
		// membership (popular files occupy more regions), so file-level
		// access frequency still tracks popularity, while the block-level
		// distribution stays flat — matching the paper's reported cache
		// behaviour (a constant, low RAM hit rate across configurations,
		// §7.2).
		sum += float64(reg.Blocks)
		ws.cum[i] = sum
	}
}

// SampleRegion draws a region weighted by size (see buildIndex).
func (ws *WorkingSet) SampleRegion(r *rng.RNG) *Region {
	total := ws.cum[len(ws.cum)-1]
	u := r.Float64() * total
	lo, hi := 0, len(ws.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ws.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &ws.Regions[lo]
}

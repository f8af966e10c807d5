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

// sampleFile draws a file weighted by popularity.
func (fs *FileSet) sampleFile(r *rng.RNG) *File {
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
}

// WorkingSet is a set of file subregions totalling roughly a target size,
// sampled from the file server model as the paper's generator does.
type WorkingSet struct {
	Regions     []Region
	TotalBlocks int64

	cum []float64
}

// regionSampler samples working-set regions from one file set: uniform
// start, Poisson length clamped to the file, from popularity-weighted
// files. It keeps its overlap-check scratch across the sets it samples.
type regionSampler struct {
	fs   *FileSet
	mean float64 // Poisson mean region size, at least 1
	// Each file's regions in the set being sampled form a chain:
	// head[f]-1 is the set-relative index of f's latest region (head[f]
	// == 0: none yet) and link[i] the one before region i (-1 ends a
	// chain), so the overlap check allocates nothing per file.
	// GenerateFileSet numbers the files 0..len(Files)-1, so head is
	// indexed by file ID; every entry is zero between sets.
	head []int32
	link []int32
	// perSet is the region count reserved per set: regions come out
	// about 1.7 times target/mean, because most are cut short at the end
	// of their file, so it reserves twice that plus 16 for the spread of
	// small sets, and never more regions than the target has blocks.
	perSet int
}

func (fs *FileSet) newRegionSampler(target int64, mean float64) regionSampler {
	mean = max(mean, 1)
	perSet := int(min(target, int64(2*float64(target)/mean)+16))
	return regionSampler{
		fs:     fs,
		mean:   mean,
		head:   make([]int32, len(fs.Files)),
		link:   make([]int32, 0, perSet),
		perSet: perSet,
	}
}

// fill appends freshly sampled regions to regs until regs[from:], the set
// being sampled, covers target blocks; covered is what regs[from:] covers
// already. New regions are disjoint from every region of the set. It
// returns regs and the set's size.
func (s *regionSampler) fill(r *rng.RNG, regs []Region, from int, covered, target int64) ([]Region, int64) {
	s.link = s.link[:0]
	chain := func(i int) {
		f := regs[from+i].File
		s.link = append(s.link, s.head[f]-1)
		s.head[f] = int32(i) + 1
	}
	for i := range regs[from:] {
		chain(i)
	}
	overlaps := func(f uint32, start, n uint32) bool {
		for i := s.head[f] - 1; i >= 0; i = s.link[i] {
			reg := &regs[from+int(i)]
			if start < reg.Start+reg.Blocks && reg.Start < start+n {
				return true
			}
		}
		return false
	}
	for covered < target {
		f := s.fs.sampleFile(r)
		n := uint32(r.Poisson(s.mean))
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
		if remaining := target - covered; int64(n) > remaining {
			n = uint32(remaining)
		}
		regs = append(regs, Region{File: f.ID, Start: start, Blocks: n})
		covered += int64(n)
		chain(len(regs) - 1 - from)
	}
	for _, reg := range regs[from:] {
		s.head[reg.File] = 0
	}
	return regs, covered
}

// sampleWorkingSets samples n working sets of targetBlocks each, set i
// from the i-th fork of r, as the paper's generator samples one: regions
// from popularity-weighted files until the target size is reached. Every
// set's regions and sampling index come from one array each.
func (fs *FileSet) sampleWorkingSets(r *rng.RNG, n int, targetBlocks int64, meanRegionBlocks float64) ([]WorkingSet, error) {
	if targetBlocks <= 0 {
		return nil, fmt.Errorf("tracegen: working set target must be positive")
	}
	if targetBlocks > fs.TotalBlocks {
		return nil, fmt.Errorf("tracegen: working set %d exceeds file server %d blocks",
			targetBlocks, fs.TotalBlocks)
	}
	s := fs.newRegionSampler(targetBlocks, meanRegionBlocks)
	sets := make([]WorkingSet, n)
	regs := make([]Region, 0, n*s.perSet)
	for i := range sets {
		fr := r.Fork()
		from := len(regs)
		regs, sets[i].TotalBlocks = s.fill(&fr, regs, from, 0, targetBlocks)
		sets[i].Regions = regs[from:]
	}
	carveSets(sets, regs)
	return sets, nil
}

// shiftWorkingSets returns new working sets in which roughly fraction of
// each old set's blocks have been replaced by freshly sampled regions
// drawn from r, modeling working-set drift (new data becomes hot, old
// data goes cold). The oldest regions — those sampled first — are retired
// first, and each set's total size is preserved. The old sets are not
// modified.
func (fs *FileSet) shiftWorkingSets(r *rng.RNG, old []WorkingSet, fraction float64,
	meanRegionBlocks float64) ([]WorkingSet, error) {
	if badFraction(fraction) {
		return nil, fmt.Errorf("tracegen: shift fraction %v out of [0,1]", fraction)
	}
	s := fs.newRegionSampler(old[0].TotalBlocks, meanRegionBlocks)
	sets := make([]WorkingSet, len(old))
	regs := make([]Region, 0, len(old)*s.perSet)
	for i, ws := range old {
		from := len(regs)
		dropTarget := int64(fraction * float64(ws.TotalBlocks))
		var dropped, kept int64
		for _, reg := range ws.Regions {
			if dropped < dropTarget {
				dropped += int64(reg.Blocks)
				continue
			}
			regs = append(regs, reg)
			kept += int64(reg.Blocks)
		}
		regs, sets[i].TotalBlocks = s.fill(r, regs, from, kept, ws.TotalBlocks)
		sets[i].Regions = regs[from:]
	}
	carveSets(sets, regs)
	return sets, nil
}

// carveSets points each set at its own run of regs, in order, each set's
// Regions giving only its length so far, and builds every set's sampling
// index in one shared array.
func carveSets(sets []WorkingSet, regs []Region) {
	cum := make([]float64, len(regs))
	off := 0
	for i := range sets {
		end := off + len(sets[i].Regions)
		sets[i].Regions, sets[i].cum = regs[off:end:end], cum[off:end:end]
		sets[i].buildIndex()
		off = end
	}
}

// buildIndex fills ws.cum, which has one slot per region.
func (ws *WorkingSet) buildIndex() {
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

// sampleRegion draws a region weighted by size (see buildIndex).
func (ws *WorkingSet) sampleRegion(r *rng.RNG) *Region {
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

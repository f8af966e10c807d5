package tracegen

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/trace"
)

// Config drives trace generation. The defaults mirror the paper's baseline
// traces (§4): one host, eight threads, one working set, 80% of I/Os from
// the working set, 30% writes, volume 4x the working set with the first
// half used as warmup.
type Config struct {
	Seed uint64

	Hosts          int
	ThreadsPerHost int

	// WorkingSetBlocks is the per-working-set size. With SharedWorkingSet
	// all hosts draw from one working set (the paper's worst-case
	// consistency scenario); otherwise each host gets its own.
	WorkingSetBlocks int64
	SharedWorkingSet bool

	// WorkingSetFraction of I/Os come from the working set; the rest
	// sample the whole file server.
	WorkingSetFraction float64

	// WriteFraction of I/Os are writes.
	WriteFraction float64

	// TotalBlocks is the trace volume in blocks; zero defaults to
	// 4x the aggregate working set size.
	TotalBlocks int64

	// MeanIOBlocks is the Poisson mean request size; 0 selects 4.
	MeanIOBlocks float64

	// MeanRegionBlocks is the Poisson mean working-set region size.
	MeanRegionBlocks float64

	FileSet *FileSet
}

// Validate checks the configuration and applies defaults.
func (c *Config) Validate() error {
	if c.FileSet == nil {
		return fmt.Errorf("tracegen: nil file set")
	}
	if c.Hosts < 1 || c.Hosts > 1<<16 {
		return fmt.Errorf("tracegen: hosts %d out of range", c.Hosts)
	}
	if c.ThreadsPerHost < 1 || c.ThreadsPerHost > 1<<16 {
		return fmt.Errorf("tracegen: threads %d out of range", c.ThreadsPerHost)
	}
	if c.WorkingSetBlocks <= 0 {
		return fmt.Errorf("tracegen: working set size must be positive")
	}
	if f := c.WorkingSetFraction; math.IsNaN(f) || f < 0 || f > 1 {
		return fmt.Errorf("tracegen: working set fraction %v out of [0,1]", f)
	}
	if f := c.WriteFraction; math.IsNaN(f) || f < 0 || f > 1 {
		return fmt.Errorf("tracegen: write fraction %v out of [0,1]", f)
	}
	// A NaN mean would never end rng.Poisson's loop.
	if m := c.MeanIOBlocks; math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
		return fmt.Errorf("tracegen: mean I/O size %v must be finite and non-negative", m)
	}
	if c.MeanIOBlocks == 0 {
		c.MeanIOBlocks = 4
	}
	if c.TotalBlocks < 0 {
		return fmt.Errorf("tracegen: negative trace volume %d", c.TotalBlocks)
	}
	if c.MeanRegionBlocks <= 0 {
		c.MeanRegionBlocks = 64
	}
	if c.TotalBlocks == 0 {
		sets := int64(c.Hosts)
		if c.SharedWorkingSet {
			sets = 1
		}
		c.TotalBlocks = 4 * c.WorkingSetBlocks * sets
	}
	return nil
}

// Generator streams synthetic trace operations; it implements trace.Source.
type Generator struct {
	cfg      Config
	rnd      *rng.RNG
	sets     []*WorkingSet // per host, or a single shared one
	emitted  int64         // blocks emitted so far
	warmupAt int64         // blocks after which stats should start
}

// NewGenerator samples working sets and returns a streaming generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	g := &Generator{cfg: cfg, rnd: r}
	nsets := cfg.Hosts
	if cfg.SharedWorkingSet {
		nsets = 1
	}
	for i := 0; i < nsets; i++ {
		ws, err := cfg.FileSet.sampleWorkingSet(r.Fork(), cfg.WorkingSetBlocks, cfg.MeanRegionBlocks)
		if err != nil {
			return nil, err
		}
		g.sets = append(g.sets, ws)
	}
	g.warmupAt = cfg.TotalBlocks / 2
	return g, nil
}

// WarmupBlocks returns the volume (in blocks) of the warmup prefix: half
// the trace, per the paper.
func (g *Generator) WarmupBlocks() int64 { return g.warmupAt }

// TotalBlocks returns the configured trace volume.
func (g *Generator) TotalBlocks() int64 { return g.cfg.TotalBlocks }

// WorkingSet returns host h's working set.
func (g *Generator) WorkingSet(h int) *WorkingSet {
	if g.cfg.SharedWorkingSet {
		return g.sets[0]
	}
	return g.sets[h]
}

// --- phase-aware mutation -------------------------------------------------
//
// The scenario engine reshapes a live workload between phases: the write
// mix, locality, thread population, sharing mode and working-set contents
// may all change mid-trace. Mutators take effect on the next Next call and
// draw only from the generator's own seeded stream (ShiftWorkingSets
// consumes from it; the others leave it alone), so a scenario replayed
// with the same seed and the same mutation sequence is byte-identical.

// badFraction reports a fraction outside [0,1]; NaN fails every
// comparison, so it is checked explicitly.
func badFraction(f float64) bool { return math.IsNaN(f) || f < 0 || f > 1 }

// SetWriteFraction changes the fraction of I/Os that are writes.
func (g *Generator) SetWriteFraction(f float64) error {
	if badFraction(f) {
		return fmt.Errorf("tracegen: write fraction %v out of [0,1]", f)
	}
	g.cfg.WriteFraction = f
	return nil
}

// SetWorkingSetFraction changes the fraction of I/Os drawn from the
// working set (the rest sample the whole file server).
func (g *Generator) SetWorkingSetFraction(f float64) error {
	if badFraction(f) {
		return fmt.Errorf("tracegen: working set fraction %v out of [0,1]", f)
	}
	g.cfg.WorkingSetFraction = f
	return nil
}

// SetActiveThreads changes the number of application threads issuing I/O
// per host. Raising it above the initial count is allowed: thread IDs are
// logical, so new IDs simply appear in the trace.
func (g *Generator) SetActiveThreads(n int) error {
	if n < 1 || n > 1<<16 {
		return fmt.Errorf("tracegen: threads %d out of range", n)
	}
	g.cfg.ThreadsPerHost = n
	return nil
}

// SetSharedWorkingSet switches between one shared working set (all hosts
// draw from set 0) and per-host working sets. Switching to private mode
// requires the generator to have been built with per-host sets.
func (g *Generator) SetSharedWorkingSet(shared bool) error {
	if !shared && g.cfg.Hosts > 1 && len(g.sets) < g.cfg.Hosts {
		return fmt.Errorf("tracegen: cannot switch to private working sets: generator was built shared")
	}
	g.cfg.SharedWorkingSet = shared
	return nil
}

// ShiftWorkingSets replaces roughly the given fraction of every working
// set's blocks with freshly sampled regions, modeling working-set drift.
// The sets' total sizes are preserved.
func (g *Generator) ShiftWorkingSets(fraction float64) error {
	if badFraction(fraction) {
		return fmt.Errorf("tracegen: shift fraction %v out of [0,1]", fraction)
	}
	for i, ws := range g.sets {
		shifted, err := g.cfg.FileSet.shiftWorkingSet(g.rnd, ws, fraction, g.cfg.MeanRegionBlocks)
		if err != nil {
			return err
		}
		g.sets[i] = shifted
	}
	return nil
}

// Next implements trace.Source.
func (g *Generator) Next() (trace.Op, bool) {
	if g.emitted >= g.cfg.TotalBlocks {
		return trace.Op{}, false
	}
	host := g.rnd.Intn(g.cfg.Hosts)
	thread := g.rnd.Intn(g.cfg.ThreadsPerHost)

	var file uint32
	var start, count uint32
	n := uint32(g.rnd.Poisson(g.cfg.MeanIOBlocks))
	if n == 0 {
		n = 1
	}
	if g.rnd.Bool(g.cfg.WorkingSetFraction) {
		reg := g.WorkingSet(host).sampleRegion(g.rnd)
		file = reg.File
		if n > reg.Blocks {
			n = reg.Blocks
		}
		off := uint32(0)
		if reg.Blocks > n {
			off = uint32(g.rnd.Intn(int(reg.Blocks - n + 1)))
		}
		start = reg.Start + off
		count = n
	} else {
		f := g.cfg.FileSet.sampleFile(g.rnd)
		file = f.ID
		if n > f.Blocks {
			n = f.Blocks
		}
		if f.Blocks > n {
			start = uint32(g.rnd.Intn(int(f.Blocks - n + 1)))
		}
		count = n
	}

	kind := trace.Read
	if g.rnd.Bool(g.cfg.WriteFraction) {
		kind = trace.Write
	}
	g.emitted += int64(count)
	return trace.Op{
		Host:   uint16(host),
		Thread: uint16(thread),
		Kind:   kind,
		File:   file,
		Block:  start,
		Count:  count,
	}, true
}

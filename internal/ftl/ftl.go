// Package ftl simulates the internals of a consumer SSD: a page-mapped
// flash translation layer with over-provisioning, a device write buffer,
// greedy garbage collection and erase cycles.
//
// The paper measured two real consumer SSDs (§6.2) and found (a) a single
// flat average write latency across the device lifetime, (b) read latency
// that fluctuates and degrades weakly as write volume accumulates, and (c)
// high short-term variance that averages out per 10k I/Os (Figure 1). We
// cannot buy their SSDs, so this package substitutes a mechanistic model:
// writes are acknowledged from the device buffer at a constant cost, while
// the background program and garbage-collection traffic they generate
// competes with reads for the NAND die. As the device fills, garbage
// collection moves more valid pages per reclaimed block (higher write
// amplification), so reads queue longer — reproducing Figure 1's shape from
// mechanics rather than curve-fitting.
package ftl

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Config describes the simulated SSD geometry and timings.
type Config struct {
	EraseBlocks   int // physical erase blocks
	PagesPerBlock int // pages (4 KiB) per erase block
	// OverProvision is the fraction of physical pages hidden from the
	// host; logical capacity = physical * (1 - OverProvision).
	OverProvision float64

	PageReadLat    sim.Time // NAND page read occupancy
	PageProgramLat sim.Time // NAND page program occupancy
	EraseLat       sim.Time // NAND block erase occupancy
	WriteAckLat    sim.Time // host write acknowledge (buffer insert)

	// GCFreeBlocksLowWater triggers garbage collection when the free
	// block pool shrinks to this size.
	GCFreeBlocksLowWater int

	// LatencyJitter is the coefficient of variation of multiplicative
	// lognormal noise applied to NAND operation times, modeling the
	// short-term variance the paper observed. Zero disables noise.
	LatencyJitter float64

	Seed uint64
}

// DefaultConfig returns a geometry sized in 4 KiB pages for the given
// logical capacity in blocks, with timings consistent with the paper's
// Table 1 (88 us reads, 21 us buffered write ack). Erase blocks are 1 MiB
// unless that leaves fewer than 8: a tiny device (tests, extreme scales)
// gets at least 8 blocks of 32 pages, so garbage collection still has
// room.
func DefaultConfig(logicalPages int) Config {
	const overProvision = 0.07 // consumer-grade
	physPages := int(float64(logicalPages) / (1 - overProvision))
	pagesPerBlock := 256
	phys := physPages/pagesPerBlock + 2
	if phys < 8 {
		pagesPerBlock = 32
		phys = max(8, physPages/pagesPerBlock+2)
	}
	return Config{
		EraseBlocks:          phys,
		PagesPerBlock:        pagesPerBlock,
		OverProvision:        overProvision,
		PageReadLat:          60 * sim.Microsecond,
		PageProgramLat:       180 * sim.Microsecond,
		EraseLat:             1500 * sim.Microsecond,
		WriteAckLat:          21 * sim.Microsecond,
		GCFreeBlocksLowWater: 2,
		LatencyJitter:        0.25,
		Seed:                 1,
	}
}

const (
	invalidPPN = int32(-1)
	invalidLPN = int32(-1)
)

// Device is a simulated SSD.
type Device struct {
	cfg Config
	eng *sim.Engine
	die sim.Server
	rnd *rng.RNG

	logicalPages int
	mapping      []int32 // LPN -> PPN
	reverse      []int32 // PPN -> LPN, invalidLPN when free/stale
	valid        []int   // per erase block, count of valid pages
	erases       []int   // per erase block, erase count (wear)

	freeBlocks []int // block indices with all pages free
	openBlock  int   // block currently being programmed
	writePtr   int   // next free page within openBlock

	// Statistics.
	hostWrites   uint64
	nandPrograms uint64
	eraseCount   uint64
}

// NewDevice builds the device and its free-block pool.
func NewDevice(eng *sim.Engine, cfg Config) (*Device, error) {
	if cfg.EraseBlocks < 3 {
		return nil, fmt.Errorf("ftl: need at least 3 erase blocks, got %d", cfg.EraseBlocks)
	}
	if cfg.PagesPerBlock <= 0 {
		return nil, fmt.Errorf("ftl: pages per block must be positive")
	}
	if cfg.OverProvision < 0 || cfg.OverProvision >= 0.5 {
		return nil, fmt.Errorf("ftl: over-provision %v out of range [0, 0.5)", cfg.OverProvision)
	}
	if cfg.GCFreeBlocksLowWater < 1 {
		return nil, fmt.Errorf("ftl: GC low water must be >= 1")
	}
	physPages := cfg.EraseBlocks * cfg.PagesPerBlock
	logical := int(float64(physPages) * (1 - cfg.OverProvision))
	// Keep at least one block's worth of slack beyond the low-water pool
	// so GC always has a destination.
	maxLogical := physPages - (cfg.GCFreeBlocksLowWater+1)*cfg.PagesPerBlock
	if logical > maxLogical {
		logical = maxLogical
	}
	if logical <= 0 {
		return nil, fmt.Errorf("ftl: geometry too small for over-provisioning")
	}
	d := &Device{
		cfg:          cfg,
		eng:          eng,
		rnd:          rng.New(cfg.Seed),
		logicalPages: logical,
		mapping:      make([]int32, logical),
		reverse:      make([]int32, physPages),
		valid:        make([]int, cfg.EraseBlocks),
		erases:       make([]int, cfg.EraseBlocks),
	}
	d.die.Init(eng)
	for i := range d.mapping {
		d.mapping[i] = invalidPPN
	}
	for i := range d.reverse {
		d.reverse[i] = invalidLPN
	}
	for b := cfg.EraseBlocks - 1; b >= 1; b-- {
		d.freeBlocks = append(d.freeBlocks, b)
	}
	d.openBlock = 0
	d.writePtr = 0
	return d, nil
}

// LogicalPages returns the host-visible capacity in 4 KiB pages.
func (d *Device) LogicalPages() int { return d.logicalPages }

func (d *Device) jitter(t sim.Time) sim.Time {
	if d.cfg.LatencyJitter <= 0 {
		return t
	}
	f := 1 + d.cfg.LatencyJitter*d.rnd.NormFloat64()
	if f < 0.3 {
		f = 0.3
	}
	return sim.Time(float64(t) * f)
}

// Read2 services a host read of logical page lpn and runs fn(arg) at
// completion; fn is a static func(any), and a nil fn schedules the
// engine's shared placeholder. The host-observed latency, queueing behind
// background NAND work included, is the engine time at completion minus
// the time of the call, which a caller can keep in arg.
func (d *Device) Read2(lpn int, fn func(any), arg any) {
	if lpn < 0 || lpn >= d.logicalPages {
		panic(fmt.Sprintf("ftl: read of LPN %d out of range", lpn))
	}
	if d.mapping[lpn] == invalidPPN {
		// Unwritten page: device returns zeroes without touching NAND.
		d.eng.Schedule2(d.jitter(d.cfg.WriteAckLat/2), fn, arg)
		return
	}
	d.die.Use2(d.jitter(d.cfg.PageReadLat), fn, arg)
}

// Write2 services a host write of logical page lpn, completing like
// Read2. The host is acknowledged after the buffer-insert latency; the
// NAND program (and any garbage collection it forces) proceeds in the
// background on the die.
func (d *Device) Write2(lpn int, fn func(any), arg any) {
	if lpn < 0 || lpn >= d.logicalPages {
		panic(fmt.Sprintf("ftl: write of LPN %d out of range", lpn))
	}
	d.hostWrites++
	d.eng.Schedule2(d.jitter(d.cfg.WriteAckLat), fn, arg)
	d.program(lpn)
	d.maybeGC()
}

// program maps lpn to the next free physical page and enqueues the NAND
// program on the die.
func (d *Device) program(lpn int) {
	if d.writePtr >= d.cfg.PagesPerBlock {
		d.advanceOpenBlock()
	}
	// Invalidate the previous mapping.
	if old := d.mapping[lpn]; old != invalidPPN {
		blk := int(old) / d.cfg.PagesPerBlock
		d.valid[blk]--
		d.reverse[old] = invalidLPN
	}
	ppn := int32(d.openBlock*d.cfg.PagesPerBlock + d.writePtr)
	d.writePtr++
	d.mapping[lpn] = ppn
	d.reverse[ppn] = int32(lpn)
	d.valid[d.openBlock]++
	d.nandPrograms++
	d.die.Use2(d.jitter(d.cfg.PageProgramLat), nil, nil)
}

func (d *Device) advanceOpenBlock() {
	if len(d.freeBlocks) == 0 {
		panic("ftl: out of free blocks (GC failed to keep up)")
	}
	d.openBlock = d.freeBlocks[len(d.freeBlocks)-1]
	d.freeBlocks = d.freeBlocks[:len(d.freeBlocks)-1]
	d.writePtr = 0
}

// maybeGC runs greedy garbage collection until the free pool is above the
// low-water mark. Victim selection is min-valid-pages (greedy); each valid
// page costs a NAND read and a program, and the block costs an erase.
func (d *Device) maybeGC() {
	for len(d.freeBlocks) < d.cfg.GCFreeBlocksLowWater {
		victim := d.pickVictim()
		if victim < 0 {
			return // nothing reclaimable
		}
		base := victim * d.cfg.PagesPerBlock
		for p := 0; p < d.cfg.PagesPerBlock; p++ {
			lpn := d.reverse[base+p]
			if lpn == invalidLPN {
				continue
			}
			// Relocate: NAND read + program.
			d.die.Use2(d.jitter(d.cfg.PageReadLat), nil, nil)
			d.program(int(lpn))
		}
		if d.valid[victim] != 0 {
			panic("ftl: victim still has valid pages after relocation")
		}
		d.eraseCount++
		d.erases[victim]++
		d.die.Use2(d.jitter(d.cfg.EraseLat), nil, nil)
		d.freeBlocks = append(d.freeBlocks, victim)
	}
}

// pickVictim returns the closed block with the fewest valid pages, or -1.
func (d *Device) pickVictim() int {
	best, bestValid := -1, d.cfg.PagesPerBlock+1
	for b := 0; b < d.cfg.EraseBlocks; b++ {
		if b == d.openBlock {
			continue
		}
		if d.isFree(b) {
			continue
		}
		if d.valid[b] < bestValid {
			best, bestValid = b, d.valid[b]
		}
	}
	if bestValid >= d.cfg.PagesPerBlock {
		// Relocating a fully valid block makes no progress.
		return -1
	}
	return best
}

func (d *Device) isFree(b int) bool {
	for _, fb := range d.freeBlocks {
		if fb == b {
			return true
		}
	}
	return false
}

// writeAmplification returns total NAND programs divided by host writes.
func (d *Device) writeAmplification() float64 {
	if d.hostWrites == 0 {
		return 0
	}
	return float64(d.nandPrograms) / float64(d.hostWrites)
}

// Stats snapshot.
type Stats struct {
	HostWrites, NANDPrograms uint64
	Erases                   uint64
	WriteAmplification       float64
	MaxErase, MinErase       int
	DieBusy                  sim.Time
	LogicalPages             int
}

// Snapshot returns current device statistics.
func (d *Device) Snapshot() Stats {
	s := Stats{
		HostWrites:         d.hostWrites,
		NANDPrograms:       d.nandPrograms,
		Erases:             d.eraseCount,
		WriteAmplification: d.writeAmplification(),
		DieBusy:            d.die.Busy(),
		LogicalPages:       d.logicalPages,
	}
	s.MinErase = 1 << 30
	for _, e := range d.erases {
		if e > s.MaxErase {
			s.MaxErase = e
		}
		if e < s.MinErase {
			s.MinErase = e
		}
	}
	return s
}

// CheckInvariants validates mapping/reverse/valid consistency.
func (d *Device) CheckInvariants() error {
	validCount := make([]int, d.cfg.EraseBlocks)
	mapped := 0
	for lpn, ppn := range d.mapping {
		if ppn == invalidPPN {
			continue
		}
		mapped++
		if d.reverse[ppn] != int32(lpn) {
			return fmt.Errorf("LPN %d -> PPN %d, but reverse says %d", lpn, ppn, d.reverse[ppn])
		}
		validCount[int(ppn)/d.cfg.PagesPerBlock]++
	}
	for b, v := range validCount {
		if v != d.valid[b] {
			return fmt.Errorf("block %d valid count %d, recorded %d", b, v, d.valid[b])
		}
	}
	for _, fb := range d.freeBlocks {
		if d.valid[fb] != 0 {
			return fmt.Errorf("free block %d has %d valid pages", fb, d.valid[fb])
		}
	}
	return nil
}

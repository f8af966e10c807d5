package core

import (
	"repro/internal/blockdev"
	"repro/internal/cache"
	"repro/internal/ftl"
	"repro/internal/sim"
)

// FlashDev abstracts the flash cache device. The paper's model is a fixed
// average access latency per block (§5, §6.2); the FTL-backed variant is
// the repository's extension toward the paper's future work ("flash
// caching is a good candidate for a custom flash translation layer", §8):
// it routes every cache access through a page-mapped FTL with garbage
// collection, so device-level contention, write amplification and wear
// emerge instead of being assumed away.
type FlashDev interface {
	// Read2 and Write2 access one block: fn is a static func(any) run
	// with arg at completion; a nil fn still schedules a placeholder
	// completion so a drained engine means idle hardware.
	Read2(key cache.Key, fn func(any), arg any)
	Write2(key cache.Key, fn func(any), arg any)
	Reads() uint64
	Writes() uint64
	Utilisation() float64
}

// fixedFlashDev adapts the paper's average-latency device.
type fixedFlashDev struct {
	d *blockdev.FlashDevice
}

func (f fixedFlashDev) Read2(_ cache.Key, fn func(any), a any)  { f.d.Read2(fn, a) }
func (f fixedFlashDev) Write2(_ cache.Key, fn func(any), a any) { f.d.Write2(fn, a) }
func (f fixedFlashDev) Reads() uint64                           { return f.d.Reads() }
func (f fixedFlashDev) Writes() uint64                          { return f.d.Writes() }
func (f fixedFlashDev) Utilisation() float64                    { return f.d.Utilisation() }

// ftlFlashDev routes cache traffic through the FTL simulator. Cache block
// keys are hashed onto the device's logical page space; the hash only
// shapes the device-level access pattern, never data correctness (the
// simulator is content-free).
type ftlFlashDev struct {
	eng        *sim.Engine
	dev        *ftl.Device
	persistent bool
	reads      uint64
	writes     uint64
}

func newFTLFlashDev(eng *sim.Engine, blocks int, persistent bool, seed uint64) (*ftlFlashDev, error) {
	cfg := ftl.DefaultConfig(blocks)
	cfg.Seed = seed
	dev, err := ftl.NewDevice(eng, cfg)
	if err != nil {
		return nil, err
	}
	return &ftlFlashDev{eng: eng, dev: dev, persistent: persistent}, nil
}

// mix is SplitMix64's output function, spreading block keys over the LPN
// space so adjacent file blocks do not all land in one erase block.
func mix(key cache.Key) uint64 {
	z := uint64(key) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (f *ftlFlashDev) lpn(key cache.Key) int {
	return int(mix(key) % uint64(f.dev.LogicalPages()))
}

func (f *ftlFlashDev) Read2(key cache.Key, fn func(any), arg any) {
	f.reads++
	f.dev.Read2(f.lpn(key), fn, arg)
}

func (f *ftlFlashDev) Write2(key cache.Key, fn func(any), arg any) {
	f.writes++
	lpn := f.lpn(key)
	if f.persistent {
		// The recoverable cache journals its index next to the data:
		// one extra page write in a metadata region (§7.8's "two flash
		// writes per block", realised at the FTL level).
		meta := (lpn + f.dev.LogicalPages()/2) % f.dev.LogicalPages()
		f.dev.Write2(meta, nil, nil)
	}
	f.dev.Write2(lpn, fn, arg)
}

func (f *ftlFlashDev) Reads() uint64  { return f.reads }
func (f *ftlFlashDev) Writes() uint64 { return f.writes }

func (f *ftlFlashDev) Utilisation() float64 {
	if f.eng.Now() == 0 {
		return 0
	}
	u := float64(f.dev.Snapshot().DieBusy) / float64(f.eng.Now())
	if u > 1 {
		u = 1
	}
	return u
}

// FTLSnapshot exposes device internals when the host is FTL-backed; the
// second return is false for the fixed-latency device.
func (h *Host) FTLSnapshot() (ftl.Stats, bool) {
	if f, ok := h.flashIO.(*ftlFlashDev); ok {
		return f.dev.Snapshot(), true
	}
	return ftl.Stats{}, false
}

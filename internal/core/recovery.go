package core

import (
	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/sim"
)

// This file implements the recovery phase the paper declined to simulate
// (§7.8: "We did not attempt to simulate the recovery phase."). A
// persistent flash cache that survives a crash is not instantly usable:
// its index metadata must be scanned and verified, and any dirty blocks
// that died with the crash must be written back to the filer before the
// cache can participate again (§3.8: "a recoverable cache is unavailable
// during a reboot; it cannot flush dirty data or participate in cache
// consistency protocols until afterwards").

// metadataBlocksPerRead is how many block descriptors one 4 KiB metadata
// page holds during the recovery scan: a descriptor is a (file, block,
// flags, checksum) tuple of ~64 bytes.
const metadataBlocksPerRead = 64

// Prefill populates the flash cache with surviving blocks, marking the
// given fraction dirty, without advancing simulated time — this is the
// state the crash left on the device. A lookaside flash cache never holds
// dirty data, so its blocks all survive clean. Layered architectures only
// (the unified cache's RAM half cannot survive a crash, so a recoverable
// unified cache is not meaningful).
func (h *Host) Prefill(keys []cache.Key, dirtyFraction float64, rnd *rng.RNG) int {
	if h.flash == nil || h.flash.Capacity() == 0 {
		return 0
	}
	n := 0
	for _, key := range keys {
		if h.flash.NeedsEviction() {
			break
		}
		if h.flash.Peek(key) != nil {
			continue
		}
		e, _ := h.tryInsert(tierFlash, key)
		if h.cfg.Arch != Lookaside && rnd.Bool(dirtyFraction) {
			h.flash.MarkDirty(e)
		}
		n++
	}
	return n
}

// Recover scans the cache's on-flash metadata and flushes crash-surviving
// dirty blocks to the filer, then calls done. The host must not serve
// requests until done fires; the driver is started from the callback. The
// returned block count is the number of dirty blocks flushed.
//
// The scan costs one flash read per metadata page; flushes ride the
// background lane (they still occupy the network and filer). Lookaside
// caches never hold dirty data, so they only pay the scan.
func (h *Host) Recover(done func()) (dirtyFlushed int) {
	if h.flash == nil || h.flash.Capacity() == 0 {
		h.eng.Schedule(0, done)
		return 0
	}
	resident := h.flash.Len()
	scanReads := (resident + metadataBlocksPerRead - 1) / metadataBlocksPerRead
	dirty := h.reqs.dirtyOf(h.flash)
	dirtyFlushed = len(dirty)

	join := sim.NewJoin(scanReads+len(dirty), done)
	for i := 0; i < scanReads; i++ {
		// Metadata pages are addressed outside the data key space; the
		// key only shapes FTL-backed device placement.
		h.flashIO.Read2(cache.Key(^uint64(i)), joinDone, join)
	}
	for _, e := range dirty {
		h.propagate(moveToFiler, tierFlash, e.Key(), e, e.Gen(), bgLane, cont{joinDone, join}, 0)
	}
	return dirtyFlushed
}

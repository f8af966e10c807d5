package core

import "repro/internal/stats"

// HostStats accumulates per-host application-level measurements. All
// fields are gated by the warmup logic: nothing is recorded until the
// driver enables collection (paper §4: half of each trace is warmup).
type HostStats struct {
	// ReadLat and WriteLat are application-observed per-block latencies,
	// the paper's governing metric (§7).
	ReadLat  stats.LatencyAccum
	WriteLat stats.LatencyAccum

	// ReadHist and WriteHist bucket the same samples for percentile
	// reporting (tail behaviour is invisible in the paper's means).
	ReadHist  stats.Histogram
	WriteHist stats.Histogram

	// Tier outcomes for reads.
	RAMHits     uint64
	RAMMisses   uint64
	FlashHits   uint64
	FlashMisses uint64

	// Traffic counters.
	FilerFetches    uint64 // demand fetches issued to the filer
	FilerWritebacks uint64 // dirty blocks written back to the filer
	FlashFills      uint64 // clean fills installed into flash
	FlashWritebacks uint64 // dirty RAM blocks written down to flash
	SyncEvictions   uint64 // evictions that had to write back synchronously
	CoalescedSkips  uint64 // syncer flushes skipped (writeback in flight)
	EvictionRetries uint64 // eviction stalls (all victims pinned)
	BlocksRead      uint64
	BlocksWritten   uint64
}

// ReadHitRateRAM returns RAM hits over all reads.
func (s *HostStats) ReadHitRateRAM() float64 {
	total := s.RAMHits + s.RAMMisses
	if total == 0 {
		return 0
	}
	return float64(s.RAMHits) / float64(total)
}

// ReadHitRateFlash returns flash hits over reads that missed RAM.
func (s *HostStats) ReadHitRateFlash() float64 {
	total := s.FlashHits + s.FlashMisses
	if total == 0 {
		return 0
	}
	return float64(s.FlashHits) / float64(total)
}

// Merge folds other into s (multi-host aggregation).
func (s *HostStats) Merge(other *HostStats) {
	s.ReadLat.Merge(&other.ReadLat)
	s.WriteLat.Merge(&other.WriteLat)
	s.ReadHist.Merge(&other.ReadHist)
	s.WriteHist.Merge(&other.WriteHist)
	s.RAMHits += other.RAMHits
	s.RAMMisses += other.RAMMisses
	s.FlashHits += other.FlashHits
	s.FlashMisses += other.FlashMisses
	s.FilerFetches += other.FilerFetches
	s.FilerWritebacks += other.FilerWritebacks
	s.FlashFills += other.FlashFills
	s.FlashWritebacks += other.FlashWritebacks
	s.SyncEvictions += other.SyncEvictions
	s.CoalescedSkips += other.CoalescedSkips
	s.EvictionRetries += other.EvictionRetries
	s.BlocksRead += other.BlocksRead
	s.BlocksWritten += other.BlocksWritten
}

// Package core implements the paper's primary contribution: the client-side
// cache stack combining the operating system's RAM buffer cache with a
// flash cache, in the three architectures of §3.3 (naive, lookaside,
// unified) under the seven writeback policies of §3.5 applied independently
// to each tier.
package core

import (
	"errors"
	"fmt"

	"repro/internal/cache"
)

var (
	errNegativeTiming  = errors.New("core: negative timing parameter")
	errBadPrefetchRate = errors.New("core: filer fast read rate out of [0,1]")
)

// Architecture selects how the flash cache integrates with the RAM cache.
type Architecture uint8

// Architectures (paper §3.3).
const (
	// Naive treats flash as an independent cache layer beneath RAM: the
	// RAM cache is a subset of the flash cache; RAM writebacks go to
	// flash and flash writebacks go to the filer.
	Naive Architecture = iota
	// Lookaside is modeled on NetApp Mercury: writes go directly from
	// RAM to the filer; the flash copy is updated after the filer and
	// never holds dirty data.
	Lookaside
	// Unified manages RAM and flash as a single LRU chain; blocks land
	// in the least-recently-used buffer and never migrate.
	Unified
)

// ParseArchitecture parses "naive", "lookaside" or "unified".
func ParseArchitecture(s string) (Architecture, error) {
	switch s {
	case "naive":
		return Naive, nil
	case "lookaside":
		return Lookaside, nil
	case "unified":
		return Unified, nil
	default:
		return 0, fmt.Errorf("core: unknown architecture %q", s)
	}
}

// String returns the architecture's name as ParseArchitecture accepts it.
func (a Architecture) String() string {
	switch a {
	case Naive:
		return "naive"
	case Lookaside:
		return "lookaside"
	case Unified:
		return "unified"
	default:
		return fmt.Sprintf("arch(%d)", uint8(a))
	}
}

// HostConfig describes one compute server's cache stack.
type HostConfig struct {
	ID int

	// RAMBlocks and FlashBlocks size the two cache tiers in 4 KiB
	// blocks. Either may be zero.
	RAMBlocks   int
	FlashBlocks int

	Arch        Architecture
	RAMPolicy   Policy
	FlashPolicy Policy

	// FlashReplacement selects the flash tier's replacement policy for
	// the layered architectures. The paper fixes LRU (§1); the
	// alternatives (FIFO, CLOCK, SLRU, 2Q) support the repository's
	// replacement extension study. The RAM tier and the unified cache
	// always use LRU, as in the paper.
	FlashReplacement cache.ReplacementKind

	// PersistentFlash makes the flash cache recoverable: every flash
	// data write carries a metadata write, modeled as doubled write
	// latency (§7.8).
	PersistentFlash bool

	// FTLBacked routes flash cache traffic through the page-mapped FTL
	// simulator instead of the fixed-latency device, so garbage
	// collection, write amplification and wear emerge. Extension toward
	// the paper's future work (§8).
	FTLBacked bool
}

// Validate reports configuration errors.
func (c HostConfig) Validate() error {
	if c.ID < 0 {
		return fmt.Errorf("core: negative host ID")
	}
	if c.RAMBlocks < 0 || c.FlashBlocks < 0 {
		return fmt.Errorf("core: negative cache size")
	}
	if c.Arch > Unified {
		return fmt.Errorf("core: unknown architecture %d", c.Arch)
	}
	if c.FlashReplacement > cache.Replace2Q {
		return fmt.Errorf("core: unknown flash replacement %v", c.FlashReplacement)
	}
	if err := c.RAMPolicy.validate(); err != nil {
		return fmt.Errorf("core: RAM policy: %w", err)
	}
	if err := c.FlashPolicy.validate(); err != nil {
		return fmt.Errorf("core: flash policy: %w", err)
	}
	return nil
}

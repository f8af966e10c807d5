package core

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/rng"
	"repro/internal/sim"
)

// tierKeys bounds every key TestTierInvariantsAcrossFaultHooks touches.
const tierKeys = 8 + 256

// checkTiers asserts the cross-tier invariants every architecture keeps at
// a quiescent instant: each tier's own books balance, a naive host's clean
// RAM blocks are backed by flash (RAM ⊆ flash), and a lookaside flash
// cache holds no dirty data.
func checkTiers(t *testing.T, h *Host, step string) {
	t.Helper()
	for tr, c := range h.tiers {
		if c == nil {
			continue
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: tier %d: %v", step, tr, err)
		}
	}
	switch h.cfg.Arch {
	case Naive:
		for k := cache.Key(0); k < tierKeys; k++ {
			if e := h.ram.Peek(k); e != nil && !e.Dirty && h.flash.Peek(k) == nil {
				t.Errorf("%s: clean RAM block %d has no flash copy", step, k)
			}
		}
	case Lookaside:
		if n := h.flash.DirtyLen(); n != 0 {
			t.Errorf("%s: lookaside flash holds %d dirty blocks", step, n)
		}
	}
}

// TestTierInvariantsAcrossFaultHooks drives a host of each architecture
// through mixed reads and writes with steady eviction, then through the
// scenario fault hooks — Crash, Flush(0.5) and DropColdest — checking the
// tier invariants after every step, and checks a layered host's
// recovered-start prefill too.
func TestTierInvariantsAcrossFaultHooks(t *testing.T) {
	for _, arch := range []Architecture{Naive, Lookaside, Unified} {
		for _, pol := range []struct {
			name       string
			ram, flash Policy
		}{
			{"periodic/async", Policy{Kind: Periodic, Period: 10 * sim.Millisecond}, PolicyAsync},
			{"none/none", PolicyNone, PolicyNone},
		} {
			t.Run(arch.String()+"/"+pol.name, func(t *testing.T) {
				cfg := baseCfg(arch)
				cfg.RAMBlocks = 16
				cfg.FlashBlocks = 64
				cfg.RAMPolicy, cfg.FlashPolicy = pol.ram, pol.flash
				cfg.PersistentFlash = arch != Unified
				r := newRig(t, cfg, testTiming())
				h := r.host

				// Every other access reads a hot set that lives in RAM;
				// the rest read and write a span four times the flash, so
				// flash evicts blocks RAM still holds.
				const hot, span = 8, 256
				drive := func(step string) {
					for i := 0; i < 4*span; i++ {
						switch {
						case i%2 == 0:
							h.read(cache.Key(i/2%hot), cont{})
						case i%3 == 0:
							h.write(cache.Key(hot+i*7%span), cont{})
						default:
							h.read(cache.Key(hot+i*7%span), cont{})
						}
						r.eng.RunUntil(r.eng.Now() + sim.Millisecond)
					}
					r.eng.Run()
					checkTiers(t, h, step)
				}

				drive("drive")
				if h.DirtyBlocks() == 0 && pol.ram.Kind == None {
					t.Fatal("none/none left no dirty blocks to exercise")
				}
				h.Crash()
				checkTiers(t, h, "crash")
				if arch != Unified && h.flash.Len() == 0 {
					t.Error("persistent flash lost its contents in the crash")
				}

				drive("re-drive")
				flushed := false
				dirty := h.DirtyBlocks()
				resident := h.ResidentBlocks()
				h.Flush(0.5, func() { flushed = true })
				r.eng.Run()
				if !flushed {
					t.Fatal("Flush never completed")
				}
				checkTiers(t, h, fmt.Sprintf("flush (%d dirty)", dirty))
				if got := h.ResidentBlocks(); got >= resident {
					t.Errorf("Flush(0.5) dropped nothing: %d -> %d resident", resident, got)
				}

				drive("drive before drop")
				if h.DropColdest(0.5) == 0 {
					t.Error("DropColdest dropped nothing")
				}
				checkTiers(t, h, "drop")

				// A recovered start's prefill is the state a crash left on
				// a persistent flash cache.
				if arch != Unified {
					fresh := newRig(t, cfg, testTiming()).host
					keys := make([]cache.Key, cfg.FlashBlocks)
					for i := range keys {
						keys[i] = cache.Key(i)
					}
					if n := fresh.Prefill(keys, 0.5, rng.New(1)); n != cfg.FlashBlocks {
						t.Fatalf("prefilled %d of %d blocks", n, cfg.FlashBlocks)
					}
					checkTiers(t, fresh, "prefill")
				}
			})
		}
	}
}

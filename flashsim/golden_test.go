package flashsim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// Golden determinism lock for the event-core refactor: each config's full
// Result rendering must hash to the value produced by the pre-refactor
// container/heap engine (commit 6833c1e). Any change to event ordering,
// random draws or statistics — however small — shows up here.
//
// The configs cover every hot path the refactor touched: all three
// architectures, every writeback-policy kind, the FTL-backed and
// persistent devices, the replacement-policy extensions, multi-host
// consistency (instant and protocol).
var goldenRuns = []struct {
	name string
	cfg  func() Config
	want string
}{
	{"baseline-naive", func() Config {
		return ScaledConfig(4096)
	}, "7ddaaf1f9f66240a373a335a05854dd837df86e7c1d00aeaefb04437818d5aff"},
	{"lookaside-sync", func() Config {
		cfg := ScaledConfig(4096)
		cfg.Arch = Lookaside
		cfg.RAMPolicy = PolicySync
		return cfg
	}, "6785cf74aab4f64f084e1691a3f5482f5d4f401671b2546063b9873cf02adb44"},
	{"unified-async", func() Config {
		cfg := ScaledConfig(4096)
		cfg.Arch = Unified
		cfg.RAMPolicy = PolicyAsync
		return cfg
	}, "6d653dae502d7da33467d17c47d9a97aacc794945ec3501c7c50e5911ecc9db2"},
	{"delayed-trickle", func() Config {
		cfg := ScaledConfig(4096)
		cfg.RAMPolicy = Policy{Kind: core.Delayed, Period: 250 * sim.Millisecond}
		cfg.FlashPolicy = Policy{Kind: core.Trickle, Period: 10 * sim.Millisecond}
		return cfg
	}, "80a767a6cc3392f0e00b89b568f573e2e18bc3d52aa835e5c257ce52cf0591ef"},
	{"none-none-small", func() Config {
		cfg := ScaledConfig(4096)
		cfg.RAMPolicy = PolicyNone
		cfg.FlashPolicy = PolicyNone
		cfg.RAMBlocks /= 4
		return cfg
	}, "b43236415b60906bdbe27d670a4d1e6ab0040a9ebc9a284ac2c31547f9f43467"},
	{"ftl-persistent", func() Config {
		cfg := ScaledConfig(4096)
		cfg.FTLBackedFlash = true
		cfg.PersistentFlash = true
		return cfg
	}, "2b45da33e50a519e0991025366f508aa05e128cdc52d827e59268094eb62241b"},
	{"replacement-2q", func() Config {
		cfg := ScaledConfig(4096)
		cfg.FlashReplacement = Replace2Q
		return cfg
	}, "5fb1666397a3734e657d2a5dd9bf65cea42bb93a9b3b8de09ee54df8f6640f32"},
	{"replacement-clock", func() Config {
		cfg := ScaledConfig(4096)
		cfg.FlashReplacement = ReplaceClock
		return cfg
	}, "3825a707eedcb0baf7462738c5eaa67b1fb9c572f5a72b30ae38ca581dc36cf9"},
	{"multihost-instant", func() Config {
		cfg := ScaledConfig(4096)
		cfg.Hosts = 2
		cfg.Workload.SharedWorkingSet = true
		cfg.Shards = 0
		return cfg
	}, "51928e4c442ea48c2734d30af92ce49cf0f38ee31b376e6ee775aa42d9fc4775"},
	{"multihost-protocol", func() Config {
		cfg := ScaledConfig(4096)
		cfg.Hosts = 2
		cfg.ConsistencyProtocol = true
		cfg.Workload.SharedWorkingSet = true
		return cfg
	}, "b38b34418827c3a78778b07b365704f0802d25a73003bde3409f9bdbcb55817d"},
	// The four rows below were captured before the host's cache tiers
	// moved into one table: lookaside's periodic RAM syncer, both unified
	// syncers, dirty unified evictions, and the callback protocol on
	// unified hosts.
	{"lookaside-periodic", func() Config {
		cfg := ScaledConfig(4096)
		cfg.Arch = Lookaside
		cfg.Workload.WriteFraction = 0.6 // dirty RAM evictions too
		return cfg
	}, "0b53f3945161cc9948d5ab0e2b3fdac72c24812fdc50f3786812f8a386014e2c"},
	{"unified-periodic-trickle", func() Config {
		cfg := ScaledConfig(4096)
		cfg.Arch = Unified
		cfg.FlashPolicy = Policy{Kind: core.Trickle, Period: 10 * sim.Millisecond}
		return cfg
	}, "227a378b83385d2188b572364ec5e265851a97f3ec29cbc4071eb882e08bb045"},
	{"unified-none-small", func() Config {
		cfg := ScaledConfig(4096)
		cfg.Arch = Unified
		cfg.RAMPolicy = PolicyNone
		cfg.FlashPolicy = PolicyNone
		cfg.RAMBlocks /= 4
		return cfg
	}, "2e51f143b571fa4b6c7cc0424fdb4fa49e3d4973f5d5c812d3ae482612b24e00"},
	{"multihost-unified-protocol", func() Config {
		cfg := ScaledConfig(4096)
		cfg.Arch = Unified
		cfg.Hosts = 2
		cfg.ConsistencyProtocol = true
		cfg.Workload.SharedWorkingSet = true
		return cfg
	}, "3ea1b21013b17f9b7216dd21694530d33f974381acc747df3c803c1a835ee436"},
}

// scrubRuntime zeroes a result's real-time footprint — wall clock and
// peak heap vary run to run — so bit-identity checks and golden hashes
// see only the deterministic surface (zeroing also drops the
// conditional "runtime:" String line).
func scrubRuntime(res *Result) *Result {
	res.WallClockSeconds, res.PeakHeapBytes = 0, 0
	return res
}

// scrubScenarioRuntime is scrubRuntime for scenario results.
func scrubScenarioRuntime(res *ScenarioResult) *ScenarioResult {
	res.WallClockSeconds, res.PeakHeapBytes = 0, 0
	return res
}

func resultChecksum(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(scrubRuntime(res).String()))
	return hex.EncodeToString(sum[:])
}

func TestGoldenResultChecksums(t *testing.T) {
	for _, tc := range goldenRuns {
		t.Run(tc.name, func(t *testing.T) {
			got := resultChecksum(t, tc.cfg())
			if got != tc.want {
				t.Errorf("result checksum drifted from pre-refactor engine:\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}

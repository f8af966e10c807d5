package flashsim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// shardedScenarioConfig is the sharded-scenario lock configuration: four
// hosts at the 1:4096 baseline (a persistent cache for crash recovery, as
// in the single-host lock).
func shardedScenarioConfig(name string) Config {
	cfg := ScaledConfig(4096)
	cfg.Hosts = 4
	if name == "crash-recovery" {
		cfg.PersistentFlash = true
	}
	return cfg
}

// runScenarioWithShards runs a builtin scenario at the given shard count.
func runScenarioWithShards(t *testing.T, cfg Config, name string, shards int) *ScenarioResult {
	t.Helper()
	cfg.Shards = shards
	sc, err := BuiltinScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatalf("RunScenario(%s, shards=%d): %v", name, shards, err)
	}
	return scrubScenarioRuntime(res)
}

// TestScenarioShardCountInvariance locks the scenario half of the sharded
// determinism contract: every built-in scenario — phases, fault events,
// per-phase aggregates and the full telemetry series — is bit-identical at
// shards 0, 1, 2 and 4, because trace feeding, event execution and
// sampling all happen at shard-count-invariant barrier times (Shards 0
// runs as one shard).
func TestScenarioShardCountInvariance(t *testing.T) {
	for _, name := range BuiltinScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cfg := shardedScenarioConfig(name)
			ref := runScenarioWithShards(t, cfg, name, 1)
			if ref.BlocksIssued == 0 || ref.Telemetry.Len() == 0 {
				t.Fatalf("sharded scenario did no work: %s", ref)
			}
			for _, shards := range []int{0, 2, 4} {
				got := runScenarioWithShards(t, cfg, name, shards)
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("shards=%d diverged from shards=1:\nref: %s\ngot: %s", shards, ref, got)
				}
			}
		})
	}
}

// TestScenarioShardedGoldenChecksums pins the four-host scenario results
// the way scenarioGoldens pins the single-host ones: any drift in the barrier
// schedule, the feed split or the sampling grid shows up here. The hashes
// were captured when the sharded executor was built; the shard count does
// not matter (invariance above), so the lock runs at shards=2.
var shardedScenarioGoldens = map[string]string{
	"burst":          "cfa79d1af82d0c774db4f8b2ca53ecb67181cc17901f3df667a15c48e6eb0988",
	"churn":          "41e4ebd57998ddf011d09115adb022e97ff8d47ea235fc6f84e49b5b368c921b",
	"crash-recovery": "09c60097eb8bd2df408d4950ec52e8ab38dacc56527d6ff33cb98d1e82289814",
	"filer-crash":    "4319c1a088b60ca9b2677838fdd413ba098a05cd2d76293e79e43f703da0e89b",
	"warmup":         "9af4b45a985ab0ff7b7eb0474d8cf67fd1b2c879f79cb45623c5dbda620bfbd3",
	"ws-shift":       "8e0e72a77ad48644b80ad2307fbdf52e405172ea139fe82d354e63ac10ab5bef",
}

func TestScenarioShardedGoldenChecksums(t *testing.T) {
	for _, name := range BuiltinScenarioNames() {
		t.Run(name, func(t *testing.T) {
			want, ok := shardedScenarioGoldens[name]
			if !ok {
				t.Fatalf("builtin %s has no sharded golden checksum; add one", name)
			}
			cfg := shardedScenarioConfig(name)
			cfg.Shards = 2
			got := scenarioChecksum(t, cfg, name)
			if got != want {
				t.Errorf("sharded scenario checksum drifted:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}

// TestScenarioShardedTimedPhase covers the chunked-feed path: a
// time-bounded phase on the cluster consumes trace until the first barrier
// at its deadline, discards the undispatched feed, and stays bit-identical
// across shard counts.
func TestScenarioShardedTimedPhase(t *testing.T) {
	cfg := ScaledConfig(4096)
	cfg.Hosts = 4
	sc := &Scenario{
		Name: "timed",
		Phases: []ScenarioPhase{
			{Name: "warm", WSMultiple: 0.5},
			{Name: "timed", Seconds: 0.15},
			{Name: "tail", Blocks: 2000},
		},
	}
	var ref *ScenarioResult
	for _, shards := range []int{1, 2, 4} {
		c := cfg
		c.Shards = shards
		res, err := RunScenario(c, sc.Clone())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		scrubScenarioRuntime(res)
		if res.Phases[1].BlocksIssued == 0 {
			t.Fatalf("shards=%d: timed phase issued nothing", shards)
		}
		if got := res.Phases[1].EndSeconds - res.Phases[1].StartSeconds; got < 0.15 {
			t.Errorf("shards=%d: timed phase lasted %.3fs, want >= 0.15", shards, got)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("shards=%d diverged:\nref: %s\ngot: %s", shards, ref, res)
		}
	}
}

// TestScenarioShardedProtocol composes the two formerly-rejected features:
// a scripted crash on a cluster running the callback consistency protocol
// over a shared working set. The protocol traffic must be visible and the
// whole run invariant across shard counts.
func TestScenarioShardedProtocol(t *testing.T) {
	cfg := shardedScenarioConfig("crash-recovery")
	cfg.Workload.SharedWorkingSet = true
	cfg.ConsistencyProtocol = true
	ref := runScenarioWithShards(t, cfg, "crash-recovery", 1)
	if len(ref.Events) != 1 || ref.Events[0].Kind != "crash" {
		t.Fatalf("events = %+v", ref.Events)
	}
	for _, shards := range []int{2, 4} {
		got := runScenarioWithShards(t, cfg, "crash-recovery", shards)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("shards=%d diverged from shards=1", shards)
		}
	}
}

// TestScenarioShardedChurnRedistributes mirrors the two-host churn test
// on four hosts over two shards: the leave flushes and drops, the join
// re-attaches, and every phase still issues its full volume via the
// feed-time remap.
func TestScenarioShardedChurnRedistributes(t *testing.T) {
	cfg := shardedScenarioConfig("churn")
	res := runScenarioWithShards(t, cfg, "churn", 2)
	if len(res.Events) != 2 || res.Events[0].Kind != "leave" || res.Events[1].Kind != "join" {
		t.Fatalf("events = %+v", res.Events)
	}
	if res.Events[0].Dropped == 0 {
		t.Error("leave dropped no blocks")
	}
	for _, p := range res.Phases {
		if p.BlocksIssued == 0 {
			t.Errorf("phase %s issued nothing", p.Name)
		}
	}
}

// A scripted scenario whose leave events detach every host must fail on
// the last one, at every shard count: some host has to serve the trace.
func TestScenarioLeaveLastHostFails(t *testing.T) {
	sc := &Scenario{
		Name: "exodus",
		Phases: []ScenarioPhase{
			{Name: "warm", Blocks: 1000},
			{Name: "empty", Blocks: 1000, Events: []ScenarioEvent{
				{Kind: scenario.EventLeave, Host: 0},
				{Kind: scenario.EventLeave, Host: 1},
			}},
		},
	}
	for _, shards := range []int{0, 2} {
		cfg := ScaledConfig(4096)
		cfg.Hosts = 2
		cfg.Shards = shards
		_, err := RunScenario(cfg, sc)
		if err == nil || !strings.Contains(err.Error(), "cannot detach the last attached host") {
			t.Errorf("shards=%d: err = %v, want last-host detach failure", shards, err)
		}
	}
}

// TestScenarioSharedInvalidations locks the consistency statistics a
// scenario reports: four hosts churning over one shared working set
// invalidate remote copies on some but not all of their block writes
// (the paper's §7.9 metric), identically at one, two and four shards.
func TestScenarioSharedInvalidations(t *testing.T) {
	cfg := shardedScenarioConfig("churn")
	cfg.Workload.SharedWorkingSet = true
	ref := runScenarioWithShards(t, cfg, "churn", 1)
	if ref.BlocksWrittenShared == 0 || ref.Invalidations == 0 ||
		ref.InvalidationFraction <= 0 || ref.InvalidationFraction >= 1 {
		t.Fatalf("shared churn: %.3f of %d block writes invalidating (%d copies dropped), want a fraction in (0, 1)",
			ref.InvalidationFraction, ref.BlocksWrittenShared, ref.Invalidations)
	}
	t.Logf("shared churn: %.1f%% of %d block writes invalidating (%d copies dropped)",
		100*ref.InvalidationFraction, ref.BlocksWrittenShared, ref.Invalidations)
	for _, shards := range []int{2, 4} {
		got := runScenarioWithShards(t, cfg, "churn", shards)
		if got.BlocksWrittenShared != ref.BlocksWrittenShared || got.Invalidations != ref.Invalidations ||
			got.InvalidationFraction != ref.InvalidationFraction {
			t.Errorf("shards=%d: %.6f of %d writes (%d dropped), shards=1: %.6f of %d (%d dropped)",
				shards, got.InvalidationFraction, got.BlocksWrittenShared, got.Invalidations,
				ref.InvalidationFraction, ref.BlocksWrittenShared, ref.Invalidations)
		}
	}
}

// TestScenarioTimedPhaseRunsDry: with telemetry ticks far apart, a timed
// phase's feed runs dry between top-ups and the cluster goes quiescent
// before the deadline; the coordinator tops up and carries on until the
// deadline, identically at one and two shards. The first phase's join
// of a host that never left is a no-op.
func TestScenarioTimedPhaseRunsDry(t *testing.T) {
	cfg := ScaledConfig(4096)
	cfg.Hosts = 2
	sc := &Scenario{
		Name:              "dry",
		SampleEveryMillis: 60000,
		Phases: []ScenarioPhase{
			{Name: "warm", Blocks: 2000, Events: []ScenarioEvent{{Kind: scenario.EventJoin, Host: 1}}},
			{Name: "timed", Seconds: 3},
		},
	}
	var ref *ScenarioResult
	for _, shards := range []int{1, 2} {
		c := cfg
		c.Shards = shards
		res, err := RunScenario(c, sc.Clone())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		scrubScenarioRuntime(res)
		ph := res.Phases[1]
		if got := ph.EndSeconds - ph.StartSeconds; got < 3 {
			t.Errorf("shards=%d: timed phase lasted %.3fs, want >= 3", shards, got)
		}
		if chunk := feedChunkBlocks(c, 4); int64(ph.BlocksIssued) <= chunk {
			t.Errorf("shards=%d: timed phase issued %d blocks, not past one %d-block top-up", shards, ph.BlocksIssued, chunk)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("shards=%d diverged:\nref: %s\ngot: %s", shards, ref, res)
		}
	}
}

// TestScenarioPhaseOverrides: a phase can change the working-set
// locality and sharing and go write-only; the write-only phase reports
// no read latency and no hit rate.
func TestScenarioPhaseOverrides(t *testing.T) {
	cfg := ScaledConfig(4096)
	cfg.Hosts = 2
	locality, shared, writes := 0.5, true, 1.0
	sc := &Scenario{
		Name: "overrides",
		Phases: []ScenarioPhase{
			{Name: "mixed", Blocks: 2000, WorkingSetFraction: &locality, SharedWorkingSet: &shared},
			{Name: "writes", Blocks: 2000, WriteFraction: &writes},
		},
	}
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if ph := res.Phases[0]; ph.ReadLatencyMicros == 0 {
		t.Fatalf("mixed phase has no reads: %+v", ph)
	}
	if ph := res.Phases[1]; ph.ReadLatencyMicros != 0 || ph.RAMHitRate != 0 || ph.FlashHitRate != 0 {
		t.Fatalf("write-only phase reports reads: %+v", ph)
	}
}

func TestScaledConfigClampsScale(t *testing.T) {
	if !reflect.DeepEqual(ScaledConfig(0), ScaledConfig(1)) {
		t.Fatal("scale 0 is not scale 1")
	}
}

package flashsim

import (
	"reflect"
	"testing"
)

// TestResolveIdempotent: resolving a resolved configuration changes
// nothing, for every builtin scenario, for a steady-state run and for a
// filer spec that overrides the replica count but leaves the quorum at
// 0 — whose quorum is the majority of the spec's replicas, not of the
// base configuration's one.
func TestResolveIdempotent(t *testing.T) {
	base := ScaledConfig(4096)
	base.Hosts = 4
	base.Shards = 16
	var scs []*Scenario
	for _, name := range BuiltinScenarioNames() {
		sc, err := BuiltinScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
	}
	replicas, err := BuiltinScenario("warmup")
	if err != nil {
		t.Fatal(err)
	}
	replicas.Name = "three-replicas"
	replicas.Filer = &ScenarioFilerSpec{Replicas: 3}
	scs = append(scs, replicas, nil)

	for _, sc := range scs {
		name := "steady-state"
		if sc != nil {
			name = sc.Name
		}
		once, err := Resolve(base, sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		twice, err := Resolve(once, sc)
		if err != nil {
			t.Fatalf("%s: second Resolve: %v", name, err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("%s: Resolve is not idempotent:\nonce  %+v\ntwice %+v", name, once, twice)
		}
		if once.Shards != 4 {
			t.Errorf("%s: %d shards on 4 hosts, want the clamp to 4", name, once.Shards)
		}
		if once.FilerPartitions < 1 || once.FilerReplicas < 1 || once.FilerWriteQuorum != once.FilerReplicas/2+1 {
			t.Errorf("%s: filer layout (%d, %d, quorum %d) not resolved", name,
				once.FilerPartitions, once.FilerReplicas, once.FilerWriteQuorum)
		}
	}
	if got, err := Resolve(base, replicas); err != nil || got.FilerReplicas != 3 || got.FilerWriteQuorum != 2 {
		t.Errorf("replica override: (%d replicas, quorum %d, %v), want (3, 2)", got.FilerReplicas, got.FilerWriteQuorum, err)
	}

	// A steady-state 0 stays 0 (the sequential engine); a scenario's 0 is
	// one shard.
	base.Shards = 0
	if got, err := Resolve(base, nil); err != nil || got.Shards != 0 {
		t.Errorf("steady-state Shards 0 resolved to %d (%v), want 0", got.Shards, err)
	}
	if got, err := Resolve(base, scs[0]); err != nil || got.Shards != 1 {
		t.Errorf("scenario Shards 0 resolved to %d (%v), want 1", got.Shards, err)
	}
}

// TestResolvedScenarioReport: the filer-crash report built from the
// resolved configuration says what ran — two partitions of two replicas
// over the object tier, on one shard — and its config agrees with its
// per-partition section.
func TestResolvedScenarioReport(t *testing.T) {
	sc, err := BuiltinScenario("filer-crash")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Resolve(ScaledConfig(4096), sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	got := NewScenarioReport(cfg, res).Config
	if got.FilerPartitions != 2 || got.FilerReplicas != 2 || got.FilerWriteQuorum != 2 ||
		!got.ObjectTier || got.Shards != 1 {
		t.Errorf("filer-crash report config %+v, want 2 partitions x 2 replicas (quorum 2), object tier, 1 shard", got)
	}
	if n := len(res.FilerPartitions); n != got.FilerPartitions {
		t.Errorf("report config says %d partitions, the run had %d", got.FilerPartitions, n)
	}
}

// TestResolvedWallProfileShards: a profiled run asking for more shards
// than hosts reports the shard count that ran, in its config and its
// wall-clock section alike.
func TestResolvedWallProfileShards(t *testing.T) {
	cfg := ScaledConfig(4096)
	cfg.Hosts, cfg.Shards, cfg.WallProfile = 2, 8, true
	cfg, err := Resolve(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(cfg, res)
	if rep.WallClock == nil {
		t.Fatal("profiled run has no wall-clock section")
	}
	if rep.Config.Shards != 2 || rep.WallClock.Shards != 2 {
		t.Errorf("config.shards %d, wall_clock.shards %d, want 2 and 2", rep.Config.Shards, rep.WallClock.Shards)
	}
}

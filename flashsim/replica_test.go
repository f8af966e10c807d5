package flashsim

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// Replica invariance locks: with homogeneous replica timing, replication
// is a pure redundancy knob — the read draw and the replica pick spend
// the same single RNG draw, and a quorum ack among identical replicas
// lands at the single-backend write latency — so the PR 7 partition
// matrix extends to a third axis. Every (shards x partitions x replicas)
// cell must hash to the SAME golden as the partition matrix, and the
// filer-crash scenario must stay bit-identical across shard and replica
// counts even while a replica is down.

// replicaMatrix is the replica-count axis of the invariance locks.
var replicaMatrix = []int{1, 2, 3}

// stripReplicas clears the per-partition diagnostic block (which carries
// the per-replica split and so legitimately depends on the replica
// count); everything else must match across the matrix.
func stripReplicas(r *Result) *Result {
	return stripPartitions(r)
}

func TestReplicaCountInvarianceMatrix(t *testing.T) {
	base := partitionFleetConfig()
	var ref *Result
	for _, shards := range partitionMatrix {
		for _, parts := range partitionMatrix {
			for _, reps := range replicaMatrix {
				cfg := base
				cfg.Shards = shards
				cfg.FilerPartitions = parts
				cfg.FilerReplicas = reps
				got, err := Run(cfg)
				if err != nil {
					t.Fatalf("Run(shards=%d, partitions=%d, replicas=%d): %v", shards, parts, reps, err)
				}
				if len(got.FilerPartitions) != parts {
					t.Fatalf("shards=%d partitions=%d replicas=%d reported %d partition stats",
						shards, parts, reps, len(got.FilerPartitions))
				}
				if reps > 1 {
					for p, st := range got.FilerPartitions {
						if len(st.Replicas) != reps {
							t.Fatalf("partition %d reported %d replica stats, want %d", p, len(st.Replicas), reps)
						}
					}
				}
				scrubRuntime(got)
				sum := sha256.Sum256([]byte(got.String()))
				if hex.EncodeToString(sum[:]) != partitionFleetGolden {
					t.Errorf("shards=%d partitions=%d replicas=%d checksum drifted:\ngot  %s\nwant %s",
						shards, parts, reps, hex.EncodeToString(sum[:]), partitionFleetGolden)
				}
				if ref == nil {
					ref = got
					continue
				}
				if !reflect.DeepEqual(stripReplicas(ref), stripReplicas(got)) {
					t.Errorf("shards=%d partitions=%d replicas=%d diverged from the first cell",
						shards, parts, reps)
				}
			}
		}
	}
}

// TestScenarioReplicaCountInvariance crosses the filer-crash scenario —
// a replica down for a third of the run, then recovered — over shards
// {1,2,4} x replicas {2,3}: fault routing and degraded quorums must not
// break the bit-identical contract either. (Replicas=1 is excluded by
// design: crashing the sole replica of a group drops the whole group to
// the object tier, which is a different — though still deterministic —
// service story, not an equivalent redundancy level.) Every cell must
// match the sharded filer-crash golden.
func TestScenarioReplicaCountInvariance(t *testing.T) {
	base := shardedScenarioConfig("filer-crash")
	want := shardedScenarioGoldens["filer-crash"]
	var ref *ScenarioResult
	for _, shards := range partitionMatrix {
		for _, reps := range []int{2, 3} {
			sc, err := BuiltinScenario("filer-crash")
			if err != nil {
				t.Fatal(err)
			}
			sc.Filer.Replicas = reps
			cfg := base
			cfg.Shards = shards
			got, err := RunScenario(cfg, sc)
			if err != nil {
				t.Fatalf("RunScenario(shards=%d, replicas=%d): %v", shards, reps, err)
			}
			scrubScenarioRuntime(got)
			h := sha256.New()
			h.Write([]byte(got.String()))
			h.Write([]byte(got.Telemetry.CSV()))
			got.Telemetry.WriteNDJSON(h)
			if sum := hex.EncodeToString(h.Sum(nil)); sum != want {
				t.Errorf("shards=%d replicas=%d checksum drifted:\ngot  %s\nwant %s",
					shards, reps, sum, want)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(stripScenarioPartitions(ref), stripScenarioPartitions(got)) {
				t.Errorf("shards=%d replicas=%d diverged from the first cell", shards, reps)
			}
		}
	}
}

// TestFilerCrashScenarioEvents checks the fault events' observable
// results: the crash and recovery both report their target, the recovery
// re-syncs from the group, the degraded phase counts degraded service,
// and the event lines render in the filer format.
func TestFilerCrashScenarioEvents(t *testing.T) {
	cfg := shardedScenarioConfig("filer-crash")
	cfg.Shards = 2
	sc, err := BuiltinScenario("filer-crash")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 2 {
		t.Fatalf("events = %+v", res.Events)
	}
	crash, recover := res.Events[0], res.Events[1]
	if crash.Kind != "filer-crash" || crash.Partition != 0 || crash.Replica != 1 {
		t.Fatalf("crash event = %+v", crash)
	}
	if recover.Kind != "filer-recover" || recover.ResyncSource != "group" {
		t.Fatalf("recover event = %+v", recover)
	}
	if recover.Resynced == 0 {
		t.Fatal("recovery re-synced no blocks despite object-tier residency")
	}
	st := res.FilerPartitions[0]
	if st.DegradedReads == 0 || st.DegradedWrites == 0 {
		t.Fatalf("degraded phase not visible in partition stats: %+v", st)
	}
	if st.Replicas[1].Resyncs != 1 {
		t.Fatalf("replica 1 resyncs = %d, want 1", st.Replicas[1].Resyncs)
	}
	if res.FilerPartitions[1].DegradedReads != 0 {
		t.Fatal("untouched partition reports degraded service")
	}
	out := res.String()
	if !strings.Contains(out, "filer-crash partition 0 replica 1") {
		t.Fatalf("crash event line missing from summary:\n%s", out)
	}
	if !strings.Contains(out, "from group") {
		t.Fatalf("recover event line missing from summary:\n%s", out)
	}
}

// TestScenarioFilerEventChecks: a scenario naming a partition or replica
// the effective layout does not have must be rejected before the run.
func TestScenarioFilerEventChecks(t *testing.T) {
	cfg := shardedScenarioConfig("filer-crash")
	run := func(mutate func(*Scenario)) error {
		sc, err := BuiltinScenario("filer-crash")
		if err != nil {
			t.Fatal(err)
		}
		mutate(sc)
		_, err = RunScenario(cfg, sc)
		return err
	}
	if err := run(func(sc *Scenario) { sc.Phases[1].Events[0].Partition = 2 }); err == nil {
		t.Error("out-of-range partition accepted")
	}
	if err := run(func(sc *Scenario) { sc.Phases[1].Events[0].Replica = 5 }); err == nil {
		t.Error("out-of-range replica accepted")
	}
	// Quorum larger than the group, via the scenario's own filer block.
	if err := run(func(sc *Scenario) { sc.Filer.WriteQuorum = 3 }); err == nil {
		t.Error("quorum above replicas accepted")
	}
	// Crashing the sole replica of a group without the object tier.
	if err := run(func(sc *Scenario) { sc.Filer.Replicas = 1; sc.Filer.ObjectTier = false }); err == nil {
		t.Error("last-replica crash without an object tier did not fail the run")
	}
}

// TestSlowReplicaQuorumTail is the ext-filerfail story in miniature: with
// one slow replica per group, a majority quorum hides the straggler (same
// results as the homogeneous run) while a write-all quorum waits for it —
// higher write latency, same read latency, because reads route around the
// slow copy either way.
func TestSlowReplicaQuorumTail(t *testing.T) {
	base := partitionFleetConfig()
	base.Shards = 2
	base.FilerPartitions = 2
	base.FilerReplicas = 3

	run := func(mutate func(*Config)) *Result {
		cfg := base
		mutate(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return scrubRuntime(res)
	}
	healthy := run(func(cfg *Config) {})
	majority := run(func(cfg *Config) { cfg.FilerSlowReplica = 20 })
	writeAll := run(func(cfg *Config) { cfg.FilerSlowReplica = 20; cfg.FilerWriteQuorum = 3 })

	if !reflect.DeepEqual(stripReplicas(healthy), stripReplicas(majority)) {
		t.Error("majority quorum did not shield the slow replica")
	}
	// Client writes are absorbed by the host cache, so the write-all
	// drag surfaces in the writeback path: every filer writeback now
	// waits for the slow replica's ack, which must shift the simulation
	// away from the majority-quorum run.
	if reflect.DeepEqual(stripReplicas(majority), stripReplicas(writeAll)) {
		t.Error("write-all quorum produced identical results to majority; the slow replica cost nothing")
	}
	// The slow replica must have served no reads in either layout.
	for _, res := range []*Result{majority, writeAll} {
		for p, st := range res.FilerPartitions {
			slow := st.Replicas[len(st.Replicas)-1]
			if slow.FastReads+slow.SlowReads+slow.ObjectReads != 0 {
				t.Errorf("partition %d slow replica served reads: %+v", p, slow)
			}
		}
	}
}

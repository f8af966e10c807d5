package flashsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/filer"
)

// Partition invariance locks: the filer's backend partitioning is pure
// routing — one shared latency RNG consumed in global arrival order, a
// deterministic hash from block key to partition — so a fixed
// configuration must produce bit-identical results for every
// (shards x partitions) combination. These tests cross both axes on the
// steady-state fleet and on the crash-recovery scenario, with the object
// tier on so the per-partition residency maps are exercised too.

// partitionMatrix is the (shards x partitions) grid both locks sweep.
var partitionMatrix = []int{1, 2, 4}

// partitionFleetConfig is the steady-state lock configuration: the
// 8-host shared-working-set fleet with the object tier enabled.
func partitionFleetConfig() Config {
	cfg := fleetConfig(8)
	cfg.ObjectTier = true
	cfg.ObjectWriteThrough = true
	cfg.ObjectReadPromote = true
	return cfg
}

// stripPartitions clears the per-partition diagnostic block, the one
// part of a Result that legitimately depends on the partition count
// (it is the per-backend split itself). Everything else must match.
func stripPartitions(r *Result) *Result {
	c := *r
	c.FilerPartitions = nil
	return &c
}

// partitionFleetGolden pins every cell of the steady-state matrix: all
// nine (shards x partitions) runs must hash to this one value. Captured
// when filer partitioning was built.
const partitionFleetGolden = "12095bde963989f8908db2fd90fce542499ee51045d371b2b7899aa45bdac8b2"

func TestPartitionCountInvariance(t *testing.T) {
	base := partitionFleetConfig()
	var ref *Result
	for _, shards := range partitionMatrix {
		for _, parts := range partitionMatrix {
			cfg := base
			cfg.Shards = shards
			cfg.FilerPartitions = parts
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run(shards=%d, partitions=%d): %v", shards, parts, err)
			}
			if len(got.FilerPartitions) != parts {
				t.Fatalf("shards=%d partitions=%d reported %d partition stats",
					shards, parts, len(got.FilerPartitions))
			}
			scrubRuntime(got)
			sum := sha256.Sum256([]byte(got.String()))
			if hex.EncodeToString(sum[:]) != partitionFleetGolden {
				t.Errorf("shards=%d partitions=%d checksum drifted:\ngot  %s\nwant %s",
					shards, parts, hex.EncodeToString(sum[:]), partitionFleetGolden)
			}
			if ref == nil {
				ref = got
				if ref.FilerObjectReads == 0 || ref.FilerObjectWrites == 0 {
					t.Fatalf("object tier saw no traffic: %+v", ref)
				}
				continue
			}
			if !reflect.DeepEqual(stripPartitions(ref), stripPartitions(got)) {
				t.Errorf("shards=%d partitions=%d diverged from the first cell:\nref: %+v\ngot: %+v",
					shards, parts, ref, got)
			}
		}
	}
}

// TestPartitionStatsSumToAggregates checks that the per-partition split
// is a partition of the aggregate counters: nothing double-counted,
// nothing dropped, every partition loaded (the routing hash must not
// starve a backend on a 4096-block working set).
func TestPartitionStatsSumToAggregates(t *testing.T) {
	cfg := partitionFleetConfig()
	cfg.Shards = 2
	cfg.FilerPartitions = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fast, slow, object, writes, objWrites uint64
	for p, st := range res.FilerPartitions {
		if st.Serviced() == 0 {
			t.Errorf("partition %d serviced nothing", p)
		}
		if st.MaxBarrierQueue == 0 {
			t.Errorf("partition %d observed no barrier queue", p)
		}
		fast += st.FastReads
		slow += st.SlowReads
		object += st.ObjectReads
		writes += st.Writes
		objWrites += st.ObjectWrites
	}
	if fast != res.FilerFastReads || slow != res.FilerSlowReads ||
		object != res.FilerObjectReads || writes != res.FilerWrites ||
		objWrites != res.FilerObjectWrites {
		t.Errorf("partition sums (%d/%d/%d/%d/%d) != aggregates (%d/%d/%d/%d/%d)",
			fast, slow, object, writes, objWrites,
			res.FilerFastReads, res.FilerSlowReads, res.FilerObjectReads,
			res.FilerWrites, res.FilerObjectWrites)
	}
}

// partitionStatsGolden pins the full per-partition split (every service
// counter, both barrier-queue gauges and the per-replica split) of the
// replicated fleet, by partition count; every shard count must produce it.
var partitionStatsGolden = map[int]string{
	2: "f41e85f28413eae3043ddb99e3d2e9d80b6a8d739a4ea7090054fbf510579fa3",
	4: "16bbaacc1437479626019b4bd73eb565949129ea193343a0864691710570f3f5",
}

// TestPartitionStatsPinned locks the part of a Result that the invariance
// matrix strips: the per-backend load accounting. The split depends on
// the partition count, but not on how the barrier's filer service is
// scheduled or on the shard count.
func TestPartitionStatsPinned(t *testing.T) {
	base := partitionFleetConfig()
	base.FilerReplicas = 3
	for _, parts := range []int{2, 4} {
		var ref []filer.PartitionStats
		for _, shards := range partitionMatrix {
			cfg := base
			cfg.Shards = shards
			cfg.FilerPartitions = parts
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run(shards=%d, partitions=%d): %v", shards, parts, err)
			}
			if len(res.FilerPartitions) != parts || len(res.FilerPartitions[0].Replicas) != 3 {
				t.Fatalf("shards=%d partitions=%d: split has the wrong shape: %+v",
					shards, parts, res.FilerPartitions)
			}
			js, err := json.Marshal(res.FilerPartitions)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			if got := hex.EncodeToString(sum[:]); got != partitionStatsGolden[parts] {
				t.Errorf("shards=%d partitions=%d split drifted:\ngot  %s\nwant %s\n%s",
					shards, parts, got, partitionStatsGolden[parts], js)
			}
			if ref == nil {
				ref = res.FilerPartitions
				continue
			}
			if !reflect.DeepEqual(ref, res.FilerPartitions) {
				t.Errorf("partitions=%d: shards=%d split differs from shards=%d:\nref: %+v\ngot: %+v",
					parts, shards, partitionMatrix[0], ref, res.FilerPartitions)
			}
		}
	}
}

// stripScenarioPartitions mirrors stripPartitions for scenario results.
func stripScenarioPartitions(r *ScenarioResult) *ScenarioResult {
	c := *r
	c.FilerPartitions = nil
	return &c
}

// partitionScenarioGolden pins every cell of the crash-recovery scenario
// matrix (String + telemetry CSV/NDJSON, like scenarioChecksum).
const partitionScenarioGolden = "6e86e4ad547b4a094fbfa85b20a901c635667b7047c9aa847e6e7c75f541e062"

// TestScenarioPartitionCountInvariance crosses the same matrix on the
// crash-recovery scenario, with the partition count and object tier
// supplied through the scenario's own filer block so the JSON plumbing
// is what sets the layout.
func TestScenarioPartitionCountInvariance(t *testing.T) {
	base := shardedScenarioConfig("crash-recovery")
	var ref *ScenarioResult
	for _, shards := range partitionMatrix {
		for _, parts := range partitionMatrix {
			sc, err := BuiltinScenario("crash-recovery")
			if err != nil {
				t.Fatal(err)
			}
			sc.Filer = &ScenarioFilerSpec{Partitions: parts, ObjectTier: true}
			cfg := base
			cfg.Shards = shards
			got, err := RunScenario(cfg, sc)
			if err != nil {
				t.Fatalf("RunScenario(shards=%d, partitions=%d): %v", shards, parts, err)
			}
			if len(got.FilerPartitions) != parts {
				t.Fatalf("shards=%d partitions=%d reported %d partition stats",
					shards, parts, len(got.FilerPartitions))
			}
			scrubScenarioRuntime(got)
			h := sha256.New()
			h.Write([]byte(got.String()))
			h.Write([]byte(got.Telemetry.CSV()))
			got.Telemetry.WriteNDJSON(h)
			if sum := hex.EncodeToString(h.Sum(nil)); sum != partitionScenarioGolden {
				t.Errorf("shards=%d partitions=%d checksum drifted:\ngot  %s\nwant %s",
					shards, parts, sum, partitionScenarioGolden)
			}
			if ref == nil {
				ref = got
				if ref.FilerObjectReads == 0 {
					t.Fatalf("scenario object tier saw no reads: %+v", ref)
				}
				continue
			}
			if !reflect.DeepEqual(stripScenarioPartitions(ref), stripScenarioPartitions(got)) {
				t.Errorf("shards=%d partitions=%d diverged from the first cell", shards, parts)
			}
		}
	}
}

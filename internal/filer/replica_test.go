package filer

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// replicaConfig is blockConfig with a replica group per partition.
func replicaConfig(parts, reps int, rate float64) Config {
	cfg := blockConfig(parts, rate)
	cfg.Replicas = reps
	return cfg
}

// TestReplicaConfigValidate is the table-driven contract for the replica
// knobs: group sizes out of range, quorums larger than the group, and
// slow-replica factors that are senseless (below one, non-finite, or on a
// sole replica).
func TestReplicaConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"zero replicas means one", func(c *Config) { c.Replicas = 0 }, true},
		{"one replica", func(c *Config) { c.Replicas = 1 }, true},
		{"three replicas", func(c *Config) { c.Replicas = 3 }, true},
		{"max replicas", func(c *Config) { c.Replicas = maxReplicas }, true},
		{"replicas above max", func(c *Config) { c.Replicas = maxReplicas + 1 }, false},
		{"negative replicas", func(c *Config) { c.Replicas = -1 }, false},
		{"quorum within group", func(c *Config) { c.Replicas = 3; c.WriteQuorum = 3 }, true},
		{"quorum of one", func(c *Config) { c.Replicas = 3; c.WriteQuorum = 1 }, true},
		{"quorum above replicas", func(c *Config) { c.Replicas = 3; c.WriteQuorum = 4 }, false},
		{"quorum above implicit single replica", func(c *Config) { c.WriteQuorum = 2 }, false},
		{"negative quorum", func(c *Config) { c.Replicas = 3; c.WriteQuorum = -1 }, false},
		{"slow factor on two replicas", func(c *Config) { c.Replicas = 2; c.SlowReplicaFactor = 8 }, true},
		{"slow factor of one is homogeneous", func(c *Config) { c.SlowReplicaFactor = 1 }, true},
		{"slow factor below one", func(c *Config) { c.Replicas = 2; c.SlowReplicaFactor = 0.5 }, false},
		{"slow factor NaN", func(c *Config) { c.Replicas = 2; c.SlowReplicaFactor = math.NaN() }, false},
		{"slow factor Inf", func(c *Config) { c.Replicas = 2; c.SlowReplicaFactor = math.Inf(1) }, false},
		{"slow factor on a sole replica", func(c *Config) { c.SlowReplicaFactor = 4 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := blockConfig(2, 0.9)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("config accepted, want rejection")
			}
		})
	}
}

// TestReplicaCountInvariance: with homogeneous replica timing the latency
// sequence a request stream observes is identical at every replica count
// and quorum — replication is a pure redundancy knob. Exercised with and
// without the object tier, and at the degenerate prefetch rates where the
// single-replica path legitimately skips RNG draws.
func TestReplicaCountInvariance(t *testing.T) {
	trace := func(reps int, rate float64, object bool) []sim.Time {
		var e sim.Engine
		cfg := replicaConfig(2, reps, rate)
		if object {
			cfg.Object = &ObjectTier{Read: 4 * slowRead, Write: slowRead, WriteThrough: true, ReadPromote: true}
		}
		f, err := NewPartitioned(&e, rng.New(42), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lats []sim.Time
		for i := 0; i < 2000; i++ {
			key := uint64(i % 331)
			if i%3 == 0 {
				lats = append(lats, writeLatency(f, key))
			} else {
				lats = append(lats, readLatency(f, key))
			}
		}
		return lats
	}
	for _, rate := range []float64{0, 0.5, 0.9, 1} {
		for _, object := range []bool{false, true} {
			base := trace(1, rate, object)
			for _, reps := range []int{2, 3, 4} {
				got := trace(reps, rate, object)
				for i := range base {
					if got[i] != base[i] {
						t.Fatalf("rate=%v object=%v reps=%d: latency %d diverged (%v vs %v)",
							rate, object, reps, i, got[i], base[i])
					}
				}
			}
		}
	}
}

// TestWriteQuorumCompletion: with one slow replica, a majority quorum
// completes at the healthy replicas' latency while a write-all quorum
// waits for the slow one.
func TestWriteQuorumCompletion(t *testing.T) {
	build := func(quorum int) *Filer {
		var e sim.Engine
		cfg := replicaConfig(1, 3, 0.9)
		cfg.WriteQuorum = quorum
		cfg.SlowReplicaFactor = 10
		f, err := NewPartitioned(&e, rng.New(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if lat := writeLatency(build(2), 7); lat != writeLat {
		t.Fatalf("majority quorum write latency %v, want %v", lat, writeLat)
	}
	slow := sim.Time(math.Round(float64(writeLat) * 10))
	if lat := writeLatency(build(3), 7); lat != slow {
		t.Fatalf("write-all quorum latency %v, want slow %v", lat, slow)
	}
	if lat := writeLatency(build(1), 7); lat != writeLat {
		t.Fatalf("quorum-1 write latency %v, want fastest %v", lat, writeLat)
	}
}

// TestSlowReplicaReadRouting: reads route to the fastest live replicas,
// so a slow replica serves no reads until its healthy peers crash.
func TestSlowReplicaReadRouting(t *testing.T) {
	var e sim.Engine
	cfg := replicaConfig(1, 3, 0.5)
	cfg.SlowReplicaFactor = 10
	f, err := NewPartitioned(&e, rng.New(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		readLatency(f, uint64(i))
	}
	st := f.PartitionStats(0)
	if n := st.Replicas[2].FastReads + st.Replicas[2].SlowReads; n != 0 {
		t.Fatalf("slow replica served %d reads with healthy peers live", n)
	}
	if st.Replicas[0].FastReads+st.Replicas[0].SlowReads == 0 ||
		st.Replicas[1].FastReads+st.Replicas[1].SlowReads == 0 {
		t.Fatal("healthy replicas did not share the read load")
	}

	// Crash both healthy replicas: the slow one now serves everything at
	// its scaled latencies, and service is flagged degraded.
	if err := f.CrashReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.CrashReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	slowFast := sim.Time(math.Round(float64(fastRead) * 10))
	slowSlow := sim.Time(math.Round(float64(slowRead) * 10))
	for i := 0; i < 100; i++ {
		if lat := readLatency(f, uint64(i)); lat != slowFast && lat != slowSlow {
			t.Fatalf("read latency %v from the slow survivor, want %v or %v", lat, slowFast, slowSlow)
		}
	}
	st = f.PartitionStats(0)
	if st.DegradedReads == 0 {
		t.Fatal("no degraded reads with two replicas down")
	}
}

// TestHomogeneousGroupSpreadsReads: a healthy homogeneous group shares
// the read load roughly evenly (the spare draw bits break latency ties).
func TestHomogeneousGroupSpreadsReads(t *testing.T) {
	var e sim.Engine
	f, err := NewPartitioned(&e, rng.New(4), replicaConfig(1, 3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		readLatency(f, uint64(i))
	}
	st := f.PartitionStats(0)
	for r, rs := range st.Replicas {
		reads := rs.FastReads + rs.SlowReads
		if reads < n/3/2 || reads > n/3*2 {
			t.Fatalf("replica %d served %d of %d reads", r, reads, n)
		}
	}
	if st.DegradedReads != 0 || st.DegradedWrites != 0 {
		t.Fatal("degraded counters on a healthy group")
	}
}

// TestCrashRecoverSemantics walks the fault state machine: crash errors
// (bad indices, double crash, last replica without a backstop), degraded
// writes below quorum, recovery re-sync accounting, and the object tier
// serving a fully-down group.
func TestCrashRecoverSemantics(t *testing.T) {
	var e sim.Engine
	cfg := replicaConfig(1, 2, 0.0)
	objRead, objWrite := 4*slowRead, 2*slowRead
	cfg.Object = &ObjectTier{Read: objRead, Write: objWrite, WriteThrough: true, ReadPromote: true}
	f, err := NewPartitioned(&e, rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if err := f.CrashReplica(5, 0); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if err := f.CrashReplica(0, 7); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
	if _, _, err := f.RecoverReplica(0, 0); err == nil {
		t.Fatal("recovered a live replica")
	}

	// Seed residency, then crash replica 1: writes ack below quorum
	// (2/2+1 = 2 > 1 live) and count degraded.
	writeLatency(f, 7)
	if err := f.CrashReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if live := liveReplicas(f, 0); live != 1 {
		t.Fatalf("live = %d after one crash", live)
	}
	if err := f.CrashReplica(0, 1); err == nil {
		t.Fatal("double crash accepted")
	}
	if lat := writeLatency(f, 8); lat != writeLat {
		t.Fatalf("degraded write latency %v, want surviving ack %v", lat, writeLat)
	}
	if f.PartitionStats(0).DegradedWrites == 0 {
		t.Fatal("write below quorum not counted degraded")
	}

	// Crash the survivor (allowed: object tier backstop). Reads now pay
	// the object read; writes the object write; both count degraded.
	if err := f.CrashReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if lat := readLatency(f, 9); lat != objRead {
		t.Fatalf("group-down read latency %v, want object %v", lat, objRead)
	}
	if lat := writeLatency(f, 10); lat != objWrite {
		t.Fatalf("group-down write latency %v, want object %v", lat, objWrite)
	}
	if f.PartitionStats(0).DegradedReads == 0 {
		t.Fatal("group-down read not counted degraded")
	}

	// Recover replica 0 alone: the re-sync source is the object tier and
	// the volume is the group's residency.
	blocks, source, err := f.RecoverReplica(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if source != "object" {
		t.Fatalf("sole recovery source %q, want object", source)
	}
	if blocks == 0 {
		t.Fatal("recovery re-synced no blocks despite residency")
	}
	// Recover replica 1: now the group is the source.
	if _, source, err = f.RecoverReplica(0, 1); err != nil || source != "group" {
		t.Fatalf("second recovery source %q err %v, want group", source, err)
	}
	st := f.PartitionStats(0)
	if st.Replicas[0].Resyncs != 1 || st.Replicas[0].ResyncBlocks == 0 {
		t.Fatalf("replica 0 resync accounting %+v", st.Replicas[0])
	}
	for r, rs := range st.Replicas {
		if !rs.Live {
			t.Fatalf("replica %d not live after recovery", r)
		}
	}

	// After full recovery, service is back to normal latencies.
	if lat := writeLatency(f, 11); lat != writeLat {
		t.Fatalf("recovered write latency %v, want %v", lat, writeLat)
	}
}

// TestLastReplicaCrashNeedsObjectTier: without the object tier the last
// live replica of a group refuses to crash — durability would be gone.
func TestLastReplicaCrashNeedsObjectTier(t *testing.T) {
	var e sim.Engine
	f, err := NewPartitioned(&e, rng.New(1), replicaConfig(2, 1, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CrashReplica(0, 0); err == nil {
		t.Fatal("crashed the last replica without a backstop")
	}
	// A two-replica group loses one fine, then refuses the second.
	g, err := NewPartitioned(&e, rng.New(1), replicaConfig(1, 2, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CrashReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.CrashReplica(0, 1); err == nil {
		t.Fatal("crashed the last live replica without a backstop")
	}
}

// TestCrashedReplicaTakesNoTraffic: after a crash the down replica's
// counters freeze; after recovery it serves again.
func TestCrashedReplicaTakesNoTraffic(t *testing.T) {
	var e sim.Engine
	f, err := NewPartitioned(&e, rng.New(8), replicaConfig(1, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CrashReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		readLatency(f, uint64(i))
		writeLatency(f, uint64(i))
	}
	st := f.PartitionStats(0)
	down := st.Replicas[1]
	if down.FastReads+down.SlowReads+down.Writes != 0 {
		t.Fatalf("down replica served traffic: %+v", down)
	}
	if down.Live {
		t.Fatal("down replica reports live")
	}
	if st.DegradedReads == 0 {
		t.Fatal("reads around a down replica not counted degraded")
	}
	if _, _, err := f.RecoverReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		writeLatency(f, uint64(i))
	}
	if st = f.PartitionStats(0); st.Replicas[1].Writes == 0 {
		t.Fatal("recovered replica acks no writes")
	}
}

// liveReplicas counts the serving replicas of a partition, as the run
// report's per-replica stats show them.
func liveReplicas(f *Filer, part int) int {
	live := 0
	for _, r := range f.PartitionStats(part).Replicas {
		if r.Live {
			live++
		}
	}
	return live
}

// TestReplicaAccessors: the trivial surface — group size, quorum
// normalization, live counts.
func TestReplicaAccessors(t *testing.T) {
	var e sim.Engine
	f, err := NewPartitioned(&e, rng.New(1), replicaConfig(2, 3, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(f.PartitionStats(1).Replicas); n != 3 {
		t.Fatalf("replicas = %d", n)
	}
	if f.cfg.WriteQuorum != 2 {
		t.Fatalf("default quorum = %d, want majority 2", f.cfg.WriteQuorum)
	}
	if live := liveReplicas(f, 1); live != 3 {
		t.Fatalf("live = %d", live)
	}
	// The lookahead floor ignores replication entirely.
	if f.MinServiceLatency() != fastRead {
		t.Fatalf("min service latency %v, want %v", f.MinServiceLatency(), fastRead)
	}
}

// TestRecoverReplicaBadIndices mirrors CrashReplica's range checks on the
// recovery side.
func TestRecoverReplicaBadIndices(t *testing.T) {
	var e sim.Engine
	f, err := NewPartitioned(&e, rng.New(1), replicaConfig(1, 2, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.RecoverReplica(3, 0); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if _, _, err := f.RecoverReplica(0, 5); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
}

// TestGroupDownWriteFloor: with the whole group down, a write pays the
// object-tier write, but never less than the block-tier write, the floor
// the sharded lookahead relies on.
func TestGroupDownWriteFloor(t *testing.T) {
	var e sim.Engine
	cfg := replicaConfig(1, 1, 0)
	cfg.Object = &ObjectTier{Read: 2 * slowRead, Write: writeLat / 2}
	f, err := NewPartitioned(&e, rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CrashReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if lat := writeLatency(f, 1); lat != writeLat {
		t.Fatalf("group-down write latency %v, want the block-tier floor %v", lat, writeLat)
	}
}

// TestMinServiceLatencySlowReadFirst: a slow read faster than the fast
// read sets the floor.
func TestMinServiceLatencySlowReadFirst(t *testing.T) {
	var e sim.Engine
	cfg := blockConfig(1, 0.5)
	cfg.SlowRead = fastRead / 2
	f, err := NewPartitioned(&e, rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.MinServiceLatency(); got != fastRead/2 {
		t.Fatalf("min service latency %v, want the slow read %v", got, fastRead/2)
	}
}

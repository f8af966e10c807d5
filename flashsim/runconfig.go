package flashsim

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"strconv"
)

// RunConfig is the one description of a run that cmd/flashsim's flags and
// flashsimd's wire config share: sizes in paper gigabytes, writes as a
// percentage, the architecture, policies and replacement by their short
// names, and the filer layout as a scenario-style filer block. Config
// builds the simulator configuration from it.
//
// Start from DefaultRunConfig: the defaults live there, not in the zero
// value, so an explicit 0 is zero ("write_pct": 0 is a read-only run).
// Filer fields keep the scenario filer block's meaning, where 0 inherits.
// The JSON tags omit zero fields: a marshalled RunConfig drops its
// explicit zeros, which then decode as defaults.
type RunConfig struct {
	Scale       int     `json:"scale,omitempty"`
	Arch        string  `json:"arch,omitempty"`
	RAMPolicy   string  `json:"ram_policy,omitempty"`
	FlashPolicy string  `json:"flash_policy,omitempty"`
	RAMGB       float64 `json:"ram_gb,omitempty"`
	FlashGB     float64 `json:"flash_gb,omitempty"`
	WSSGB       float64 `json:"wss_gb,omitempty"`
	WritePct    float64 `json:"write_pct,omitempty"`

	Hosts     int    `json:"hosts,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	SharedWSS bool   `json:"shared_wss,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`

	Persistent  bool    `json:"persistent,omitempty"`
	Cold        bool    `json:"cold,omitempty"`
	Recovered   bool    `json:"recovered,omitempty"`
	Protocol    bool    `json:"protocol,omitempty"`
	Replacement string  `json:"replacement,omitempty"`
	FTL         bool    `json:"ftl,omitempty"`
	Prefetch    float64 `json:"prefetch,omitempty"`

	Filer *ScenarioFilerSpec `json:"filer,omitempty"`

	Shards      int     `json:"shards,omitempty"`
	TraceSample float64 `json:"trace_sample,omitempty"`
	WallProfile bool    `json:"wall_profile,omitempty"`
}

// DefaultRunConfig returns the paper's baseline run at 1:scale, the run
// config whose Config is ScaledConfig(scale). Sizes are in paper GB, so
// every default but the scale itself is scale-independent.
func DefaultRunConfig(scale int) RunConfig {
	return RunConfig{
		Scale: scale, Arch: "naive", RAMPolicy: "p1", FlashPolicy: "a",
		RAMGB: 8, FlashGB: 64, WSSGB: 60, WritePct: 30,
		Hosts: 1, Threads: 8, Seed: 1,
		Replacement: "lru", Prefetch: 0.90,
	}
}

// Config builds the simulator configuration: it parses the architecture,
// policy and replacement names, scales the writeback policies, converts
// paper GB to blocks at 1:Scale, folds the filer block in through
// ApplyFilerSpec, and applies the auto shard rule — Shards 0 on a
// multi-host run picks GOMAXPROCS shards (at least two). It checks the
// scale, sizes and write percentage; the rest is left to Resolve, which
// runs before the simulation does.
func (rc RunConfig) Config() (Config, error) {
	if rc.Scale < 1 {
		return Config{}, fmt.Errorf("scale %d out of range", rc.Scale)
	}
	if rc.RAMGB < 0 || rc.FlashGB < 0 || rc.WSSGB < 0 {
		return Config{}, errors.New("cache and working-set sizes must be non-negative")
	}
	if !(rc.WritePct >= 0 && rc.WritePct <= 100) {
		return Config{}, fmt.Errorf("write_pct %g out of range [0, 100]", rc.WritePct)
	}
	cfg := ScaledConfig(rc.Scale)
	var errs [4]error
	cfg.Arch, errs[0] = ParseArchitecture(rc.Arch)
	cfg.RAMPolicy, errs[1] = ParsePolicy(rc.RAMPolicy)
	cfg.FlashPolicy, errs[2] = ParsePolicy(rc.FlashPolicy)
	cfg.FlashReplacement, errs[3] = ParseReplacement(rc.Replacement)
	if err := errors.Join(errs[:]...); err != nil {
		return Config{}, err
	}
	cfg.RAMPolicy = ScalePolicy(cfg.RAMPolicy, rc.Scale)
	cfg.FlashPolicy = ScalePolicy(cfg.FlashPolicy, rc.Scale)
	blocks := func(gb float64) int { return int(gb * float64(BlocksPerGB) / float64(rc.Scale)) }
	cfg.RAMBlocks = blocks(rc.RAMGB)
	cfg.FlashBlocks = blocks(rc.FlashGB)
	cfg.Workload.WorkingSetBlocks = int64(blocks(rc.WSSGB))
	cfg.Workload.WriteFraction = rc.WritePct / 100
	cfg.Hosts = rc.Hosts
	cfg.ThreadsPerHost = rc.Threads
	cfg.Workload.SharedWorkingSet = rc.SharedWSS
	cfg.Workload.Seed = rc.Seed
	cfg.PersistentFlash = rc.Persistent
	cfg.ColdStart = rc.Cold
	cfg.RecoveredStart = rc.Recovered
	cfg.ConsistencyProtocol = rc.Protocol
	cfg.FTLBackedFlash = rc.FTL
	cfg.Timing.FilerFastReadRate = rc.Prefetch
	cfg.TraceSample = rc.TraceSample
	cfg.WallProfile = rc.WallProfile
	cfg, err := ApplyFilerSpec(cfg, rc.Filer)
	if err != nil {
		return Config{}, err
	}
	cfg.Shards = rc.Shards
	if cfg.Shards == 0 && cfg.Hosts > 1 {
		// Auto mode always selects the cluster executor (minimum two
		// shards): cluster results are identical for every shard count,
		// so the default multi-host output does not depend on how many
		// cores this machine happens to have.
		cfg.Shards = max(runtime.GOMAXPROCS(0), 2)
	}
	return cfg, nil
}

// RegisterFlags declares cmd/flashsim's run flags on fs, each writing the
// field it names, with the receiver's current values as the defaults. The
// -filer-* and -object-* flags write into rc.Filer, allocated when nil;
// -object-write-through and -object-read-promote set their pointer only
// when passed. WSSGB and WritePct have no flag: the CLI sweeps them as
// the -wss and -writes lists and sets them per grid point.
func (rc *RunConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&rc.Scale, "scale", rc.Scale, "size scale divisor")
	fs.StringVar(&rc.Arch, "arch", rc.Arch, "cache architecture: naive, lookaside, unified")
	fs.StringVar(&rc.RAMPolicy, "ram-policy", rc.RAMPolicy, "RAM writeback policy: s, a, pN, n")
	fs.StringVar(&rc.FlashPolicy, "flash-policy", rc.FlashPolicy, "flash writeback policy: s, a, pN, n")
	fs.Float64Var(&rc.RAMGB, "ram", rc.RAMGB, "RAM cache size in paper GB")
	fs.Float64Var(&rc.FlashGB, "flash", rc.FlashGB, "flash cache size in paper GB")

	fs.IntVar(&rc.Hosts, "hosts", rc.Hosts, "number of hosts")
	fs.IntVar(&rc.Threads, "threads", rc.Threads, "threads per host")
	fs.BoolVar(&rc.SharedWSS, "shared-wss", rc.SharedWSS, "hosts share one working set")
	fs.Uint64Var(&rc.Seed, "seed", rc.Seed, "workload seed")

	fs.BoolVar(&rc.Persistent, "persistent", rc.Persistent, "persistent (recoverable) flash cache")
	fs.BoolVar(&rc.Cold, "cold", rc.Cold, "cold start: skip warmup (simulates a crash)")
	fs.BoolVar(&rc.Recovered, "recovered", rc.Recovered, "recovered start: crash + persistent-cache recovery")
	fs.BoolVar(&rc.Protocol, "protocol", rc.Protocol, "callback consistency protocol instead of instant invalidation")
	fs.StringVar(&rc.Replacement, "replacement", rc.Replacement, "flash replacement policy: lru, fifo, clock, slru, 2q")
	fs.BoolVar(&rc.FTL, "ftl", rc.FTL, "route flash traffic through the FTL device simulator")
	fs.Float64Var(&rc.Prefetch, "prefetch", rc.Prefetch, "filer fast-read (prefetch success) rate")

	if rc.Filer == nil {
		rc.Filer = &ScenarioFilerSpec{}
	}
	f := rc.Filer
	fs.IntVar(&f.Partitions, "filer-partitions", f.Partitions, "filer backend partitions: blocks are hash-routed over this many independent backends, results identical at every count (0 = 1)")
	fs.IntVar(&f.Replicas, "filer-replicas", f.Replicas, "filer replicas per partition: reads go to the fastest live replica, writes complete at the quorum-th ack, results identical at every count (0 = 1)")
	fs.IntVar(&f.WriteQuorum, "filer-quorum", f.WriteQuorum, "filer write quorum: acks a write waits for (0 = majority, replicas/2+1)")
	fs.Float64Var(&f.SlowReplicaFactor, "filer-slow-replica", f.SlowReplicaFactor, "scale the last replica of every filer partition group's latencies by this factor (the one-slow-backend scenario; requires -filer-replicas >= 2)")
	fs.BoolVar(&f.ObjectTier, "object-tier", f.ObjectTier, "enable the object tier behind the filer's block tier (S3-behind-EBS)")
	fs.Float64Var(&f.ObjectReadMicros, "object-read", f.ObjectReadMicros, "object-tier read latency in microseconds (0 = timing model default)")
	fs.Float64Var(&f.ObjectWriteMicros, "object-write", f.ObjectWriteMicros, "object-tier write latency in microseconds (0 = timing model default)")
	fs.BoolFunc("object-write-through", "copy buffered writes to the object tier in the background (default true)", setOptBool(&f.WriteThrough))
	fs.BoolFunc("object-read-promote", "install object-served blocks into the block tier (default true)", setOptBool(&f.ReadPromote))

	fs.IntVar(&rc.Shards, "shards", rc.Shards, "engine shards within one simulation: hosts are partitioned over this many parallel event engines, results identical at every count (0 = GOMAXPROCS cluster for multi-host; for one host, a one-shard cluster for scenarios and the sequential engine for steady-state runs; >= 1 forces the cluster, at most one shard per host; reports show the count that ran)")
	fs.Float64Var(&rc.TraceSample, "trace-sample", rc.TraceSample, "fraction of requests to trace through their pipeline stages (0 disables; the sampled set is deterministic and shard-invariant)")
	fs.BoolVar(&rc.WallProfile, "wall-profile", rc.WallProfile, "profile where wall-clock time goes inside a sharded run (barrier wait, exchange merge, filer service); reported by -epochstats and the report's wall_clock section")
}

// setOptBool returns a boolean flag's setter for an optional *bool: the
// pointer stays nil unless the flag is passed, so the object tier's own
// default (true) applies otherwise.
func setOptBool(p **bool) func(string) error {
	return func(s string) error {
		v, err := strconv.ParseBool(s)
		*p = &v
		return err
	}
}

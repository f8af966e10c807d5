package flashsim

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// fleetConfig returns a small multi-host configuration that exercises the
// sharded executor's full surface: demand fetches, background writebacks,
// periodic syncers, and cross-host invalidations on a shared working set.
func fleetConfig(hosts int) Config {
	cfg := ScaledConfig(4096)
	cfg.Hosts = hosts
	cfg.ThreadsPerHost = 4
	cfg.Workload.SharedWorkingSet = true
	return cfg
}

// runWithShards forces the sharded executor at the given shard count.
func runWithShards(t *testing.T, cfg Config, shards int) *Result {
	t.Helper()
	cfg.Shards = shards
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(shards=%d): %v", shards, err)
	}
	return scrubRuntime(res)
}

// TestShardedShardCountInvariance locks the sharded determinism contract:
// one configuration, executed at -shards 1/2/4/8, produces bit-identical
// results — every latency, histogram bucket, filer counter and
// invalidation count — regardless of how hosts are partitioned. (Shards=0
// selects the classic sequential engine, whose per-run determinism the
// golden SHA-256 matrix locks.)
func TestShardedShardCountInvariance(t *testing.T) {
	cfg := fleetConfig(8)
	ref := runWithShards(t, cfg, 1)
	for _, shards := range []int{2, 4, 8} {
		got := runWithShards(t, cfg, shards)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("shards=%d diverged from shards=1:\nref: %+v\ngot: %+v", shards, ref, got)
		}
	}
}

// TestShardedRepeatDeterminism re-runs one sharded configuration and
// requires identical results.
func TestShardedRepeatDeterminism(t *testing.T) {
	cfg := fleetConfig(4)
	a := runWithShards(t, cfg, 4)
	b := runWithShards(t, cfg, 4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeat sharded run diverged:\na: %+v\nb: %+v", a, b)
	}
}

// TestShardedMatchesSequentialStatistically compares the sharded executor
// against the classic sequential path. The two are deliberately not
// bit-identical (per-host pump windows, barrier-deferred invalidation; see
// docs/ARCHITECTURE.md), but they simulate the same fleet and must agree
// closely on every aggregate the paper reports.
func TestShardedMatchesSequentialStatistically(t *testing.T) {
	// Private working sets: invalidations are rare, so the only semantic
	// differences in play are the per-host pump windows and the barrier-
	// quantized syncer shutdown. The shared-working-set worst case, where
	// deferred invalidation lets stale copies live up to one epoch longer
	// and so inflates hit rates slightly, is checked separately below.
	cfg := fleetConfig(4)
	cfg.Workload.SharedWorkingSet = false
	seq, err := Run(cfg)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	shd := runWithShards(t, cfg, 4)

	relClose := func(name string, a, b, tol float64) {
		t.Helper()
		denom := math.Max(math.Abs(a), math.Abs(b))
		if denom == 0 {
			return
		}
		if rel := math.Abs(a-b) / denom; rel > tol {
			t.Errorf("%s: sequential %.4f vs sharded %.4f (rel diff %.3f > %.3f)",
				name, a, b, rel, tol)
		}
	}
	relClose("read latency", seq.ReadLatencyMicros, shd.ReadLatencyMicros, 0.15)
	relClose("write latency", seq.WriteLatencyMicros, shd.WriteLatencyMicros, 0.15)
	relClose("RAM hit rate", seq.RAMHitRate, shd.RAMHitRate, 0.05)
	relClose("flash hit rate", seq.FlashHitRate, shd.FlashHitRate, 0.05)
	relClose("blocks issued", float64(seq.BlocksIssued), float64(shd.BlocksIssued), 0.01)
	relClose("filer writes", float64(seq.FilerWrites), float64(shd.FilerWrites), 0.15)
	// Completion time is the noisiest aggregate here: it is set by the
	// straggler host's final few reads, where a single fast/slow filer
	// draw differing between the paths moves the end by ~8ms. The mean
	// aggregates above stay within a couple of percent; the straggler
	// tail gets the loosest bound.
	relClose("simulated seconds", seq.SimulatedSeconds, shd.SimulatedSeconds, 0.20)

	// Shared working set: the paper's consistency worst case. Deferred
	// invalidation biases hit rates up by at most one epoch's staleness,
	// so the comparison is looser but must still track the same story.
	shared := fleetConfig(4)
	seqS, err := Run(shared)
	if err != nil {
		t.Fatalf("sequential shared run: %v", err)
	}
	shdS := runWithShards(t, shared, 4)
	relClose("shared invalidation fraction", seqS.InvalidationFraction, shdS.InvalidationFraction, 0.15)
	relClose("shared flash hit rate", seqS.FlashHitRate, shdS.FlashHitRate, 0.10)
	relClose("shared read latency", seqS.ReadLatencyMicros, shdS.ReadLatencyMicros, 0.15)
}

// TestShardedValidation exercises the sharded-mode configuration edges:
// a negative count is rejected, while the features the cluster used to
// refuse (the callback protocol, recovered starts, single-host fleets)
// now run — their invariance is locked by the tests above and below.
func TestShardedValidation(t *testing.T) {
	cfg := fleetConfig(2)
	cfg.Shards = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative shard count should fail")
	}

	// A single-host cluster clamps to one shard and runs.
	cfg = ScaledConfig(4096)
	cfg.Shards = 2
	if _, err := Run(cfg); err != nil {
		t.Errorf("single-host cluster: %v", err)
	}
}

// TestShardedProtocolShardCountInvariance extends the determinism contract
// to the callback consistency protocol: ownership acquisitions, holder
// callbacks and downgrades all cross the epoch barrier, so the protocol
// counters and every latency are bit-identical at any shard count.
func TestShardedProtocolShardCountInvariance(t *testing.T) {
	cfg := fleetConfig(8)
	cfg.ConsistencyProtocol = true
	ref := runWithShards(t, cfg, 1)
	if ref.ControlMessages == 0 || ref.OwnershipAcquires == 0 {
		t.Fatalf("protocol run recorded no protocol traffic: %+v", ref)
	}
	if ref.Downgrades == 0 {
		t.Error("shared working set produced no downgrades")
	}
	for _, shards := range []int{2, 4, 8} {
		got := runWithShards(t, cfg, shards)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("protocol shards=%d diverged from shards=1:\nref: %+v\ngot: %+v", shards, ref, got)
		}
	}
}

// shardedProtocolGolden pins one protocol-on cluster run the way the
// sequential golden matrix pins the registry path; shard count is
// irrelevant (invariance above), so the lock runs at shards=2. Captured
// when the sharded protocol was built.
const shardedProtocolGolden = "04f9d2a9d250cdeec4180cc572e2187fd392cc3b73d4e6018e3fc8aa7d2b2ba7"

// shardedInstantGolden pins one instant-consistency cluster run: shard
// count invariance cannot see a drift every shard count shares. Captured
// before the cluster's instant invalidation sink became a consistency port.
const shardedInstantGolden = "3e1851da64d169ba69ecd0f91f9cb60745fcb68d46142a5d9619f7ce2897008d"

func TestShardedInstantGoldenChecksum(t *testing.T) {
	cfg := fleetConfig(4)
	cfg.Shards = 2
	if got := resultChecksum(t, cfg); got != shardedInstantGolden {
		t.Errorf("sharded instant checksum drifted:\ngot  %s\nwant %s", got, shardedInstantGolden)
	}
}

func TestShardedProtocolGoldenChecksum(t *testing.T) {
	cfg := fleetConfig(4)
	cfg.ConsistencyProtocol = true
	cfg.Shards = 2
	if got := resultChecksum(t, cfg); got != shardedProtocolGolden {
		t.Errorf("sharded protocol checksum drifted:\ngot  %s\nwant %s", got, shardedProtocolGolden)
	}
}

// shardedStartGoldens pin cluster runs that shard-count invariance cannot
// guard alone (a drift every shard count shares): a crash-recovered start,
// a cold start, and an explicit trace recorded on more hosts than the
// cluster has, replayed with a warmup that each host takes its share of.
// Captured before the steady-state and scenario runs shared one cluster
// coordinator.
var shardedStartGoldens = []struct {
	name string
	run  func(cfg Config) (*Result, error)
	want string
}{
	{"recovered-start", func(cfg Config) (*Result, error) {
		cfg.PersistentFlash = true
		cfg.RecoveredStart = true
		return Run(cfg)
	}, "bc3b62626f30240b2bf8891f610024054958c52ffec9e32e30ee45c163b1d7f3"},
	{"cold-start", func(cfg Config) (*Result, error) {
		cfg.ColdStart = true
		return Run(cfg)
	}, "30b766cc4c860be983575fc4099d9c63ca6b4e0ca435d1ef1040ad95d6727e69"},
	{"trace-wider-than-cluster", func(cfg Config) (*Result, error) {
		wide := cfg
		wide.Hosts = 6
		fs, err := workloadFileSet(wide)
		if err != nil {
			return nil, err
		}
		gen, err := tracegen.NewGenerator(tracegen.Config{
			Seed:             wide.Workload.Seed,
			Hosts:            wide.Hosts,
			ThreadsPerHost:   wide.ThreadsPerHost,
			WorkingSetBlocks: wide.Workload.WorkingSetBlocks,
			SharedWorkingSet: true,
			WriteFraction:    wide.Workload.WriteFraction,
			MeanIOBlocks:     wide.Workload.MeanIOBlocks,
			FileSet:          fs,
		})
		if err != nil {
			return nil, err
		}
		return RunTrace(cfg, gen, gen.WarmupBlocks())
	}, "d8b93689d3e6e0358219f2ededfbe17fa49f92a8cfde0defd0cb48c0610a7ee6"},
}

func TestShardedStartGoldenChecksums(t *testing.T) {
	for _, tc := range shardedStartGoldens {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fleetConfig(4)
			cfg.Shards = 2
			res, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(scrubRuntime(res).String()))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s checksum drifted:\ngot  %s\nwant %s", tc.name, got, tc.want)
			}
		})
	}
}

// TestShardedRecoveredStart locks crash recovery on the cluster: the
// prefill and the metadata scan + dirty flush drain through the epoch
// barrier, the recovery delay is reported, and the result is invariant
// across shard counts.
func TestShardedRecoveredStart(t *testing.T) {
	cfg := fleetConfig(4)
	cfg.PersistentFlash = true
	cfg.RecoveredStart = true
	ref := runWithShards(t, cfg, 1)
	if ref.RecoverySeconds <= 0 {
		t.Fatalf("recovered start reported no recovery delay: %+v", ref)
	}
	for _, shards := range []int{2, 4} {
		got := runWithShards(t, cfg, shards)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("recovered shards=%d diverged from shards=1:\nref: %+v\ngot: %+v", shards, ref, got)
		}
	}
}

// feedAll feeds the whole source into a new feeder and returns each
// host's ops.
func feedAll(src trace.Source, hosts int) (perHost [][]trace.Op, blocks []int64, total int64) {
	f := newFeeder(hosts)
	total = f.feed(src, math.MaxInt64)
	perHost = make([][]trace.Op, hosts)
	for h, q := range f.queues {
		perHost[h] = q.Pending()
	}
	return perHost, f.blocks, total
}

// drainQueues consumes every queued op.
func drainQueues(queues []*trace.QueueSource) {
	for _, q := range queues {
		for {
			if _, ok := q.Next(); !ok {
				break
			}
		}
	}
}

// resetFeeder returns f to a new feeder's state without allocating.
func resetFeeder(f *feeder) {
	for _, q := range f.queues {
		*q = trace.QueueSource{}
	}
	f.placed = nil
}

// TestSplitTrace checks the feeder's per-host split — stable order, host
// clamping, block volumes — and locks its allocations: they must not grow
// with the host count, since every per-host queue is a window of one
// backing array.
func TestSplitTrace(t *testing.T) {
	ops := make([]trace.Op, 4096)
	for i := range ops {
		ops[i] = trace.Op{Host: uint16(i * 7 % 1500), Kind: trace.Read, File: 1, Block: uint32(i), Count: uint32(1 + i%5)}
	}
	for _, hosts := range []int{1, 3, 1024} {
		perHost, blocks, total := feedAll(trace.NewSliceSource(ops), hosts)
		want := make([][]trace.Op, hosts)
		wantBlocks := make([]int64, hosts)
		var wantTotal int64
		for _, op := range ops {
			hi := int(op.Host) % hosts
			want[hi] = append(want[hi], op)
			wantBlocks[hi] += int64(op.Count)
			wantTotal += int64(op.Count)
		}
		for h := range want {
			if len(want[h]) == 0 && len(perHost[h]) == 0 {
				continue
			}
			if !reflect.DeepEqual(perHost[h], want[h]) {
				t.Fatalf("hosts=%d: host %d stream differs from a stable split", hosts, h)
			}
		}
		if !reflect.DeepEqual(blocks, wantBlocks) || total != wantTotal {
			t.Fatalf("hosts=%d: blocks %v total %d, want %v %d", hosts, blocks, total, wantBlocks, wantTotal)
		}
	}

	// A new feeder's first feed allocates the placed array, plus
	// feedChunkAllocs for the chunks. None depends on the host count. The
	// collector's first cycle allocates its workers, so it runs before the
	// measurement; averaging over 20 calls absorbs fewer than 20 stray
	// runtime allocations.
	want := float64(1 + feedChunkAllocs(len(ops)))
	src := trace.NewSliceSource(ops)
	runtime.GC()
	for _, hosts := range []int{4, 1024} {
		f := newFeeder(hosts)
		got := testing.AllocsPerRun(20, func() {
			src.Reset()
			resetFeeder(f)
			f.feed(src, math.MaxInt64)
		})
		if got != want {
			t.Errorf("a feed allocated %v times at %d hosts, want %v", got, hosts, want)
		}
	}
}

// TestSplitTraceRefill feeds the same queues twice, as a scenario's
// successive phases do. Ops still pending from the first feed stay ahead
// of the second's, in order; and once the queues have drained, the second
// feed places into the first's array and allocates only its chunks — no
// queue grows, whatever the host count.
func TestSplitTraceRefill(t *testing.T) {
	ops := make([]trace.Op, 4096)
	for i := range ops {
		ops[i] = trace.Op{Host: uint16(i * 7 % 1500), Thread: uint16(i % 3), Kind: trace.Write, File: 2, Block: uint32(i), Count: 1}
	}
	// A remap that sends every odd host to its even neighbour, the way a
	// detached host's ops go to an attached one.
	route := func(hosts int) []int {
		r := make([]int, hosts)
		for h := range r {
			r[h] = h &^ 1
		}
		return r
	}

	// Half the ops, a partial drain, then the rest: each host's queue is
	// its pending ops from the first feed followed by its new ones.
	const hosts = 6
	f := newFeeder(hosts)
	f.route = route(hosts)
	src := trace.NewSliceSource(ops)
	f.feed(src, int64(len(ops)/2))
	for _, q := range f.queues {
		q.Next()
	}
	f.feed(src, math.MaxInt64)
	want := make([][]trace.Op, hosts)
	for _, op := range ops {
		h := int(op.Host) % hosts &^ 1
		want[h] = append(want[h], op)
	}
	for h, q := range f.queues {
		if len(want[h]) > 0 {
			want[h] = want[h][1:] // the partial drain took one op
		}
		if got := q.Pending(); len(got) != len(want[h]) || (len(got) > 0 && !reflect.DeepEqual(got, want[h])) {
			t.Fatalf("host %d: refilled queue differs from its pending ops followed by the new ones", h)
		}
	}

	// Two feeds of equal size with a full drain between them, the shape
	// of crash-recovery's two phases: only the first allocates a placed
	// array.
	wantAllocs := 1 + 2*feedChunkAllocs(len(ops)/2)
	runtime.GC()
	for _, hosts := range []int{4, 1024} {
		f := newFeeder(hosts)
		f.route = route(hosts)
		got := testing.AllocsPerRun(20, func() {
			src.Reset()
			resetFeeder(f)
			f.feed(src, int64(len(ops)/2))
			drainQueues(f.queues)
			f.feed(src, math.MaxInt64)
			drainQueues(f.queues)
		})
		if got != float64(wantAllocs) {
			t.Errorf("two feeds allocated %v times at %d hosts, want %v", got, hosts, wantAllocs)
		}
	}
}

// feedChunkAllocs counts the allocations a feed makes for n ops'
// chunks: one per chunk, sized by feedChunkOps, and one each time the
// chunk list outgrows its capacity.
func feedChunkAllocs(n int) int {
	allocs := 0
	var list [][]trace.Op
	for drained := 0; drained < n; drained += feedChunkOps(drained) {
		if len(list) == cap(list) {
			allocs++
		}
		list = append(list, nil)
		allocs++
	}
	return allocs
}

// TestSplitTraceBytes locks how much the feeder allocates: the drained
// chunks and the placed array hold the trace twice, with at most one
// partly filled chunk on top. A slice grown by append leaves copies behind
// that add up to several times the trace, and how many of them the
// collector has freed by the time the placed array is allocated is a
// matter of timing.
func TestSplitTraceBytes(t *testing.T) {
	const n = 100_000
	ops := make([]trace.Op, n)
	for i := range ops {
		ops[i] = trace.Op{Host: uint16(i % 4), Kind: trace.Read, File: 1, Block: uint32(i), Count: 1}
	}
	src := trace.NewSliceSource(ops)
	f := newFeeder(4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.feed(src, math.MaxInt64)
	runtime.ReadMemStats(&after)
	size := uint64(unsafe.Sizeof(trace.Op{}))
	limit := uint64(2*n+feedChunkOps(n))*size + 4<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("a feed allocated %d bytes for %d ops of %d bytes: want at most %d", got, n, size, limit)
	}
}

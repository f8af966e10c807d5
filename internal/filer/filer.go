// Package filer models the networked file server. The paper deliberately
// uses a coarse model (§5): "a 'fast' latency for cache hits, a 'slow'
// latency for misses, and a prefetch success rate that determines what
// fraction of reads are fast. (Which reads are fast is random. Writes are
// buffered and always fast.)" The filer itself is a high-end box with
// sophisticated caching, so it serves requests concurrently; contention is
// on the network segments, not inside the filer.
//
// # Partitioned backends
//
// The namespace can be partitioned over N independent backends (Config.
// Partitions): every block key routes to exactly one partition by a
// deterministic hash, and each partition keeps its own service counters,
// block-tier residency and barrier queue gauges. Partitioning never changes
// simulated results — the fast/slow draw comes from ONE shared stream
// consumed in global service order, and per-block tier state lives wholly
// inside the block's one partition, so the union over partitions is the
// same set for every partition count. What partitioning changes is the
// load accounting: how many requests each backend absorbs per barrier (see
// core/cluster.go, whose barrier services every partition in one serial
// walk).
//
// # Replica groups
//
// Each partition is a replica group of Config.Replicas independent copies
// (R = 1 is the classic single backend). A read is served by the fastest
// live replica for its drawn fast/slow outcome — ties broken by spare bits
// of the same RNG draw that decided the outcome, so the whole decision
// costs exactly one draw and results stay bit-identical for every replica
// count. A write is acknowledged by every live replica but completes at
// the quorum-th ack (Config.WriteQuorum, default R/2+1): with homogeneous
// replica timing the quorum-th ack equals the single-backend write
// latency, which is what keeps R a pure redundancy knob. Heterogeneity is
// opt-in: Config.SlowReplicaFactor scales the last replica of every group
// — the one-slow-backend tail-latency scenario — and reads simply route
// around it while write-all quorums (W = R) are dragged by it.
//
// A replica can crash (CrashReplica) and recover (RecoverReplica) between
// epochs: a crashed replica stops serving, reads route to the survivors,
// and writes degrade to the surviving quorum. When every replica of a
// group is down the object tier — if configured — serves as the
// durability backstop at object-tier latency; crashing the last live
// replica without one is an error. Recovery re-syncs the replica from its
// group (or from the object tier when it comes back alone) and is
// accounting-only: the group shares one residency map, so a resynced
// replica is current by construction.
//
// # Object tier
//
// Behind the block tier an optional object tier (Config.Object) models an
// S3-behind-EBS hierarchy: higher latency, effectively unbounded
// throughput. A read that misses the filer's prefetch cache and whose
// block is not resident in the block tier pays the object-tier read
// latency instead of the block-tier slow read; ReadPromote installs the
// block into the block tier afterward. Writes land in the nonvolatile
// buffer (always fast for the client) and make the block block-tier
// resident; WriteThrough additionally copies it to the object tier in the
// background (accounted, not charged to the client).
package filer

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// MaxReplicas bounds a partition's replica group size; quorum fan-out is
// O(R) on the write path, so the bound keeps the hot loop small.
const MaxReplicas = 8

// ObjectTier configures the optional object store behind the block tier.
type ObjectTier struct {
	// Read is the object-store read (GET) latency paid by a block-tier
	// miss; it must not undercut the block tier's slow read.
	Read sim.Time
	// Write is the object-store write (PUT) latency. Write-through copies
	// happen in the background, so this is accounting, not client latency.
	Write sim.Time
	// WriteThrough copies every buffered write to the object tier.
	WriteThrough bool
	// ReadPromote installs a block served from the object tier into the
	// block tier, so re-reads pay the block-tier slow read instead.
	ReadPromote bool
}

// Config describes a (possibly partitioned, possibly replicated, possibly
// tiered) filer.
type Config struct {
	// Partitions is the number of independent backends the namespace is
	// hashed over; it must be at least 1.
	Partitions int

	// Replicas is the number of copies in each partition's replica group
	// (1..MaxReplicas); 0 selects 1, the classic single backend.
	Replicas int

	// WriteQuorum is the ack count a write waits for (1..Replicas); 0
	// selects the majority quorum Replicas/2+1.
	WriteQuorum int

	// SlowReplicaFactor, when > 1, scales the last replica of every
	// group's service latencies by this factor — the one-slow-backend
	// tail-latency scenario. It requires Replicas >= 2 (a sole replica
	// cannot be "the slow one of its group"); 0 and 1 mean homogeneous.
	SlowReplicaFactor float64

	// FastRead, SlowRead and Write are the block-tier service latencies;
	// PrefetchRate is the fraction of reads served fast.
	FastRead     sim.Time
	SlowRead     sim.Time
	Write        sim.Time
	PrefetchRate float64

	// Object, when non-nil, layers the object tier behind the block tier.
	Object *ObjectTier
}

// WithDefaults returns the configuration with its zero values resolved:
// one replica, the majority write quorum Replicas/2+1 and a homogeneous
// group (slow-replica factor 1). Negative values pass through for
// Validate to reject.
func (c Config) WithDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.WriteQuorum == 0 {
		c.WriteQuorum = c.Replicas/2 + 1
	}
	if c.SlowReplicaFactor == 0 {
		c.SlowReplicaFactor = 1
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Partitions < 1 {
		return fmt.Errorf("filer: partition count %d below 1", c.Partitions)
	}
	d := c.WithDefaults()
	if c.Replicas < 0 || d.Replicas > MaxReplicas {
		return fmt.Errorf("filer: replicas %d out of [1,%d]", c.Replicas, MaxReplicas)
	}
	if c.WriteQuorum < 0 || d.WriteQuorum > d.Replicas {
		return fmt.Errorf("filer: write quorum %d out of [1,%d]", d.WriteQuorum, d.Replicas)
	}
	if f := c.SlowReplicaFactor; math.IsNaN(f) || math.IsInf(f, 0) || (f != 0 && f < 1) {
		return fmt.Errorf("filer: slow replica factor %v below 1", f)
	}
	if d.SlowReplicaFactor > 1 && d.Replicas < 2 {
		return fmt.Errorf("filer: slow replica factor %v needs at least 2 replicas", c.SlowReplicaFactor)
	}
	if c.FastRead < 0 || c.SlowRead < 0 || c.Write < 0 {
		return fmt.Errorf("filer: negative latency")
	}
	if math.IsNaN(c.PrefetchRate) || c.PrefetchRate < 0 || c.PrefetchRate > 1 {
		return fmt.Errorf("filer: prefetch rate %v out of [0,1]", c.PrefetchRate)
	}
	if o := c.Object; o != nil {
		if o.Read < 0 || o.Write < 0 {
			return fmt.Errorf("filer: negative object-tier latency")
		}
		if o.Read < c.SlowRead {
			return fmt.Errorf("filer: object-tier read latency %v below block-tier slow read %v", o.Read, c.SlowRead)
		}
	}
	return nil
}

// ReplicaStats is one replica's accounting inside its partition group.
// Reads are attributed to the one replica that served them; writes count
// on every replica that acknowledged (all live ones), so replica write
// counters sum to at least the partition's request count — they are
// replication traffic, not request traffic.
type ReplicaStats struct {
	FastReads   uint64
	SlowReads   uint64
	ObjectReads uint64
	Writes      uint64

	// Resyncs counts recoveries of this replica; ResyncBlocks is the
	// total block volume those resyncs copied (the group's residency at
	// recovery time, when tracked).
	Resyncs      uint64
	ResyncBlocks uint64

	// Live reports whether the replica was serving when the stats were
	// taken.
	Live bool
}

// PartitionStats is one backend partition's load accounting. The service
// counters are properties of the global service order, so they are
// identical for every shard count; the barrier queue gauges exist only on
// sharded runs (the sequential path services requests at arrival, with no
// queue to observe).
type PartitionStats struct {
	FastReads    uint64
	SlowReads    uint64
	ObjectReads  uint64
	Writes       uint64
	ObjectWrites uint64

	// DegradedReads counts reads served while the group was below full
	// strength (routed around a crashed replica, or object-served with
	// the whole group down); DegradedWrites counts writes acknowledged by
	// fewer live replicas than the configured quorum.
	DegradedReads  uint64
	DegradedWrites uint64

	// Replicas is the per-replica split, in replica order.
	Replicas []ReplicaStats

	// MaxBarrierQueue is the most requests this partition absorbed at one
	// epoch barrier; MeanBarrierQueue averages over barriers that carried
	// any filer traffic at all.
	MaxBarrierQueue  int
	MeanBarrierQueue float64
}

// Serviced is the total requests the partition serviced.
func (p PartitionStats) Serviced() uint64 {
	return p.FastReads + p.SlowReads + p.ObjectReads + p.Writes
}

// replica is one copy's private state inside a partition group.
type replica struct {
	fastLat  sim.Time
	slowLat  sim.Time
	writeLat sim.Time
	live     bool

	fastReads    uint64
	slowReads    uint64
	objectReads  uint64
	writes       uint64
	resyncs      uint64
	resyncBlocks uint64
}

// partition is one backend's private state: the request-level counters
// (unchanged by replication — a request is counted once however many
// replicas ack it) plus the replica group.
type partition struct {
	fastReads      uint64
	slowReads      uint64
	objectReads    uint64
	writes         uint64
	objectWrites   uint64
	degradedReads  uint64
	degradedWrites uint64

	// reps is the replica group; live counts the serving members.
	reps []replica
	live int

	// resident tracks block-tier residency for the object tier. The group
	// shares one map: replication copies blocks, it does not re-partition
	// them, and recovery re-syncs a replica to exactly this set. Nil
	// without the object tier.
	resident map[uint64]struct{}

	// Barrier queue gauges (sharded runs; see ObserveBarrierQueue).
	maxQueue int
	queueSum uint64
	queueObs uint64
}

// Filer is the shared file server: a partitioned, replicated, optionally
// tiered backend set with one shared fast/slow draw stream.
type Filer struct {
	eng *sim.Engine
	rnd *rng.RNG
	cfg Config // with defaults resolved

	parts []partition
}

// NewPartitioned returns the filer described by the configuration.
func NewPartitioned(eng *sim.Engine, rnd *rng.RNG, cfg Config) (*Filer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	f := &Filer{
		eng:   eng,
		rnd:   rnd,
		cfg:   cfg,
		parts: make([]partition, cfg.Partitions),
	}
	for i := range f.parts {
		p := &f.parts[i]
		if cfg.Object != nil {
			p.resident = make(map[uint64]struct{})
		}
		p.reps = make([]replica, cfg.Replicas)
		p.live = cfg.Replicas
		for r := range p.reps {
			rep := &p.reps[r]
			rep.live = true
			rep.fastLat = cfg.FastRead
			rep.slowLat = cfg.SlowRead
			rep.writeLat = cfg.Write
			if r == cfg.Replicas-1 && cfg.SlowReplicaFactor > 1 {
				// The group's one slow backend: every latency scaled by
				// the factor (a pure function of the configuration, so
				// identical on every run and executor).
				s := cfg.SlowReplicaFactor
				rep.fastLat = sim.Time(math.Round(float64(cfg.FastRead) * s))
				rep.slowLat = sim.Time(math.Round(float64(cfg.SlowRead) * s))
				rep.writeLat = sim.Time(math.Round(float64(cfg.Write) * s))
			}
		}
	}
	return f, nil
}

// Partitions returns the number of backend partitions.
func (f *Filer) Partitions() int { return len(f.parts) }

// Route maps a block key to its one backend partition: a SplitMix64-style
// finalizer over the key, reduced mod the partition count. The hash is a
// pure function of (key, partition count) — stable across runs, instances
// and platforms — so a block's partition never depends on execution order.
func (f *Filer) Route(key uint64) int {
	if len(f.parts) == 1 {
		return 0
	}
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(len(f.parts)))
}

// DrawReadAt consumes one read decision from the shared draw stream: the
// fast/slow outcome plus the serving replica of the key's partition. The
// stream is shared across partitions deliberately: sharded runs draw in
// globally sorted arrival order, so outcomes depend only on that order —
// never on the partition, replica or shard count.
//
// The replica-count invariance hinges on the draw accounting. With one
// replica the classic rng.Bool path runs unchanged (zero draws at rate 0
// or 1, one otherwise). With R >= 2 every read consumes exactly one
// 64-bit draw: the top 53 bits decide fast/slow exactly as rng.Bool's
// Float64 comparison would, and the 11 bits Float64 discards break ties
// among the fastest live replicas. Outcome sequences are therefore
// identical at every replica count whenever the rate is in (0,1), and at
// the degenerate rates the outcome is a constant, so results match there
// too. The returned replica is -1 when the whole group is down (the
// object tier serves; see ServeRead).
func (f *Filer) DrawReadAt(part int) (fast bool, rep int32) {
	if f.cfg.Replicas == 1 {
		fast = f.rnd.Bool(f.cfg.PrefetchRate)
		if !f.parts[part].reps[0].live {
			return fast, -1
		}
		return fast, 0
	}
	u := f.rnd.Uint64()
	switch rate := f.cfg.PrefetchRate; {
	case rate <= 0:
		fast = false
	case rate >= 1:
		fast = true
	default:
		fast = float64(u>>11)/(1<<53) < rate
	}
	return fast, f.pickReplica(part, fast, u&0x7ff)
}

// pickReplica returns the serving replica for a read with the given
// outcome: the live replica with the smallest latency for that outcome,
// ties broken by the draw's spare bits so a homogeneous group spreads its
// reads. -1 when no replica is live.
func (f *Filer) pickReplica(part int, fast bool, tie uint64) int32 {
	p := &f.parts[part]
	if p.live == 0 {
		return -1
	}
	var cand [MaxReplicas]int32
	n := 0
	best := sim.Time(math.MaxInt64)
	for i := range p.reps {
		r := &p.reps[i]
		if !r.live {
			continue
		}
		lat := r.slowLat
		if fast {
			lat = r.fastLat
		}
		if lat < best {
			best = lat
			n = 0
		}
		if lat == best {
			cand[n] = int32(i)
			n++
		}
	}
	return cand[tie%uint64(n)]
}

// ServeRead services one read on a partition with a pre-drawn outcome and
// serving replica (DrawReadAt) and returns its latency. It touches only
// that partition's counters and residency, so distinct partitions may be
// serviced concurrently once their draws are taken.
func (f *Filer) ServeRead(part int, rep int32, key uint64, fast bool) sim.Time {
	p := &f.parts[part]
	if rep < 0 {
		// Whole group down: the object tier is the durability backstop
		// (CrashReplica guarantees it exists before allowing this state).
		o := f.cfg.Object
		p.objectReads++
		p.degradedReads++
		if o.ReadPromote {
			p.resident[key] = struct{}{}
		}
		return o.Read
	}
	r := &p.reps[rep]
	if p.live < f.cfg.Replicas {
		p.degradedReads++
	}
	if fast {
		p.fastReads++
		r.fastReads++
		return r.fastLat
	}
	if o := f.cfg.Object; o != nil {
		if _, ok := p.resident[key]; !ok {
			p.objectReads++
			r.objectReads++
			if o.ReadPromote {
				p.resident[key] = struct{}{}
			}
			return o.Read
		}
	}
	p.slowReads++
	r.slowReads++
	return r.slowLat
}

// ServeWrite services one (always fast, buffered) write on a partition
// and returns its latency: every live replica acknowledges, and the write
// completes at the quorum-th ack — the quorum-th smallest live write
// latency. The write lands in the block tier — the block becomes resident
// — and WriteThrough accounts a background object copy.
func (f *Filer) ServeWrite(part int, key uint64) sim.Time {
	p := &f.parts[part]
	p.writes++
	if o := f.cfg.Object; o != nil {
		p.resident[key] = struct{}{}
		if o.WriteThrough {
			p.objectWrites++
		}
	}
	if p.live == 0 {
		// Group down: the object tier absorbs the write directly. The
		// latency never undercuts the block-tier write so the sharded
		// lookahead floor stays valid through an outage.
		p.degradedWrites++
		lat := f.cfg.Object.Write
		if lat < f.cfg.Write {
			lat = f.cfg.Write
		}
		return lat
	}
	if f.cfg.Replicas == 1 {
		p.reps[0].writes++
		return p.reps[0].writeLat
	}
	// Insertion-sort the live replicas' write latencies (R <= MaxReplicas,
	// so the sort is a handful of compares) and complete at the quorum-th.
	var acks [MaxReplicas]sim.Time
	n := 0
	for i := range p.reps {
		r := &p.reps[i]
		if !r.live {
			continue
		}
		r.writes++
		lat := r.writeLat
		j := n
		for j > 0 && acks[j-1] > lat {
			acks[j] = acks[j-1]
			j--
		}
		acks[j] = lat
		n++
	}
	w := f.cfg.WriteQuorum
	if w > n {
		// Degraded: fewer survivors than the quorum; complete at the
		// last surviving ack.
		p.degradedWrites++
		w = n
	}
	return acks[w-1]
}

// CrashReplica takes one replica of a partition group out of service:
// reads route to the survivors and writes degrade to the surviving
// quorum. Crashing the last live replica is allowed only with the object
// tier configured (the durability backstop); without one it is an error,
// as is crashing an already-down replica. Call it only with the
// simulation quiesced (scenario events run between epochs).
func (f *Filer) CrashReplica(part, rep int) error {
	if part < 0 || part >= len(f.parts) {
		return fmt.Errorf("filer: partition %d out of [0,%d)", part, len(f.parts))
	}
	p := &f.parts[part]
	if rep < 0 || rep >= f.cfg.Replicas {
		return fmt.Errorf("filer: replica %d out of [0,%d)", rep, f.cfg.Replicas)
	}
	r := &p.reps[rep]
	if !r.live {
		return fmt.Errorf("filer: partition %d replica %d already down", part, rep)
	}
	if p.live == 1 && f.cfg.Object == nil {
		return fmt.Errorf("filer: cannot crash the last live replica of partition %d without an object tier", part)
	}
	r.live = false
	p.live--
	return nil
}

// RecoverReplica brings a crashed replica back into service, re-syncing
// it from its group — or from the object tier when it returns alone. The
// resync is accounting-only (the group shares one residency map, so the
// recovered replica is current by construction): the returned block count
// is the residency volume the resync copied (0 when residency is not
// tracked) and source names where it came from ("group" or "object").
func (f *Filer) RecoverReplica(part, rep int) (blocks int, source string, err error) {
	if part < 0 || part >= len(f.parts) {
		return 0, "", fmt.Errorf("filer: partition %d out of [0,%d)", part, len(f.parts))
	}
	p := &f.parts[part]
	if rep < 0 || rep >= f.cfg.Replicas {
		return 0, "", fmt.Errorf("filer: replica %d out of [0,%d)", rep, f.cfg.Replicas)
	}
	r := &p.reps[rep]
	if r.live {
		return 0, "", fmt.Errorf("filer: partition %d replica %d not down", part, rep)
	}
	source = "group"
	if p.live == 0 {
		source = "object"
	}
	blocks = len(p.resident)
	r.live = true
	p.live++
	r.resyncs++
	r.resyncBlocks += uint64(blocks)
	return blocks, source, nil
}

// ObserveBarrierQueue records that a partition absorbed depth requests at
// one epoch barrier. Sharded runs call it per (barrier, partition) so the
// per-backend burst size — the quantity partitioning bounds — is visible
// in the partition stats.
func (f *Filer) ObserveBarrierQueue(part, depth int) {
	if depth <= 0 {
		return
	}
	p := &f.parts[part]
	if depth > p.maxQueue {
		p.maxQueue = depth
	}
	p.queueSum += uint64(depth)
	p.queueObs++
}

// FastReads reports fast-path reads summed over partitions.
func (f *Filer) FastReads() uint64 { return f.sum(func(p *partition) uint64 { return p.fastReads }) }

// SlowReads reports slow-path reads summed over partitions.
func (f *Filer) SlowReads() uint64 { return f.sum(func(p *partition) uint64 { return p.slowReads }) }

// ObjectReads reports reads served by the object tier, summed over
// partitions.
func (f *Filer) ObjectReads() uint64 {
	return f.sum(func(p *partition) uint64 { return p.objectReads })
}

// Writes reports write requests summed over partitions: requests, not
// replica acks (see ReplicaStats).
func (f *Filer) Writes() uint64 { return f.sum(func(p *partition) uint64 { return p.writes }) }

// ObjectWrites reports background write-through copies to the object
// tier, summed over partitions.
func (f *Filer) ObjectWrites() uint64 {
	return f.sum(func(p *partition) uint64 { return p.objectWrites })
}

func (f *Filer) sum(get func(*partition) uint64) uint64 {
	var n uint64
	for i := range f.parts {
		n += get(&f.parts[i])
	}
	return n
}

// PartitionStats returns one partition's load accounting, the per-replica
// split included.
func (f *Filer) PartitionStats(part int) PartitionStats {
	p := &f.parts[part]
	st := PartitionStats{
		FastReads:       p.fastReads,
		SlowReads:       p.slowReads,
		ObjectReads:     p.objectReads,
		Writes:          p.writes,
		ObjectWrites:    p.objectWrites,
		DegradedReads:   p.degradedReads,
		DegradedWrites:  p.degradedWrites,
		MaxBarrierQueue: p.maxQueue,
	}
	if p.queueObs > 0 {
		st.MeanBarrierQueue = float64(p.queueSum) / float64(p.queueObs)
	}
	st.Replicas = make([]ReplicaStats, len(p.reps))
	for i := range p.reps {
		r := &p.reps[i]
		st.Replicas[i] = ReplicaStats{
			FastReads:    r.fastReads,
			SlowReads:    r.slowReads,
			ObjectReads:  r.objectReads,
			Writes:       r.writes,
			Resyncs:      r.resyncs,
			ResyncBlocks: r.resyncBlocks,
			Live:         r.live,
		}
	}
	return st
}

// Read2 services a one-block read: fn is a static func(any) run with arg
// after the fast or slow (or object-tier) latency. A nil fn still
// schedules a (shared, no-op) completion event. Sharded runs service the
// filer at the epoch barrier instead, in globally sorted arrival order;
// their two-phase form (Route and DrawReadAt, then ServeRead) is this
// sequence split in two.
func (f *Filer) Read2(key uint64, fn func(any), arg any) {
	part := f.Route(key)
	fast, rep := f.DrawReadAt(part)
	f.eng.Schedule2(f.ServeRead(part, rep, key, fast), fn, arg)
}

// Write2 services a one-block write; writes hit the filer's nonvolatile
// buffer and are always fast. A nil fn still schedules a (shared, no-op)
// completion event.
func (f *Filer) Write2(key uint64, fn func(any), arg any) {
	f.eng.Schedule2(f.ServeWrite(f.Route(key), key), fn, arg)
}

// MinServiceLatency returns the smallest latency the filer can ever add to
// a request. Sharded runs fold it into the epoch-barrier lookahead bound.
// Replication cannot lower it (the slow-replica factor only scales up, a
// quorum ack is never earlier than the fastest single ack, and degraded
// object-tier service is clamped to the block-tier floor), and neither
// can the object tier (object reads are validated to be no faster than
// the block tier's slow read; background write-through copies are never a
// client latency).
func (f *Filer) MinServiceLatency() sim.Time {
	min := f.cfg.FastRead
	if f.cfg.SlowRead < min {
		min = f.cfg.SlowRead
	}
	if f.cfg.Write < min {
		min = f.cfg.Write
	}
	return min
}

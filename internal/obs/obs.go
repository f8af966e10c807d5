// Package obs is the cross-cutting observability layer: sampled
// request-lifecycle tracing, cluster wall-clock self-profiling, and the
// Chrome trace-event export behind cmd/flashsim's -trace-out.
//
// The layer obeys three hard rules so that it can stay wired into the
// simulator permanently:
//
//   - It never perturbs simulation results. Tracing records simulated
//     timestamps of stages that already exist; it schedules no engine
//     events, draws from no RNG stream, and touches nothing on the golden
//     hash surface. Every golden SHA matrix passes bit-identically with
//     tracing enabled or disabled.
//
//   - Disabled means free. A host without a HostTrace pays one nil (or
//     zero-sequence) check per stage and allocates nothing; the warm-hit
//     AllocsPerRun locks from the event-core refactor still hold.
//
//   - Sampling is deterministic and partition-independent. A request is
//     traced iff a hash of (host ID, per-host request sequence) falls
//     under the sample threshold. Both inputs are host-local simulation
//     state, identical at every shard and filer-partition count, so the
//     exported span set is invariant across the whole (shards x
//     partitions) matrix — locked by TestTraceSpanInvariance.
package obs

import (
	"math"
	"slices"

	"repro/internal/sim"
)

// Kind names one stage of a traced request's journey through the stack.
type Kind uint8

const (
	// KindQueue is the host-queue wait: the op sat in its thread's
	// driver queue from enqueue to dispatch.
	KindQueue Kind = iota
	// KindRead is a whole read request's span, entry to completion
	// callback.
	KindRead
	// KindWrite is a whole write request's span, entry to completion
	// callback.
	KindWrite
	// KindRAMHit marks a lookup served by the RAM cache (cache-lookup
	// outcomes are zero-duration markers at decision time).
	KindRAMHit
	// KindFlashHit marks a lookup served by the flash cache.
	KindFlashHit
	// KindMiss marks a lookup that missed every cache tier.
	KindMiss
	// KindDedup marks a read that joined another request's in-flight
	// filer fetch instead of issuing its own.
	KindDedup
	// KindNetUp is a demand fetch's request packet crossing the wire up
	// to the filer.
	KindNetUp
	// KindFiler is a demand fetch's filer partition service.
	KindFiler
	// KindNetDown is a demand fetch's data packet crossing the wire back
	// down to the host.
	KindNetDown
	// KindWBFlash is a writeback's flash-device write.
	KindWBFlash
	// KindWBNetUp is a filer writeback's up-wire leg.
	KindWBNetUp
	// KindWBFiler is a filer writeback's service at the filer.
	KindWBFiler
	// KindWBNetDown is a filer writeback's down-wire acknowledgement leg.
	KindWBNetDown

	kindCount
)

var kindNames = [kindCount]string{
	KindQueue:     "queue",
	KindRead:      "read",
	KindWrite:     "write",
	KindRAMHit:    "ram_hit",
	KindFlashHit:  "flash_hit",
	KindMiss:      "miss",
	KindDedup:     "dedup_join",
	KindNetUp:     "net_up",
	KindFiler:     "filer",
	KindNetDown:   "net_down",
	KindWBFlash:   "wb_flash",
	KindWBNetUp:   "wb_net_up",
	KindWBFiler:   "wb_filer",
	KindWBNetDown: "wb_net_down",
}

// String returns the stage's export name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one recorded stage of a sampled request. Every field is a
// function of host-local simulated state, so a run's span set is
// bit-identical at every shard and partition count.
type Span struct {
	Host  int32    // issuing host ID (the Chrome trace pid)
	Kind  Kind     // stage
	Seq   uint64   // per-host request sequence (the Chrome trace tid)
	Key   uint64   // block key the stage operated on (0 for queue spans)
	Start sim.Time // simulated stage entry
	End   sim.Time // simulated stage exit (== Start for markers)
}

// Tracer owns one run's sampling decision and per-host span buffers.
// Host registration happens single-threaded at simulation construction;
// afterwards each HostTrace is touched only by its host's shard
// goroutine, so recording needs no synchronization (the cluster's epoch
// handshake orders buffers for the final merge).
type Tracer struct {
	thresh    uint64
	sampleAll bool
	hosts     []*HostTrace
}

// NewTracer builds a tracer sampling the given fraction of requests
// (clamped to [0,1]; 1 traces everything).
func NewTracer(sampleRate float64) *Tracer {
	t := &Tracer{}
	switch {
	case sampleRate >= 1:
		t.sampleAll = true
	case sampleRate > 0:
		t.thresh = uint64(sampleRate * float64(math.MaxUint64))
	}
	return t
}

// Host returns (registering on first use) the span buffer for host id.
func (t *Tracer) Host(id int) *HostTrace {
	for len(t.hosts) <= id {
		t.hosts = append(t.hosts, nil)
	}
	if t.hosts[id] == nil {
		t.hosts[id] = &HostTrace{tr: t, host: int32(id)}
	}
	return t.hosts[id]
}

// sampled is the deterministic per-request coin flip: a splitmix64-style
// hash of (host, seq) against the rate threshold. Both inputs are
// host-local, so the decision is invariant across shard and partition
// counts.
func (t *Tracer) sampled(host int32, seq uint64) bool {
	if t.sampleAll {
		return true
	}
	z := seq + (uint64(host)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z < t.thresh
}

// Spans merges every host's buffer into one deterministically ordered
// slice: by start time, then host, then request sequence, then stage.
func (t *Tracer) Spans() []Span {
	var all []Span
	for _, ht := range t.hosts {
		if ht != nil {
			all = append(all, ht.spans...)
		}
	}
	slices.SortFunc(all, func(a, b Span) int {
		switch {
		case a.Start != b.Start:
			if a.Start < b.Start {
				return -1
			}
			return 1
		case a.Host != b.Host:
			if a.Host < b.Host {
				return -1
			}
			return 1
		case a.Seq != b.Seq:
			if a.Seq < b.Seq {
				return -1
			}
			return 1
		case a.Kind != b.Kind:
			if a.Kind < b.Kind {
				return -1
			}
			return 1
		case a.End != b.End:
			if a.End < b.End {
				return -1
			}
			return 1
		}
		return 0
	})
	return all
}

// HostTrace is one host's request counter and append-only span buffer.
// It is owned by the host's executing goroutine.
type HostTrace struct {
	tr    *Tracer
	host  int32
	seq   uint64
	spans []Span
}

// StartReq advances the host's request sequence and returns it if the
// request is sampled, 0 otherwise. The request path stores the returned
// value in its pooled record: a zero sequence disables every downstream
// stage check with a single integer compare.
func (t *HostTrace) StartReq() uint64 {
	t.seq++
	if t.tr.sampled(t.host, t.seq) {
		return t.seq
	}
	return 0
}

// NextSampled peeks at the sequence the host's next request will take and
// returns it if that request will be sampled, 0 otherwise — without
// consuming it. The driver uses it to attach a queue-wait span to the
// same track as the op's first block request.
func (t *HostTrace) NextSampled() uint64 {
	if t.tr.sampled(t.host, t.seq+1) {
		return t.seq + 1
	}
	return 0
}

// Add records one span for a sampled request.
func (t *HostTrace) Add(seq uint64, kind Kind, key uint64, start, end sim.Time) {
	t.spans = append(t.spans, Span{
		Host: t.host, Kind: kind, Seq: seq, Key: key, Start: start, End: end,
	})
}

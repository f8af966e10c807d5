// Package scenario describes scripted, phased simulation scenarios: the
// paper only ever measures steady state, but the interesting behavior of a
// client-side flash cache at production scale is the transient — warmup
// after deploy, write bursts, working-set drift, crash/recovery windows,
// host churn. A Scenario is an ordered list of Phases, each with a
// duration (in issued blocks, working-set multiples, or simulated time),
// workload overrides applied at its start, and scripted Events (host
// crash, cache flush, host leave/join) executed at its boundary.
//
// Scenarios are plain data: loadable from JSON, serializable back, and
// validated independently of any simulator configuration. The library of
// built-ins (warmup, burst, ws-shift, crash-recovery, churn) lives in
// builtin.go; flashsim.RunScenario executes a scenario against a
// flashsim.Config.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// EventKind names a scripted fault.
type EventKind string

// Event kinds.
const (
	// EventCrash power-fails a host at the phase boundary: RAM contents
	// are lost; a persistent flash cache survives and pays the recovery
	// scan + dirty flush before the phase's first request, a
	// non-persistent one restarts cold.
	EventCrash EventKind = "crash"
	// EventFlush writes the host's dirty blocks back and drops the
	// coldest Fraction of its resident blocks.
	EventFlush EventKind = "flush"
	// EventLeave gracefully detaches a host: dirty data is flushed, the
	// caches are dropped, and the host's traffic is redistributed to the
	// remaining hosts.
	EventLeave EventKind = "leave"
	// EventJoin re-attaches a previously departed host, cold.
	EventJoin EventKind = "join"
	// EventFilerCrash takes one replica of a filer partition group out of
	// service: reads route to the survivors, writes degrade to the
	// surviving quorum, and the object tier backstops a fully-down group.
	EventFilerCrash EventKind = "filer-crash"
	// EventFilerRecover brings a crashed filer replica back, re-synced
	// from its group (or from the object tier when it returns alone).
	EventFilerRecover EventKind = "filer-recover"
)

// Event is one scripted fault, executed at the start of its phase, in
// declaration order, with the simulation quiesced.
type Event struct {
	Kind EventKind `json:"kind"`
	// Host is the target host index (host events only).
	Host int `json:"host"`
	// Fraction is the flush drop fraction (flush events only); 0 is
	// normalized to 1 (full flush) by Validate.
	Fraction float64 `json:"fraction,omitempty"`
	// Partition and Replica target a filer replica (filer-crash and
	// filer-recover events only). The runner checks them against the
	// effective filer layout.
	Partition int `json:"partition,omitempty"`
	Replica   int `json:"replica,omitempty"`
}

// Phase is one leg of a scenario: overrides and events applied at its
// start, then a bounded stretch of simulation. Exactly one duration field
// must be positive.
type Phase struct {
	Name string `json:"name"`

	// Blocks bounds the phase by trace blocks consumed.
	Blocks int64 `json:"blocks,omitempty"`
	// WSMultiple bounds the phase by a multiple of the aggregate working
	// set size in blocks, making scenarios scale-free: the runner
	// resolves it against the configuration's working set.
	WSMultiple float64 `json:"ws_multiple,omitempty"`
	// Seconds bounds the phase by simulated time.
	Seconds float64 `json:"seconds,omitempty"`

	// Workload overrides; nil fields inherit the previous phase's value
	// (initially the configuration's).
	WriteFraction      *float64 `json:"write_fraction,omitempty"`
	WorkingSetFraction *float64 `json:"working_set_fraction,omitempty"`
	ActiveThreads      *int     `json:"active_threads,omitempty"`
	SharedWorkingSet   *bool    `json:"shared_working_set,omitempty"`

	// ShiftFraction, when positive, resamples that fraction of every
	// working set's blocks at the phase start (working-set drift).
	ShiftFraction float64 `json:"shift_fraction,omitempty"`

	// Events run at the phase start, after the overrides, in order.
	Events []Event `json:"events,omitempty"`
}

// FilerSpec configures the shared filer's backend layout for a scenario:
// partition count and the optional object tier behind the block tier. It
// overrides the corresponding simulator configuration fields when set.
type FilerSpec struct {
	// Partitions is the backend partition count; 0 inherits the
	// simulator configuration (whose own 0 means one partition).
	Partitions int `json:"partitions,omitempty"`

	// Replicas is the replica group size per partition; 0 inherits the
	// simulator configuration (whose own 0 means one replica).
	Replicas int `json:"replicas,omitempty"`

	// WriteQuorum is the write ack count; 0 inherits the configuration
	// (whose own 0 means the majority quorum Replicas/2+1).
	WriteQuorum int `json:"write_quorum,omitempty"`

	// SlowReplicaFactor scales every group's last replica's latencies —
	// the one-slow-backend tail-latency scenario; 0 inherits the
	// configuration, 1 means homogeneous.
	SlowReplicaFactor float64 `json:"slow_replica_factor,omitempty"`

	// ObjectTier enables the S3-behind-EBS object tier behind the block
	// tier.
	ObjectTier bool `json:"object_tier,omitempty"`

	// ObjectReadMicros and ObjectWriteMicros override the object-tier
	// latencies in microseconds; 0 (or absent) keeps the timing model's
	// values. Only meaningful with ObjectTier.
	ObjectReadMicros  float64 `json:"object_read_us,omitempty"`
	ObjectWriteMicros float64 `json:"object_write_us,omitempty"`

	// WriteThrough copies buffered writes to the object tier in the
	// background; ReadPromote installs object-served blocks into the
	// block tier. Absent fields default to true when ObjectTier is set —
	// the production-like policy — and are normalized by Validate.
	WriteThrough *bool `json:"write_through,omitempty"`
	ReadPromote  *bool `json:"read_promote,omitempty"`
}

// Validate checks the spec and normalizes object-tier policy defaults in
// place: with ObjectTier set, absent WriteThrough/ReadPromote fields are
// filled in as true.
func (f *FilerSpec) Validate() error {
	if f.Partitions < 0 {
		return fmt.Errorf("filer partitions %d negative", f.Partitions)
	}
	if f.Replicas < 0 {
		return fmt.Errorf("filer replicas %d negative", f.Replicas)
	}
	if f.WriteQuorum < 0 {
		return fmt.Errorf("filer write quorum %d negative", f.WriteQuorum)
	}
	if f.WriteQuorum > 0 && f.Replicas > 0 && f.WriteQuorum > f.Replicas {
		return fmt.Errorf("filer write quorum %d exceeds replicas %d", f.WriteQuorum, f.Replicas)
	}
	if s := f.SlowReplicaFactor; math.IsNaN(s) || math.IsInf(s, 0) || (s != 0 && s < 1) {
		return fmt.Errorf("filer slow replica factor %v below 1", s)
	}
	for _, v := range []float64{f.ObjectReadMicros, f.ObjectWriteMicros} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("bad object-tier latency %v", v)
		}
	}
	if !f.ObjectTier && (f.ObjectReadMicros != 0 || f.ObjectWriteMicros != 0 ||
		f.WriteThrough != nil || f.ReadPromote != nil) {
		return fmt.Errorf("object-tier settings without object_tier")
	}
	if f.ObjectTier {
		t := true
		if f.WriteThrough == nil {
			f.WriteThrough = &t
		}
		if f.ReadPromote == nil {
			f.ReadPromote = &t
		}
	}
	return nil
}

// Scenario is an ordered list of phases plus telemetry settings.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// SampleEveryMillis is the telemetry sampling period in simulated
	// milliseconds; 0 is normalized to DefaultSampleMillis.
	SampleEveryMillis float64 `json:"sample_every_ms,omitempty"`

	// Filer, when present, overrides the simulator configuration's filer
	// backend layout (partition count, object tier).
	Filer *FilerSpec `json:"filer,omitempty"`

	Phases []Phase `json:"phases"`
}

// DefaultSampleMillis is the telemetry period applied when a scenario
// does not set one.
const DefaultSampleMillis = 50

// badFrac reports a fraction outside [0,1] (NaN included).
func badFrac(f float64) bool { return math.IsNaN(f) || f < 0 || f > 1 }

// Validate checks the scenario and normalizes defaults in place: the
// sampling period and flush fractions are filled in.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", s.Name)
	}
	if math.IsNaN(s.SampleEveryMillis) || s.SampleEveryMillis < 0 {
		return fmt.Errorf("scenario %s: bad sampling period %v", s.Name, s.SampleEveryMillis)
	}
	if s.SampleEveryMillis == 0 {
		s.SampleEveryMillis = DefaultSampleMillis
	}
	if s.Filer != nil {
		if err := s.Filer.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	for i := range s.Phases {
		if err := s.Phases[i].validate(); err != nil {
			return fmt.Errorf("scenario %s phase %d (%s): %w", s.Name, i, s.Phases[i].Name, err)
		}
	}
	return nil
}

func (p *Phase) validate() error {
	durations := 0
	if p.Blocks > 0 {
		durations++
	}
	if p.WSMultiple > 0 {
		durations++
	}
	if p.Seconds > 0 {
		durations++
	}
	if p.Blocks < 0 || p.WSMultiple < 0 || p.Seconds < 0 ||
		math.IsNaN(p.WSMultiple) || math.IsNaN(p.Seconds) {
		return fmt.Errorf("negative duration")
	}
	if durations == 0 {
		return fmt.Errorf("needs a duration (blocks, ws_multiple or seconds)")
	}
	if durations > 1 {
		return fmt.Errorf("multiple durations set; pick one")
	}
	if p.WriteFraction != nil && badFrac(*p.WriteFraction) {
		return fmt.Errorf("write fraction %v out of [0,1]", *p.WriteFraction)
	}
	if p.WorkingSetFraction != nil && badFrac(*p.WorkingSetFraction) {
		return fmt.Errorf("working set fraction %v out of [0,1]", *p.WorkingSetFraction)
	}
	if p.ActiveThreads != nil && (*p.ActiveThreads < 1 || *p.ActiveThreads > 1<<16) {
		return fmt.Errorf("active threads %d out of range", *p.ActiveThreads)
	}
	if badFrac(p.ShiftFraction) {
		return fmt.Errorf("shift fraction %v out of [0,1]", p.ShiftFraction)
	}
	for j := range p.Events {
		if err := p.Events[j].validate(); err != nil {
			return fmt.Errorf("event %d: %w", j, err)
		}
	}
	return nil
}

func (e *Event) validate() error {
	switch e.Kind {
	case EventCrash, EventLeave, EventJoin:
		if e.Fraction != 0 {
			return fmt.Errorf("%s event takes no fraction", e.Kind)
		}
	case EventFlush:
		if badFrac(e.Fraction) {
			return fmt.Errorf("flush fraction %v out of [0,1]", e.Fraction)
		}
		if e.Fraction == 0 {
			e.Fraction = 1
		}
	case EventFilerCrash, EventFilerRecover:
		if e.Fraction != 0 {
			return fmt.Errorf("%s event takes no fraction", e.Kind)
		}
		if e.Host != 0 {
			return fmt.Errorf("%s event targets a filer replica, not a host", e.Kind)
		}
		if e.Partition < 0 || e.Partition >= 1<<16 {
			return fmt.Errorf("filer partition %d out of range", e.Partition)
		}
		if e.Replica < 0 || e.Replica >= 1<<16 {
			return fmt.Errorf("filer replica %d out of range", e.Replica)
		}
		return nil
	default:
		return fmt.Errorf("unknown event kind %q", e.Kind)
	}
	if e.Partition != 0 || e.Replica != 0 {
		return fmt.Errorf("%s event takes no filer partition/replica", e.Kind)
	}
	if e.Host < 0 || e.Host >= 1<<16 {
		return fmt.Errorf("host %d out of range", e.Host)
	}
	return nil
}

// CheckLive validates one event against a run's layout — the host count
// and the resolved filer partition/replica geometry — and normalizes it
// in place (a zero flush fraction becomes 1). It is the one bounds rule
// for fault events: flashsim.Resolve applies it to every scripted event,
// and a run controller to every event injected into a running cluster.
func CheckLive(e *Event, hosts, partitions, replicas int) error {
	if err := e.validate(); err != nil {
		return err
	}
	switch e.Kind {
	case EventFilerCrash, EventFilerRecover:
		if e.Partition >= partitions {
			return fmt.Errorf("filer partition %d out of range (run has %d)", e.Partition, partitions)
		}
		if e.Replica >= replicas {
			return fmt.Errorf("filer replica %d out of range (run has %d)", e.Replica, replicas)
		}
	default:
		if e.Host >= hosts {
			return fmt.Errorf("host %d out of range (run has %d)", e.Host, hosts)
		}
		if (e.Kind == EventLeave || e.Kind == EventJoin) && hosts < 2 {
			return fmt.Errorf("%s event needs a multi-host run", e.Kind)
		}
	}
	return nil
}

// Clone returns a deep copy, so normalization during a run never mutates
// a caller-owned scenario.
func (s *Scenario) Clone() *Scenario {
	out := *s
	if s.Filer != nil {
		f := *s.Filer
		f.WriteThrough = clonePtr(s.Filer.WriteThrough)
		f.ReadPromote = clonePtr(s.Filer.ReadPromote)
		out.Filer = &f
	}
	out.Phases = make([]Phase, len(s.Phases))
	for i, p := range s.Phases {
		q := p
		q.WriteFraction = clonePtr(p.WriteFraction)
		q.WorkingSetFraction = clonePtr(p.WorkingSetFraction)
		q.ActiveThreads = clonePtr(p.ActiveThreads)
		q.SharedWorkingSet = clonePtr(p.SharedWorkingSet)
		q.Events = append([]Event(nil), p.Events...)
		out.Phases[i] = q
	}
	return &out
}

func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Parse decodes a scenario from JSON and validates it. Unknown fields are
// rejected so typos in hand-written scenarios fail loudly.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Canonicalize: an explicit "events": [] decodes to an empty non-nil
	// slice, which omitempty would then drop on re-serialization. Fold it
	// to nil so parse → JSON → parse is a fixed point.
	for i := range s.Phases {
		if len(s.Phases[i].Events) == 0 {
			s.Phases[i].Events = nil
		}
	}
	return &s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

package core

import (
	"fmt"

	"repro/internal/sim"
)

// PolicyKind enumerates the paper's writeback policy families (§3.5).
type PolicyKind uint8

// Policy kinds.
const (
	// WriteThroughSync writes dirty data to the next tier immediately,
	// blocking the requester until completion ("s").
	WriteThroughSync PolicyKind = iota
	// WriteThroughAsync writes dirty data to the next tier immediately
	// without blocking the requester ("a").
	WriteThroughAsync
	// Periodic leaves dirty data in the cache until a syncer thread
	// flushes it ("p1", "p5", "p15", "p30").
	Periodic
	// None leaves dirty data in the cache until evicted for capacity
	// reasons; evictions then write back synchronously ("n").
	None
	// Delayed writes each dirty block back Period after the write that
	// dirtied it, coalescing rewrites within the window ("dN", N
	// seconds). One of the "more elaborate policies" the paper mentions
	// but does not evaluate (§3.6); implemented as an extension.
	Delayed
	// Trickle drains at most one dirty block per Period, bounding
	// writeback bandwidth ("tN", N flushes per second). Extension,
	// paper §3.6's "trickle-flushing".
	Trickle
)

// Policy is a writeback policy: a kind plus, for Periodic, the syncer
// period.
type Policy struct {
	Kind   PolicyKind
	Period sim.Time // used only by Periodic
}

// Canonical policies, matching the paper's seven-policy sweep.
var (
	PolicySync  = Policy{Kind: WriteThroughSync}
	PolicyAsync = Policy{Kind: WriteThroughAsync}
	PolicyP1    = Policy{Kind: Periodic, Period: 1 * sim.Second}
	PolicyP5    = Policy{Kind: Periodic, Period: 5 * sim.Second}
	PolicyP15   = Policy{Kind: Periodic, Period: 15 * sim.Second}
	PolicyP30   = Policy{Kind: Periodic, Period: 30 * sim.Second}
	PolicyNone  = Policy{Kind: None}
)

// AllPolicies returns the paper's seven writeback policies in figure order
// (s, a, p1, p5, p15, p30, n).
func AllPolicies() []Policy {
	return []Policy{
		PolicySync, PolicyAsync, PolicyP1, PolicyP5, PolicyP15, PolicyP30, PolicyNone,
	}
}

// ParsePolicy parses the paper's shorthand: s, a, p1, p5, p15, p30, n, or
// any pN for a custom N-second period.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "s":
		return PolicySync, nil
	case "a":
		return PolicyAsync, nil
	case "n":
		return PolicyNone, nil
	}
	if len(s) > 1 {
		var n int
		if _, err := fmt.Sscanf(s[1:], "%d", &n); err == nil && n > 0 {
			switch s[0] {
			case 'p':
				return Policy{Kind: Periodic, Period: sim.Time(n) * sim.Second}, nil
			case 'd':
				return Policy{Kind: Delayed, Period: sim.Time(n) * sim.Second}, nil
			case 't':
				return Policy{Kind: Trickle, Period: sim.Second / sim.Time(n)}, nil
			}
		}
	}
	return Policy{}, fmt.Errorf("core: unknown policy %q (want s, a, pN, n, dN, or tN)", s)
}

// String returns the paper's shorthand for the policy.
func (p Policy) String() string {
	switch p.Kind {
	case WriteThroughSync:
		return "s"
	case WriteThroughAsync:
		return "a"
	case Periodic:
		return fmt.Sprintf("p%d", int(p.Period/sim.Second))
	case None:
		return "n"
	case Delayed:
		return fmt.Sprintf("d%d", int(p.Period/sim.Second))
	case Trickle:
		if p.Period <= 0 {
			return "t?"
		}
		return fmt.Sprintf("t%d", int(sim.Second/p.Period))
	default:
		return fmt.Sprintf("policy(%d)", uint8(p.Kind))
	}
}

// Validate reports configuration errors.
func (p Policy) Validate() error {
	switch p.Kind {
	case WriteThroughSync, WriteThroughAsync, None:
		return nil
	case Periodic, Delayed, Trickle:
		if p.Period <= 0 {
			return fmt.Errorf("core: %s policy needs a positive period", p.Kind)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown policy kind %d", p.Kind)
	}
}

// String returns the kind's lower-case name.
func (k PolicyKind) String() string {
	switch k {
	case WriteThroughSync:
		return "sync"
	case WriteThroughAsync:
		return "async"
	case Periodic:
		return "periodic"
	case None:
		return "none"
	case Delayed:
		return "delayed"
	case Trickle:
		return "trickle"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

package scenario

import (
	"fmt"
	"sort"
)

// The built-in scenario library: the transients the paper set aside,
// expressed scale-free (phase durations in working-set multiples) so the
// same scenario runs at any 1:N geometry.
//
// Built-ins are constructed fresh on every call — callers may mutate the
// result — and every one passes Validate by construction (locked by a
// test).

func ptr[T any](v T) *T { return &v }

// builtins maps name -> constructor.
var builtins = map[string]func() *Scenario{
	"warmup":         warmup,
	"burst":          burst,
	"ws-shift":       wsShift,
	"crash-recovery": crashRecovery,
	"churn":          churn,
	"filer-crash":    filerCrash,
}

// BuiltinNames returns the built-in scenario names, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Builtin returns a fresh copy of the named built-in scenario.
func Builtin(name string) (*Scenario, error) {
	mk, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown built-in %q (have %v)", name, BuiltinNames())
	}
	return mk(), nil
}

// warmup is the cold-start transient the paper's warmup discards: caches
// start empty and telemetry watches the hit rate and latency ramp toward
// steady state, the cold-start-vs-steady-state distinction Brooker et al.
// make for AWS Lambda.
func warmup() *Scenario {
	return &Scenario{
		Name:        "warmup",
		Description: "cold caches warming to steady state; the transient the paper discards",
		Phases: []Phase{
			{Name: "cold", WSMultiple: 3},
			{Name: "steady", WSMultiple: 1},
		},
	}
}

// burst models a write burst: steady state, then a spike to 90% writes
// from twice as many threads, then the recovery back to baseline while
// the accumulated dirty backlog drains.
func burst() *Scenario {
	return &Scenario{
		Name:        "burst",
		Description: "write burst: steady state, a 90%-write spike, and the drain back",
		Phases: []Phase{
			{Name: "steady", WSMultiple: 2},
			{Name: "burst", WSMultiple: 0.5,
				WriteFraction: ptr(0.9), ActiveThreads: ptr(16)},
			{Name: "drain", WSMultiple: 1.5,
				WriteFraction: ptr(0.3), ActiveThreads: ptr(8)},
		},
	}
}

// wsShift models working-set drift: after warmup, half of every working
// set's blocks are replaced; telemetry watches the miss spike and the
// re-warming ramp.
func wsShift() *Scenario {
	return &Scenario{
		Name:        "ws-shift",
		Description: "working-set drift: half the hot data changes mid-run",
		Phases: []Phase{
			{Name: "warm", WSMultiple: 2},
			{Name: "shifted", WSMultiple: 2, ShiftFraction: 0.5},
		},
	}
}

// crashRecovery is the recovery transient the paper declined to simulate
// (§7.8): a warmed host crashes; with a persistent flash cache it scans
// metadata and flushes crash-dirty blocks before serving again, otherwise
// it restarts cold. Either way telemetry resolves the transient.
func crashRecovery() *Scenario {
	return &Scenario{
		Name:        "crash-recovery",
		Description: "host crash after warmup; the recovery transient of paper §7.8",
		Phases: []Phase{
			{Name: "warm", WSMultiple: 2},
			{Name: "recovery", WSMultiple: 2,
				Events: []Event{{Kind: EventCrash, Host: 0}}},
		},
	}
}

// filerCrash exercises the filer tier's availability story: two backend
// partitions, each a two-replica group over the object tier. After
// warmup, partition 0 loses replica 1 — reads route to the survivor and
// writes degrade to the surviving quorum — then the replica recovers,
// re-synced from its group, and service returns to full strength.
func filerCrash() *Scenario {
	return &Scenario{
		Name:        "filer-crash",
		Description: "filer replica crash and recovery; degraded quorum service between",
		Filer: &FilerSpec{
			Partitions: 2,
			Replicas:   2,
			ObjectTier: true,
		},
		Phases: []Phase{
			{Name: "steady", WSMultiple: 2},
			{Name: "degraded", WSMultiple: 1,
				Events: []Event{{Kind: EventFilerCrash, Partition: 0, Replica: 1}}},
			{Name: "recovered", WSMultiple: 1,
				Events: []Event{{Kind: EventFilerRecover, Partition: 0, Replica: 1}}},
		},
	}
}

// churn models population churn on a multi-host cluster (hosts >= 2):
// host 1 leaves gracefully (flush, drop, redistribute), the survivors
// absorb its traffic, then it rejoins cold and re-warms.
func churn() *Scenario {
	return &Scenario{
		Name:        "churn",
		Description: "host leave/rejoin churn; requires at least two hosts",
		Phases: []Phase{
			{Name: "steady", WSMultiple: 2},
			{Name: "departed", WSMultiple: 1,
				Events: []Event{{Kind: EventLeave, Host: 1}}},
			{Name: "rejoined", WSMultiple: 1,
				Events: []Event{{Kind: EventJoin, Host: 1}}},
		},
	}
}

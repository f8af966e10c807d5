package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

const us = sim.Microsecond

// TestEdgeLookaheadNext walks both schedules through the cases that define
// them: the pinned fixed-step walk with its idle jump, and the adaptive
// horizon-plus-edges bound with and without wire occupancy.
func TestEdgeLookaheadNext(t *testing.T) {
	cases := []struct {
		name          string
		floor         sim.Time
		upTransit     sim.Time
		adaptive      bool
		prev, horizon sim.Time
		horizonOK     bool
		upInFlight    bool
		want          sim.Time
	}{
		// Pinned schedule: fixed steps, indifferent to the wire.
		{"pinned/step", 100 * us, 8 * us, false, 0, 50 * us, true, false, 100 * us},
		{"pinned/step-ignores-flight", 100 * us, 8 * us, false, 0, 50 * us, true, true, 100 * us},
		{"pinned/jump-to-horizon", 100 * us, 8 * us, false, 0, 700 * us, true, false, 700 * us},
		{"pinned/no-horizon", 100 * us, 8 * us, false, 300 * us, 0, false, false, 400 * us},
		// Adaptive schedule: horizon + floor, + one transit on an empty wire.
		{"adaptive/busy-wire", 100 * us, 8 * us, true, 0, 50 * us, true, true, 150 * us},
		{"adaptive/empty-wire", 100 * us, 8 * us, true, 0, 50 * us, true, false, 158 * us},
		{"adaptive/idle-jump", 100 * us, 8 * us, true, 0, 900 * us, true, true, 1000 * us},
		{"adaptive/no-horizon", 100 * us, 8 * us, true, 300 * us, 0, false, false, 400 * us},
		// Degenerate single-edge cluster: a free wire widens nothing, so
		// the adaptive bound collapses to the filer edge alone.
		{"adaptive/zero-transit", 100 * us, 0, true, 0, 50 * us, true, false, 150 * us},
		// Safety clamp: a (theoretically impossible) stale horizon must
		// still advance the schedule.
		{"adaptive/clamp", 100 * us, 0, true, 500 * us, 10 * us, true, true, 600 * us},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := newEdgeLookahead(tc.floor, tc.upTransit, tc.adaptive)
			if err != nil {
				t.Fatalf("newEdgeLookahead: %v", err)
			}
			got := l.next(tc.prev, tc.horizon, tc.horizonOK, tc.upInFlight)
			if got != tc.want {
				t.Errorf("next(%v, %v, %v, %v) = %v, want %v",
					tc.prev, tc.horizon, tc.horizonOK, tc.upInFlight, got, tc.want)
			}
			if got <= tc.prev {
				t.Errorf("barrier did not advance: next = %v <= prev = %v", got, tc.prev)
			}
		})
	}
}

// TestEdgeLookaheadValidation rejects the bounds no conservative schedule
// can be built on: a zero or negative filer floor (same-instant cycles)
// and a negative wire transit.
func TestEdgeLookaheadValidation(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		if _, err := newEdgeLookahead(0, 8*us, adaptive); err == nil ||
			!strings.Contains(err.Error(), "positive filer service latency") {
			t.Errorf("adaptive=%v: zero floor: err = %v", adaptive, err)
		}
		if _, err := newEdgeLookahead(-us, 8*us, adaptive); err == nil {
			t.Errorf("adaptive=%v: negative floor accepted", adaptive)
		}
		if _, err := newEdgeLookahead(100*us, -us, adaptive); err == nil ||
			!strings.Contains(err.Error(), "negative network transit") {
			t.Errorf("adaptive=%v: negative transit: err = %v", adaptive, err)
		}
		if _, err := newEdgeLookahead(100*us, 0, adaptive); err != nil {
			t.Errorf("adaptive=%v: zero transit rejected: %v", adaptive, err)
		}
	}
}

// TestClusterAdaptiveLookaheadInvariance re-locks the shard-count contract
// on a cluster whose wire latency exceeds the filer floor — the
// configuration where the per-edge bound differs most from the global
// minimum the legacy schedule used, so any partition-dependence in the
// widened epochs would surface here. It also pins the point of the
// exercise: the adaptive walk must execute strictly fewer epochs than the
// pinned walk over the same workload.
func TestClusterAdaptiveLookaheadInvariance(t *testing.T) {
	spec := func(shards int, pinned bool) ClusterSpec {
		s := clusterSpecForTest(4, shards)
		s.Timing.NetBase = 200 * us // wire slower than the 92us filer floor
		s.FixedLookahead = pinned
		return s
	}
	run := func(shards int, pinned bool) (clusterSnapshot, uint64) {
		c, err := NewCluster(spec(shards, pinned))
		if err != nil {
			t.Fatalf("NewCluster(shards=%d, pinned=%v): %v", shards, pinned, err)
		}
		runTestCluster(c)
		return snapshotCluster(c), c.Epochs()
	}

	ref, refEpochs := run(1, false)
	if ref.Ops == 0 || ref.Blocks == 0 {
		t.Fatalf("no work executed: %+v", ref)
	}
	for _, shards := range []int{2, 3, 4} {
		snap, epochs := run(shards, false)
		if !reflect.DeepEqual(ref, snap) {
			t.Errorf("shards=%d diverged from shards=1:\nref: %+v\ngot: %+v", shards, ref, snap)
		}
		if epochs != refEpochs {
			t.Errorf("shards=%d: %d epochs, shards=1 executed %d", shards, epochs, refEpochs)
		}
	}

	pinnedSnap, pinnedEpochs := run(2, true)
	if pinnedEpochs <= refEpochs {
		t.Errorf("adaptive executed %d epochs, pinned %d — expected adaptive < pinned",
			refEpochs, pinnedEpochs)
	}
	// The two schedules deliver the same messages in the same global
	// order, so the simulation outcome must agree wherever the schedule
	// itself is not part of the measurement.
	if pinnedSnap.Ops != ref.Ops || pinnedSnap.Blocks != ref.Blocks {
		t.Errorf("pinned and adaptive disagree on work done: %+v vs %+v", pinnedSnap, ref)
	}
}

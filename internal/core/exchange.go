package core

import (
	"cmp"
	"slices"

	"repro/internal/sim"
)

// This file implements the barrier exchange's gather step without the
// per-epoch allocation the original sort-based version paid. Each shard's
// outbox is appended in its engine's execution order, so it is already
// non-decreasing in arrival time; only messages stamped at the same
// instant can be out of (host, seq) order. canonicalizeRuns therefore
// sorts just the equal-time runs of each outbox — almost always length
// one — after which mergeSorted produces the globally sorted batch with a
// k-way merge into a reused buffer. Nothing is captured by the
// comparisons, so neither step allocates.

// arrival is the exchange's one delivery key: the message's arrival time
// at the barrier-serviced side (filer, registry or protocol server), the
// sending host and that host's issue counter. Every exchange message
// embeds it. The triple is unique per message, so ordering by it is total
// and independent of the shard count and of the sort algorithm.
type arrival struct {
	at   sim.Time
	host int32
	seq  uint64 // per-host issue counter; breaks same-instant ties
}

// arrivalKey returns the key; exchange messages inherit it by embedding.
func (a arrival) arrivalKey() arrival { return a }

// compare orders arrival keys: time, then host, then issue counter.
func (a arrival) compare(b arrival) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.host, b.host); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// exchanged is an exchange message: anything that embeds an arrival.
type exchanged interface{ arrivalKey() arrival }

func cmpExchanged[T exchanged](a, b T) int { return a.arrivalKey().compare(b.arrivalKey()) }

// canonicalizeRuns sorts each equal-time run of an outbox by the arrival
// key, turning a per-shard "sorted by time" outbox into one fully sorted
// by the partition-independent delivery key.
func canonicalizeRuns[T exchanged](msgs []T) {
	for i := 0; i < len(msgs); {
		at := msgs[i].arrivalKey().at
		j := i + 1
		for j < len(msgs) && msgs[j].arrivalKey().at == at {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(msgs[i:j], cmpExchanged[T])
		}
		i = j
	}
}

// mergeSorted k-way merges the per-shard sorted outboxes into dst. The
// head scan is linear in the shard count — single digits — which beats a
// heap for these widths. srcs is consumed (each element resliced empty).
func mergeSorted[T exchanged](dst []T, srcs [][]T) []T {
	for {
		best := -1
		for s := range srcs {
			if len(srcs[s]) == 0 {
				continue
			}
			if best < 0 || srcs[s][0].arrivalKey().compare(srcs[best][0].arrivalKey()) < 0 {
				best = s
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, srcs[best][0])
		srcs[best] = srcs[best][1:]
	}
}

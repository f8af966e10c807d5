package netsim

import (
	"testing"

	"repro/internal/sim"
)

// callFunc runs the func() riding in the arg slot of an arg-carrying
// completion.
func callFunc(a any) { a.(func())() }

const (
	baseLat = 8200 * sim.Nanosecond // 8.2 us
	perBit  = 1 * sim.Nanosecond
)

func newSegment(eng *sim.Engine, baseLat, perBit sim.Time) *Segment {
	s := new(Segment)
	s.Init(eng, baseLat, perBit)
	return s
}

func TestPacketTime(t *testing.T) {
	var e sim.Engine
	s := newSegment(&e, baseLat, perBit)
	if got := s.PacketTime(0); got != baseLat {
		t.Fatalf("empty packet time %v", got)
	}
	// 4 KiB = 32768 bits at 1 ns/bit.
	want := baseLat + 32768*sim.Nanosecond
	if got := s.PacketTime(4096); got != want {
		t.Fatalf("4K packet time %v, want %v", got, want)
	}
}

func TestDuplexParallelDirections(t *testing.T) {
	var e sim.Engine
	s := newSegment(&e, 100, 0)
	var done []sim.Time
	s.Send2(ToFiler, 0, callFunc, func() { done = append(done, e.Now()) })
	s.Send2(FromFiler, 0, callFunc, func() { done = append(done, e.Now()) })
	e.Run()
	if done[0] != 100 || done[1] != 100 {
		t.Fatalf("duplex completions %v, want [100 100]", done)
	}
}

func TestDuplexSerializesSameDirection(t *testing.T) {
	var e sim.Engine
	s := newSegment(&e, 100, 0)
	var done []sim.Time
	s.Send2(ToFiler, 0, callFunc, func() { done = append(done, e.Now()) })
	s.Send2(ToFiler, 0, callFunc, func() { done = append(done, e.Now()) })
	e.Run()
	if done[0] != 100 || done[1] != 200 {
		t.Fatalf("same-direction completions %v", done)
	}
}

func TestBusyAndWaited(t *testing.T) {
	var e sim.Engine
	s := newSegment(&e, 50, 0)
	// Opposite directions overlap: both wires are busy, nobody queues.
	s.Send2(ToFiler, 0, nil, nil)
	s.Send2(FromFiler, 0, nil, nil)
	e.Run()
	for _, w := range []*sim.Server{&s.up, &s.down} {
		if w.Busy() != 50 || w.Waited() != 0 {
			t.Fatalf("wire busy %v waited %v, want 50 and 0", w.Busy(), w.Waited())
		}
	}
}

func TestDataSizeAffectsOccupancy(t *testing.T) {
	var e sim.Engine
	s := newSegment(&e, baseLat, perBit)
	var ackDone, respDone sim.Time
	// An empty response, then a 4 KiB response queued behind it on the
	// same wire.
	s.Send2(FromFiler, 0, callFunc, func() { ackDone = e.Now() })
	s.Send2(FromFiler, 4096, callFunc, func() { respDone = e.Now() })
	e.Run()
	if ackDone != baseLat {
		t.Fatalf("empty response done %v", ackDone)
	}
	if respDone != baseLat+baseLat+32768 {
		t.Fatalf("data response done %v", respDone)
	}
}

func TestDuplexBusyAndWaitedAggregate(t *testing.T) {
	var e sim.Engine
	s := newSegment(&e, 50, 0)
	// Two packets per direction: each wire is busy 100 and queues one
	// packet for 50, independently of the other direction.
	s.Send2(ToFiler, 0, nil, nil)
	s.Send2(ToFiler, 0, nil, nil)
	s.Send2(FromFiler, 0, nil, nil)
	s.Send2(FromFiler, 0, nil, nil)
	e.Run()
	for _, w := range []*sim.Server{&s.up, &s.down} {
		if w.Busy() != 100 || w.Waited() != 50 {
			t.Fatalf("wire busy %v waited %v, want 100 and 50", w.Busy(), w.Waited())
		}
	}
}

func TestDuplexSend2(t *testing.T) {
	var e sim.Engine
	s := newSegment(&e, 100, 0)
	var done []sim.Time
	note := func(any) { done = append(done, e.Now()) }
	s.Send2(ToFiler, 0, note, nil)
	s.Send2(FromFiler, 0, note, nil)
	s.Send2(ToFiler, 0, note, nil)
	e.Run()
	if len(done) != 3 || done[0] != 100 || done[1] != 100 || done[2] != 200 {
		t.Fatalf("duplex Send2 completions %v, want [100 100 200]", done)
	}
}

func TestLookahead(t *testing.T) {
	var e sim.Engine
	s := newSegment(&e, baseLat, perBit)
	if s.Lookahead() != baseLat {
		t.Fatalf("lookahead %v, want %v", s.Lookahead(), baseLat)
	}
}

// TestPacketTimeLargePayload locks the overflow contract: the bit count is
// computed in sim.Time (int64), so payloads past 256 MiB — where a 32-bit
// int dataBytes*8 product would wrap — still time out correctly.
func TestPacketTimeLargePayload(t *testing.T) {
	var e sim.Engine
	s := newSegment(&e, baseLat, perBit)
	const big = 1 << 29 // 512 MiB payload: big*8 wraps a 32-bit int
	want := baseLat + sim.Time(big)*8*perBit
	if got := s.PacketTime(big); got != want {
		t.Fatalf("PacketTime(%d) = %v, want %v", big, got, want)
	}
	if got := s.PacketTime(big); got <= baseLat {
		t.Fatalf("PacketTime(%d) = %v not past base latency (overflow?)", big, got)
	}
}

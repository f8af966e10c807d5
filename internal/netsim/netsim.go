// Package netsim models the private network segments connecting each host
// to the file server. Per the paper (§5): "each segment can carry one
// packet at a time, and each I/O request uses one packet in each direction.
// Each packet is assumed to incur a fixed latency (for headers, block
// information, and so forth) plus a small amount of additional time per bit
// of block data transferred."
package netsim

import "repro/internal/sim"

// Segment is one host's private link to the filer. It is half-duplex: one
// packet occupies the wire at a time regardless of direction, which is the
// literal reading of the paper's model and produces the read/writeback
// contention ("convoying") the paper reports. A duplex variant is available
// for the ablation bench.
type Segment struct {
	up, down *sim.Server // duplex mode uses both; half-duplex aliases them
	baseLat  sim.Time
	perBit   sim.Time
	packets  uint64
	duplex   bool
}

// Direction selects which way a packet travels.
type Direction int

// Directions.
const (
	ToFiler Direction = iota
	FromFiler
)

// NewSegment returns a half-duplex segment with the given fixed per-packet
// latency and per-bit data latency.
func NewSegment(eng *sim.Engine, name string, baseLat, perBit sim.Time) *Segment {
	s := sim.NewServer(eng, name)
	return &Segment{up: s, down: s, baseLat: baseLat, perBit: perBit}
}

// NewDuplexSegment returns a full-duplex segment: one packet per direction
// at a time. Used by the ablation bench to quantify the half-duplex choice.
func NewDuplexSegment(eng *sim.Engine, name string, baseLat, perBit sim.Time) *Segment {
	return &Segment{
		up:      sim.NewServer(eng, name+"/up"),
		down:    sim.NewServer(eng, name+"/down"),
		baseLat: baseLat,
		perBit:  perBit,
		duplex:  true,
	}
}

// PacketTime returns the wire time for a packet carrying dataBytes of
// payload. The bit count is computed in sim.Time (int64) arithmetic so
// large payloads cannot overflow the intermediate product on any platform.
func (s *Segment) PacketTime(dataBytes int) sim.Time {
	return s.baseLat + sim.Time(dataBytes)*8*s.perBit
}

// Lookahead returns the segment's minimum one-way latency: the wire time
// of an empty packet. No event on the far side of the segment can be
// caused sooner than Lookahead after its cause, which is the conservative
// synchronization bound sharded runs build their epoch barrier from.
func (s *Segment) Lookahead() sim.Time { return s.PacketTime(0) }

// Send2 transmits a packet with dataBytes of payload in the given
// direction and runs fn(arg) when it has fully arrived. fn is a static
// func(any); a nil fn schedules the engine's shared placeholder.
func (s *Segment) Send2(dir Direction, dataBytes int, fn func(any), arg any) {
	s.packets++
	srv := s.up
	if dir == FromFiler {
		srv = s.down
	}
	srv.Use2(s.PacketTime(dataBytes), fn, arg)
}

// Packets returns the number of packets sent.
func (s *Segment) Packets() uint64 { return s.packets }

// Duplex reports whether the segment is full-duplex.
func (s *Segment) Duplex() bool { return s.duplex }

// Busy returns total wire-busy time (sum of both directions when duplex).
func (s *Segment) Busy() sim.Time {
	if s.duplex {
		return s.up.Busy() + s.down.Busy()
	}
	return s.up.Busy()
}

// Waited returns total packet queueing delay.
func (s *Segment) Waited() sim.Time {
	if s.duplex {
		return s.up.Waited() + s.down.Waited()
	}
	return s.up.Waited()
}

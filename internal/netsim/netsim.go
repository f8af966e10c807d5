// Package netsim models the private network segments connecting each host
// to the file server. Per the paper (§5): "each segment can carry one
// packet at a time, and each I/O request uses one packet in each direction.
// Each packet is assumed to incur a fixed latency (for headers, block
// information, and so forth) plus a small amount of additional time per bit
// of block data transferred."
//
// The model here is full duplex: a segment carries one packet at a time
// in each direction, as gigabit Ethernet does. That is a deliberate
// departure from the literal "one packet at a time": with one shared wire,
// background writeback data queues ahead of demand read fills, and
// Figure 8's write-heavy points stop being stable.
package netsim

import "repro/internal/sim"

// Segment is one host's link to the filer: one FIFO wire toward the filer
// and one back, each carrying one packet at a time. Packets in opposite
// directions never wait for each other; packets in the same direction
// queue in order. Both wires are held by value, and a segment is built
// in place by Init, so owners keep segments in arrays of their own.
type Segment struct {
	up, down sim.Server
	baseLat  sim.Time
	perBit   sim.Time
}

// Direction selects which way a packet travels.
type Direction int

// Directions.
const (
	ToFiler Direction = iota
	FromFiler
)

// Init attaches an idle segment to the engine, with the given fixed
// per-packet latency and per-bit data latency.
func (s *Segment) Init(eng *sim.Engine, baseLat, perBit sim.Time) {
	*s = Segment{baseLat: baseLat, perBit: perBit}
	s.up.Init(eng)
	s.down.Init(eng)
}

// packetTime returns the wire time for a packet carrying dataBytes of
// payload. The bit count is computed in sim.Time (int64) arithmetic so
// large payloads cannot overflow the intermediate product on any platform.
func (s *Segment) packetTime(dataBytes int) sim.Time {
	return s.baseLat + sim.Time(dataBytes)*8*s.perBit
}

// Lookahead returns the segment's minimum one-way latency: the wire time
// of an empty packet. No event on the far side of the segment can be
// caused sooner than Lookahead after its cause, which is the conservative
// synchronization bound sharded runs build their epoch barrier from.
func (s *Segment) Lookahead() sim.Time { return s.packetTime(0) }

// Send2 transmits a packet with dataBytes of payload in the given
// direction and runs fn(arg) when it has fully arrived. fn is a static
// func(any); a nil fn schedules the engine's shared placeholder.
func (s *Segment) Send2(dir Direction, dataBytes int, fn func(any), arg any) {
	srv := &s.up
	if dir == FromFiler {
		srv = &s.down
	}
	srv.Use2(s.packetTime(dataBytes), fn, arg)
}

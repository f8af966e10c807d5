// Package blockdev models the block devices the client cache sits on: a
// flash device with fixed average per-block access latencies, and a RAM
// "device" that is a pure delay.
//
// The paper treats the flash as a block device behind a flash translation
// layer ("We treat the flash itself as a block device ... We assume a flash
// translation layer but do not model it directly", §5) and uses average
// per-block access times validated against real SSDs (§6.2). Package ftl
// provides the detailed device internals used to regenerate Figure 1; this
// package provides the average-latency model used by the cache simulator.
package blockdev

import "repro/internal/sim"

// FlashDevice is a flash block device. All latencies are per 4 KiB block.
//
// The device services requests concurrently at a fixed average latency:
// the paper derives per-block access times from measuring real SSDs under
// the caching workload (§6.2), so queueing inside the device is already
// embedded in those averages.
type FlashDevice struct {
	eng      *sim.Engine
	readLat  sim.Time
	writeLat sim.Time

	// persistent adds one metadata write per data write, modeled as a
	// doubled write latency (paper §7.8: "we approximated the cost [of]
	// making the flash persistent by doubling the flash write latency").
	persistent bool

	reads, writes uint64
	busy          sim.Time
}

// Init attaches an idle flash device to the engine. Owners hold devices
// by value, so a device costs no allocation of its own.
func (d *FlashDevice) Init(eng *sim.Engine, readLat, writeLat sim.Time, persistent bool) {
	if readLat < 0 || writeLat < 0 {
		panic("blockdev: negative latency")
	}
	*d = FlashDevice{
		eng:        eng,
		readLat:    readLat,
		writeLat:   writeLat,
		persistent: persistent,
	}
}

func (d *FlashDevice) access(lat sim.Time, fn func(any), arg any) {
	d.busy += lat
	d.eng.Schedule2(lat, fn, arg) // nil fn schedules the engine's shared no-op
}

// Read2 services a one-block read: fn is a static func(any) run with arg
// at completion; a nil fn schedules the shared placeholder.
func (d *FlashDevice) Read2(fn func(any), arg any) {
	d.reads++
	d.access(d.readLat, fn, arg)
}

// Write2 services a one-block write, completing like Read2. In persistent
// mode the block's cache metadata is journalled alongside, costing a
// second write.
func (d *FlashDevice) Write2(fn func(any), arg any) {
	d.writes++
	d.access(d.writeLatency(), fn, arg)
}

// writeLatency returns the effective per-block write latency, including the
// persistence metadata write if enabled.
func (d *FlashDevice) writeLatency() sim.Time {
	if d.persistent {
		return d.writeLat * 2
	}
	return d.writeLat
}

// Reads returns the number of block reads serviced.
func (d *FlashDevice) Reads() uint64 { return d.reads }

// Writes returns the number of block writes serviced.
func (d *FlashDevice) Writes() uint64 { return d.writes }

// Utilisation returns service time over elapsed time, capped at 1. Since
// requests overlap, it is a demand estimate rather than a hard occupancy.
func (d *FlashDevice) Utilisation() float64 {
	if d.eng.Now() == 0 {
		return 0
	}
	u := float64(d.busy) / float64(d.eng.Now())
	if u > 1 {
		u = 1
	}
	return u
}

// RAMDevice is the RAM cache access model: a fixed per-block delay with no
// queueing (DDR bandwidth is far above the simulated demand; the paper uses
// a flat 400 ns per 4 KiB block, §7).
type RAMDevice struct {
	eng      *sim.Engine
	readLat  sim.Time
	writeLat sim.Time
}

// Init attaches a RAM access model with the given per-block latencies to
// the engine.
func (d *RAMDevice) Init(eng *sim.Engine, readLat, writeLat sim.Time) {
	if readLat < 0 || writeLat < 0 {
		panic("blockdev: negative latency")
	}
	*d = RAMDevice{eng: eng, readLat: readLat, writeLat: writeLat}
}

// Read2 runs fn(arg) after one block-read delay; a nil fn schedules the
// shared placeholder.
func (d *RAMDevice) Read2(fn func(any), arg any) {
	d.eng.Schedule2(d.readLat, fn, arg)
}

// Write2 runs fn(arg) after one block-write delay.
func (d *RAMDevice) Write2(fn func(any), arg any) {
	d.eng.Schedule2(d.writeLat, fn, arg)
}

package blockdev

import (
	"testing"

	"repro/internal/sim"
)

// callFunc runs the func() riding in the arg slot of an arg-carrying
// completion.
func callFunc(a any) { a.(func())() }

func newFlashDevice(eng *sim.Engine, readLat, writeLat sim.Time, persistent bool) *FlashDevice {
	d := new(FlashDevice)
	d.Init(eng, readLat, writeLat, persistent)
	return d
}

func newRAMDevice(eng *sim.Engine, readLat, writeLat sim.Time) *RAMDevice {
	d := new(RAMDevice)
	d.Init(eng, readLat, writeLat)
	return d
}

func TestFlashDeviceLatencies(t *testing.T) {
	var e sim.Engine
	d := newFlashDevice(&e, 88*sim.Microsecond, 21*sim.Microsecond, false)
	var readDone, writeDone sim.Time
	d.Read2(callFunc, func() { readDone = e.Now() })
	e.Run()
	if readDone != 88*sim.Microsecond {
		t.Fatalf("read done at %v", readDone)
	}
	d.Write2(callFunc, func() { writeDone = e.Now() })
	e.Run()
	if writeDone != readDone+21*sim.Microsecond {
		t.Fatalf("write done at %v", writeDone)
	}
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Fatalf("counts: %d reads %d writes", d.Reads(), d.Writes())
	}
}

func TestUncontendedFlashDeviceParallel(t *testing.T) {
	var e sim.Engine
	d := newFlashDevice(&e, 10, 20, false)
	var r1, r2 sim.Time
	d.Read2(callFunc, func() { r1 = e.Now() })
	d.Read2(callFunc, func() { r2 = e.Now() })
	e.Run()
	// Concurrent reads both complete at the average access latency: the
	// paper's measured per-block times already include device-internal
	// queueing.
	if r1 != 10 || r2 != 10 {
		t.Fatalf("parallel reads at %v/%v, want 10/10", r1, r2)
	}
	if d.busy != 20 {
		t.Fatalf("busy = %v, want 20 (demand)", d.busy)
	}
}

func TestFlashDevicePersistenceDoublesWrites(t *testing.T) {
	var e sim.Engine
	d := newFlashDevice(&e, 88, 21, true)
	var done sim.Time
	d.Write2(callFunc, func() { done = e.Now() })
	e.Run()
	if done != 42 {
		t.Fatalf("persistent write done at %v, want 42", done)
	}
	if d.WriteLatency() != 42 {
		t.Fatalf("WriteLatency = %v", d.WriteLatency())
	}
	// Reads are unaffected by persistence.
	start := e.Now()
	d.Read2(callFunc, func() { done = e.Now() })
	e.Run()
	if done-start != 88 {
		t.Fatalf("persistent read took %v", done-start)
	}
}

func TestRAMDeviceNoQueueing(t *testing.T) {
	var e sim.Engine
	d := newRAMDevice(&e, 400, 300)
	var t1, t2 sim.Time
	d.Read2(callFunc, func() { t1 = e.Now() })
	d.Write2(callFunc, func() { t2 = e.Now() })
	e.Run()
	// Both complete independently: RAM is a pure delay, not a queue.
	if t1 != 400 || t2 != 300 {
		t.Fatalf("RAM ops at %v/%v, want 400/300", t1, t2)
	}
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Fatal("counts wrong")
	}
}

func TestNegativeLatencyPanics(t *testing.T) {
	var e sim.Engine
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newFlashDevice(&e, -1, 0, false)
}

func TestRAMNegativeLatencyPanics(t *testing.T) {
	var e sim.Engine
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newRAMDevice(&e, -1, 0)
}

func TestFlashDeviceAccessors(t *testing.T) {
	var e sim.Engine
	d := newFlashDevice(&e, 10, 20, false)
	d.Read2(nil, nil)
	d.Write2(nil, nil)
	e.Run()
	if d.busy != 30 {
		t.Fatalf("busy = %v", d.busy)
	}
	if u := d.Utilisation(); u <= 0 || u > 1 {
		t.Fatalf("utilisation = %v", u)
	}
	// Fresh device with no elapsed time reports zero utilisation.
	var e2 sim.Engine
	d2 := newFlashDevice(&e2, 10, 20, false)
	if d2.Utilisation() != 0 {
		t.Fatal("fresh device utilisation not 0")
	}
}

// TestFlashUtilisationIsDemand locks Utilisation as demanded service time
// over elapsed time: overlapping requests add up, and the ratio caps at 1.
func TestFlashUtilisationIsDemand(t *testing.T) {
	var e sim.Engine
	d := newFlashDevice(&e, 10, 20, false)
	d.Read2(nil, nil)
	d.Read2(nil, nil)
	e.Schedule(100, func() {})
	e.Run()
	if u := d.Utilisation(); u != 0.2 {
		t.Fatalf("utilisation = %v, want 0.2", u)
	}
	for i := 0; i < 20; i++ {
		d.Write2(nil, nil)
	}
	if u := d.Utilisation(); u != 1 {
		t.Fatalf("overloaded utilisation = %v, want capped 1", u)
	}
}

package ftl

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

func smallConfig() Config {
	return Config{
		EraseBlocks:          16,
		PagesPerBlock:        32,
		OverProvision:        0.15,
		PageReadLat:          60 * sim.Microsecond,
		PageProgramLat:       180 * sim.Microsecond,
		EraseLat:             1500 * sim.Microsecond,
		WriteAckLat:          21 * sim.Microsecond,
		GCFreeBlocksLowWater: 2,
		LatencyJitter:        0, // deterministic for tests
		Seed:                 1,
	}
}

// latProbe measures host-observed latency for a closed loop of device
// ops, one in flight at a time: issue records the engine time, and
// latDone stores the elapsed time at completion.
type latProbe struct {
	eng        *sim.Engine
	start, lat sim.Time
	total      sim.Time
	count      int
}

func latDone(a any) {
	p := a.(*latProbe)
	p.lat = p.eng.Now() - p.start
	p.total += p.lat
	p.count++
}

func (p *latProbe) read(d *Device, lpn int) {
	p.start = p.eng.Now()
	d.Read2(lpn, latDone, p)
}

func (p *latProbe) write(d *Device, lpn int) {
	p.start = p.eng.Now()
	d.Write2(lpn, latDone, p)
}

func mustDevice(t *testing.T, eng *sim.Engine, cfg Config) *Device {
	t.Helper()
	d, err := NewDevice(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeometryValidation(t *testing.T) {
	var e sim.Engine
	cases := []Config{
		{EraseBlocks: 2, PagesPerBlock: 32, OverProvision: 0.1, GCFreeBlocksLowWater: 1},
		{EraseBlocks: 8, PagesPerBlock: 0, OverProvision: 0.1, GCFreeBlocksLowWater: 1},
		{EraseBlocks: 8, PagesPerBlock: 32, OverProvision: 0.6, GCFreeBlocksLowWater: 1},
		{EraseBlocks: 8, PagesPerBlock: 32, OverProvision: 0.1, GCFreeBlocksLowWater: 0},
	}
	for i, cfg := range cases {
		if _, err := NewDevice(&e, cfg); err == nil {
			t.Errorf("case %d: bad geometry accepted", i)
		}
	}
}

func TestWriteAckLatencyConstant(t *testing.T) {
	var e sim.Engine
	d := mustDevice(t, &e, smallConfig())
	p := &latProbe{eng: &e}
	for i := 0; i < 50; i++ {
		p.write(d, i%d.LogicalPages())
		e.Run()
		if p.lat != 21*sim.Microsecond {
			t.Fatalf("write ack latency %v, want 21us", p.lat)
		}
	}
	if p.count != 50 {
		t.Fatalf("%d completions, want 50", p.count)
	}
}

func TestUnwrittenReadReturnsWithoutNAND(t *testing.T) {
	var e sim.Engine
	d := mustDevice(t, &e, smallConfig())
	p := &latProbe{eng: &e}
	p.read(d, 5)
	e.Run()
	// An unwritten page answers at half the write ack, without the die.
	if p.count != 1 || p.lat != smallConfig().WriteAckLat/2 {
		t.Fatalf("unwritten read took %v, want %v", p.lat, smallConfig().WriteAckLat/2)
	}
	if busy := d.Snapshot().DieBusy; busy != 0 {
		t.Fatalf("unwritten read kept the die busy for %v", busy)
	}
}

func TestReadAfterWriteUsesNAND(t *testing.T) {
	var e sim.Engine
	d := mustDevice(t, &e, smallConfig())
	d.Write2(7, nil, nil)
	e.Run()
	busy := d.Snapshot().DieBusy
	p := &latProbe{eng: &e}
	p.read(d, 7)
	e.Run()
	if got := d.Snapshot().DieBusy - busy; got != smallConfig().PageReadLat {
		t.Fatalf("read kept the die busy for %v, want one page read", got)
	}
	if p.lat < 60*sim.Microsecond {
		t.Fatalf("read latency %v below page read time", p.lat)
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	var e sim.Engine
	d := mustDevice(t, &e, smallConfig())
	for i := 0; i < 10; i++ {
		d.Write2(3, nil, nil)
		e.Run()
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := d.Snapshot()
	if s.NANDPrograms != 10 {
		t.Fatalf("programs = %d, want 10", s.NANDPrograms)
	}
}

func TestGCReclaimsAndConservesData(t *testing.T) {
	var e sim.Engine
	cfg := smallConfig()
	d := mustDevice(t, &e, cfg)
	// Overwrite a small working set far beyond device capacity to force
	// many GC cycles.
	n := d.LogicalPages() / 2
	for i := 0; i < n*20; i++ {
		d.Write2(i%n, nil, nil)
		e.Run()
		if i%100 == 0 {
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("after %d writes: %v", i, err)
			}
		}
	}
	s := d.Snapshot()
	if s.Erases == 0 {
		t.Fatal("no erases after sustained overwrite")
	}
	if s.WriteAmplification < 1 {
		t.Fatalf("write amplification %v < 1", s.WriteAmplification)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAmplificationGrowsWithFill(t *testing.T) {
	var e sim.Engine
	cfg := smallConfig()
	cfg.EraseBlocks = 32
	d := mustDevice(t, &e, cfg)
	r := rng.New(4)

	churn := func(frac float64, writes int) float64 {
		span := int(float64(d.LogicalPages()) * frac)
		before := d.Snapshot()
		for i := 0; i < writes; i++ {
			d.Write2(r.Intn(span), nil, nil)
			e.Run()
		}
		after := d.Snapshot()
		return float64(after.NANDPrograms-before.NANDPrograms) /
			float64(after.HostWrites-before.HostWrites)
	}

	low := churn(0.3, 4000)
	high := churn(0.98, 4000)
	if high <= low {
		t.Fatalf("WA at high fill (%v) not above low fill (%v)", high, low)
	}
}

func TestReadLatencyDegradesWithWritePressure(t *testing.T) {
	// Figure 1's key shape: reads behind heavy write traffic on a full
	// device are slower than on a fresh device.
	var e sim.Engine
	cfg := smallConfig()
	d := mustDevice(t, &e, cfg)
	r := rng.New(9)
	n := d.LogicalPages()

	measure := func(ops int) sim.Time {
		p := &latProbe{eng: &e}
		for i := 0; i < ops; i++ {
			lpn := r.Intn(n)
			if r.Bool(0.7) {
				d.Write2(lpn, nil, nil)
			} else {
				p.read(d, lpn)
			}
			e.Run() // closed loop: one op at a time
		}
		if p.count == 0 {
			return 0
		}
		return p.total / sim.Time(p.count)
	}

	early := measure(500)
	for i := 0; i < 20000; i++ { // age the device
		d.Write2(r.Intn(n), nil, nil)
		e.Run()
	}
	late := measure(500)
	if late < early {
		t.Fatalf("aged read latency %v < fresh %v", late, early)
	}
}

func TestEraseWearTracked(t *testing.T) {
	var e sim.Engine
	d := mustDevice(t, &e, smallConfig())
	for i := 0; i < d.LogicalPages()*10; i++ {
		d.Write2(i%(d.LogicalPages()/3), nil, nil)
		e.Run()
	}
	s := d.Snapshot()
	if s.MaxErase == 0 {
		t.Fatal("no wear recorded")
	}
	if s.MinErase > s.MaxErase {
		t.Fatal("wear bounds inverted")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	var e sim.Engine
	d := mustDevice(t, &e, smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.Read2(d.LogicalPages(), nil, nil)
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig(100000)
	var e sim.Engine
	d, err := NewDevice(&e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.LogicalPages() < 90000 {
		t.Fatalf("logical pages %d far below requested", d.LogicalPages())
	}
}

func TestJitterBounded(t *testing.T) {
	var e sim.Engine
	cfg := smallConfig()
	cfg.LatencyJitter = 0.25
	d := mustDevice(t, &e, cfg)
	d.Write2(0, nil, nil)
	e.Run()
	p := &latProbe{eng: &e}
	for i := 0; i < 200; i++ {
		p.read(d, 0)
		e.Run()
		if p.lat <= 0 {
			t.Fatalf("non-positive jittered latency %v", p.lat)
		}
	}
}

func BenchmarkFTLWrite(b *testing.B) {
	var e sim.Engine
	cfg := smallConfig()
	cfg.EraseBlocks = 64
	d, err := NewDevice(&e, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write2(r.Intn(d.LogicalPages()), nil, nil)
		e.Run()
	}
}

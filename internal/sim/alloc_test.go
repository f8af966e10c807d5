package sim

import "testing"

// The engine's contract after the 4-ary heap refactor: once the heap's
// backing array has grown to its high-water mark, steady-state scheduling
// allocates nothing — no interface boxing per push, no per-event records.

func TestScheduleStepAllocationFree(t *testing.T) {
	var e Engine
	fn := func() {}
	// Warm the heap's backing array past any size this test reaches.
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(10, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocated %v per run, want 0", allocs)
	}
}

func TestSchedule2AllocationFree(t *testing.T) {
	var e Engine
	type probe struct{ n int }
	p := &probe{}
	fn := func(a any) { a.(*probe).n++ }
	for i := 0; i < 64; i++ {
		e.Schedule2(Time(i), fn, p)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule2(10, fn, p)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule2+Step allocated %v per run, want 0", allocs)
	}
	if p.n == 0 {
		t.Fatal("arg-carrying callback never ran")
	}
}

func TestServerUseAllocationFree(t *testing.T) {
	var e Engine
	var s Server
	s.Init(&e)
	s.Use2(1, nil, nil)
	e.Run()

	// A static completion with its state in arg, a func() passed through
	// callFunc, and the nil-fn placeholder path must all be
	// allocation-free.
	type probe struct{ n int }
	p := &probe{}
	fn := func(a any) { a.(*probe).n++ }
	allocs := testing.AllocsPerRun(1000, func() {
		s.Use2(5, fn, p)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Use2 allocated %v per run, want 0", allocs)
	}
	done := func() {}
	allocs = testing.AllocsPerRun(1000, func() {
		s.Use2(5, callFunc, done)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Use2(callFunc, func) allocated %v per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		s.Use2(5, nil, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Use2(nil fn) allocated %v per run, want 0", allocs)
	}
}

func TestTickerTickAllocationFree(t *testing.T) {
	var e Engine
	ticks := 0
	var tk Ticker
	tk.Start(&e, 10, func(a any) { *a.(*int)++ }, &ticks)
	e.Step() // first tick; rearms itself
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("ticker tick allocated %v per run, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}

// BenchmarkEngineSchedule measures the raw schedule+dispatch cycle: one
// push and one pop through the 4-ary heap per iteration.
func BenchmarkEngineSchedule(b *testing.B) {
	var e Engine
	fn := func() {}
	// Keep a standing population so the heap works at a realistic depth.
	for i := 0; i < 256; i++ {
		e.Schedule(Time(i%17), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(10, fn)
		e.Step()
	}
}

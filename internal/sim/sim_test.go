package sim

import (
	"testing"
	"testing/quick"
)

// callFunc runs the func() riding in the arg slot of an arg-carrying
// completion.
func callFunc(a any) { a.(func())() }

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested schedule wrong: %v", hits)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	var e Engine
	e.Schedule(-1, func() {})
}

func TestAtBeforeNowPanics(t *testing.T) {
	var e Engine
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At before now did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	var e Engine
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v, want 20", e.Now())
	}
	e.RunUntil(100)
	if ran != 3 || e.Now() != 100 {
		t.Fatalf("after second RunUntil: ran=%d now=%v", ran, e.Now())
	}
}

func TestRunWhile(t *testing.T) {
	var e Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		e.Schedule(1, tick)
	}
	e.Schedule(1, tick)
	e.RunWhile(func() bool { return count < 5 })
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestProcessedAndPending(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if len(e.events) != 2 {
		t.Fatalf("pending = %d", len(e.events))
	}
	e.Run()
	if e.Processed() != 2 || len(e.events) != 0 {
		t.Fatalf("processed=%d pending=%d", e.Processed(), len(e.events))
	}
}

func TestHeapOrderingProperty(t *testing.T) {
	// Property: for arbitrary delays, events execute in nondecreasing
	// time order.
	f := func(delays []uint16) bool {
		var e Engine
		var times []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerializes(t *testing.T) {
	var e Engine
	var s Server
	s.Init(&e)
	var finish []Time
	s.Use2(10, callFunc, func() { finish = append(finish, e.Now()) })
	s.Use2(10, callFunc, func() { finish = append(finish, e.Now()) })
	s.Use2(10, callFunc, func() { finish = append(finish, e.Now()) })
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if s.Busy() != 30 {
		t.Fatalf("busy = %v", s.Busy())
	}
	if s.Waited() != 10+20 {
		t.Fatalf("waited = %v", s.Waited())
	}
}

func TestServerIdleGap(t *testing.T) {
	var e Engine
	var s Server
	s.Init(&e)
	var finished Time
	s.Use2(5, nil, nil)
	e.Schedule(100, func() {
		s.Use2(5, callFunc, func() { finished = e.Now() })
	})
	e.Run()
	if finished != 105 {
		t.Fatalf("second request finished at %v, want 105", finished)
	}
	if s.Waited() != 0 {
		t.Fatalf("waited = %v, want 0", s.Waited())
	}
}

func TestServerUtilisation(t *testing.T) {
	var e Engine
	var s Server
	s.Init(&e)
	s.Use2(50, nil, nil)
	e.Schedule(100, func() {}) // stretch the clock
	e.Run()
	if u := s.Utilisation(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilisation = %v, want ~0.5", u)
	}
}

func TestServerNegativeServicePanics(t *testing.T) {
	var e Engine
	var s Server
	s.Init(&e)
	defer func() {
		if recover() == nil {
			t.Fatal("negative service did not panic")
		}
	}()
	s.Use2(-1, nil, nil)
}

func TestServerBusyConservation(t *testing.T) {
	// Property: total busy time equals the sum of service times, and the
	// last completion is at least that sum (single server).
	f := func(svcs []uint8) bool {
		var e Engine
		var s Server
		s.Init(&e)
		var sum Time
		var last Time
		for _, v := range svcs {
			sv := Time(v)
			sum += sv
			s.Use2(sv, callFunc, func() { last = e.Now() })
		}
		e.Run()
		return s.Busy() == sum && last == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTicker(t *testing.T) {
	var e Engine
	fired := []Time{}
	var tk Ticker
	tk.Start(&e, 10, callFunc, func() {
		fired = append(fired, e.Now())
	})
	e.Schedule(35, func() { tk.Stop() })
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d times at %v, want 3", len(fired), fired)
	}
	for i, at := range []Time{10, 20, 30} {
		if fired[i] != at {
			t.Fatalf("fire %d at %v, want %v", i, fired[i], at)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	var e Engine
	count := 0
	var tk Ticker
	tk.Start(&e, 5, callFunc, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	e.RunUntil(100)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestDaemonEventsDoNotKeepRunAlive(t *testing.T) {
	var e Engine
	var tk Ticker
	tk.Start(&e, 10, func(any) {}, nil)
	ran := false
	e.Schedule(25, func() { ran = true })
	e.Run() // must terminate despite the armed ticker
	if !ran {
		t.Fatal("foreground event did not run")
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	if len(e.events) == 0 {
		t.Fatal("armed ticker should remain pending as a daemon event")
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	var tk Ticker
	tk.Start(&e, 0, nil, nil)
}

func TestJoin(t *testing.T) {
	done := false
	j := NewJoin(3, func() { done = true })
	j.Done()
	j.Done()
	if done {
		t.Fatal("done fired early")
	}
	j.Done()
	if !done {
		t.Fatal("done never fired")
	}
}

func TestJoinZero(t *testing.T) {
	done := false
	NewJoin(0, func() { done = true })
	if !done {
		t.Fatal("zero join did not fire immediately")
	}
}

func TestJoinOverrunPanics(t *testing.T) {
	j := NewJoin(1, nil)
	j.Done()
	defer func() {
		if recover() == nil {
			t.Fatal("overrun did not panic")
		}
	}()
	j.Done()
}

func TestTimeFormatting(t *testing.T) {
	if got := (1500 * Nanosecond).String(); got != "1.500us" {
		t.Fatalf("String() = %q", got)
	}
	if (2 * Microsecond).Micros() != 2 {
		t.Fatal("Micros wrong")
	}
	if (3 * Second).Seconds() != 3 {
		t.Fatal("Seconds wrong")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	var e Engine
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	b.ResetTimer()
	e.Run()
}

func BenchmarkServerUse(b *testing.B) {
	var e Engine
	var s Server
	s.Init(&e)
	for i := 0; i < b.N; i++ {
		s.Use2(1, nil, nil)
	}
	e.Run()
}

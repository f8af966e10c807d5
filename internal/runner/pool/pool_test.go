package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	for _, parallel := range []int{0, 1, 4, 100} {
		var hits [50]atomic.Int32
		if err := forEach(len(hits), parallel, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("parallel=%d: job %d ran %d times", parallel, i, n)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := forEach(0, 4, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSequentialAbortsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := forEach(10, 1, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(ran) != 4 {
		t.Fatalf("ran %v after error at 3", ran)
	}
}

// The pool stops dispatching once an error is observed: with every job
// failing instantly, far fewer than n jobs run.
func TestForEachParallelStopsDispatching(t *testing.T) {
	var ran atomic.Int32
	err := forEach(10000, 4, func(i int) error {
		ran.Add(1)
		return fmt.Errorf("job %d", i)
	})
	if err == nil {
		t.Fatal("no error")
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("%d jobs ran after the first error", n)
	}
}

// When several jobs fail, the lowest-index error is reported — the same
// error a sequential run stops on.
func TestForEachLowestIndexErrorWins(t *testing.T) {
	for _, parallel := range []int{1, 2, 8} {
		err := forEach(64, parallel, func(i int) error {
			if i%2 == 1 { // 1, 3, 5, ... all fail
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 1" {
			t.Fatalf("parallel=%d: err = %v, want job 1", parallel, err)
		}
	}
}

func TestCollectOrdersResultsAndDelivery(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		var delivered []int
		results, err := Collect(40, parallel,
			func(i int) (int, error) { return i * i, nil },
			func(i int, r int) {
				delivered = append(delivered, i)
				if r != i*i {
					t.Fatalf("delivered %d for job %d", r, i)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r != i*i {
				t.Fatalf("parallel=%d: results[%d] = %d", parallel, i, r)
			}
		}
		for i, d := range delivered {
			if d != i {
				t.Fatalf("parallel=%d: delivery order %v", parallel, delivered)
			}
		}
		if len(delivered) != 40 {
			t.Fatalf("parallel=%d: %d deliveries", parallel, len(delivered))
		}
	}
}

func TestCollectError(t *testing.T) {
	boom := errors.New("boom")
	results, err := Collect(8, 4,
		func(i int) (int, error) {
			if i == 2 {
				return 0, boom
			}
			return i, nil
		}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if results != nil {
		t.Fatalf("partial results returned: %v", results)
	}
}

// Jobs delivered before the failing index are exactly the sequential
// prefix: delivery never runs ahead of an error.
func TestCollectDeliveryStopsAtError(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		var delivered []int
		_, err := Collect(20, parallel,
			func(i int) (int, error) {
				if i == 5 {
					return 0, errors.New("boom")
				}
				return i, nil
			},
			func(i int, r int) { delivered = append(delivered, i) })
		if err == nil {
			t.Fatal("no error")
		}
		if len(delivered) > 5 {
			t.Fatalf("parallel=%d: delivered %v past the failed job", parallel, delivered)
		}
		for i, d := range delivered {
			if d != i {
				t.Fatalf("parallel=%d: delivery order %v", parallel, delivered)
			}
		}
	}
}

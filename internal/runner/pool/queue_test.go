package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestQueueRunsEverySubmittedJob(t *testing.T) {
	q := NewQueue(4)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if err := q.Submit(func() { n.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if n.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", n.Load())
	}
}

func TestQueueBoundsConcurrency(t *testing.T) {
	const workers = 3
	q := NewQueue(workers)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	wg.Add(40)
	for i := 0; i < 40; i++ {
		q.Submit(func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			cur.Add(-1)
		})
	}
	wg.Wait()
	q.Close()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestQueueCloseRejectsAndIsIdempotent(t *testing.T) {
	q := NewQueue(0) // clamps to 1 worker
	if q.workers != 1 {
		t.Fatalf("workers = %d, want clamped 1", q.workers)
	}
	ran := false
	q.Submit(func() { ran = true })
	q.Close()
	q.Close()
	if !ran {
		t.Fatal("queued job dropped by Close")
	}
	if err := q.Submit(func() {}); err != ErrQueueClosed {
		t.Fatalf("Submit after Close = %v, want ErrQueueClosed", err)
	}
}

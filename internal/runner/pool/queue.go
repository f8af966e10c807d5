package pool

import (
	"errors"
	"sync"
)

// ErrQueueClosed is returned by Submit after Close.
var ErrQueueClosed = errors.New("pool: queue closed")

// Queue is the long-lived sibling of ForEach: a fixed set of workers
// draining an unbounded job list, for callers — like the simulation
// daemon — that accept work continuously instead of in one batch. At most
// `workers` jobs run concurrently; excess submissions wait in FIFO order.
// Unlike ForEach there is no error short-circuit: each job owns its own
// failure reporting.
type Queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	jobs    []func()
	workers int
	closed  bool
	wg      sync.WaitGroup
}

// NewQueue starts a queue with the given worker count (minimum 1).
func NewQueue(workers int) *Queue {
	if workers < 1 {
		workers = 1
	}
	q := &Queue{workers: workers}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.work()
	}
	return q
}

// Submit enqueues one job. It never blocks on job execution; it fails only
// after Close.
func (q *Queue) Submit(job func()) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	q.jobs = append(q.jobs, job)
	q.cond.Signal()
	return nil
}

// Close stops accepting jobs, waits for queued and running jobs to finish,
// and releases the workers. It is idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}

func (q *Queue) work() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.jobs) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.jobs) == 0 { // closed and drained
			q.mu.Unlock()
			return
		}
		job := q.jobs[0]
		q.jobs = q.jobs[1:]
		q.mu.Unlock()
		job()
	}
}

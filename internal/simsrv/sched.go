package simsrv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"hugeomp/internal/omp"
)

// sched is simd's one admission path. A session needs two resources before
// it may run: one of the worker slots, and its estimated fork footprint
// (npb.ForkBytes: class-dependent mutable-array bytes plus metadata) under
// the global memory budget. Sessions that cannot have both at once wait in
// one FIFO — a small request does not overtake a large one — each on its own
// context, so queue time spends the request's deadline budget, never the
// server's. A session arriving at a queue that already holds maxQueue
// waiters is refused with ErrSaturated (429). Requests answerable from a
// cache layer never reach the scheduler at all: the memo and disk lookups
// run before dispatch, so under saturation the service keeps serving exactly
// the cache-hit-likely traffic while compute-bound requests queue.
//
// One deliberate asymmetry: a request whose footprint alone exceeds the
// budget is admitted when the scheduler is idle (nothing charged). The
// budget bounds concurrent packing; it must not make a large class
// permanently unservable.
type sched struct {
	workers  int   // concurrent session slots
	budget   int64 // bytes; 0 = unbounded
	maxQueue int   // bound on waiting sessions

	mu      sync.Mutex
	charged int64
	running int
	waiters []*schedWaiter
	closed  bool
	active  sync.WaitGroup // queued and running sessions, awaited by close

	waits       atomic.Uint64
	peakCharged atomic.Int64
}

type schedWaiter struct {
	est   int64
	ready chan struct{} // closed once the waiter's slot and charge are applied
}

func newSched(workers int, budget int64, maxQueue int) *sched {
	return &sched{workers: workers, budget: budget, maxQueue: maxQueue}
}

// fitsLocked reports whether a session charging est more bytes may start
// now: a worker slot is free and the charge respects the budget. An idle
// scheduler always fits the budget (see the type comment).
func (s *sched) fitsLocked(est int64) bool {
	if s.running >= s.workers {
		return false
	}
	if s.budget <= 0 || s.charged == 0 {
		return true
	}
	return s.charged+est <= s.budget
}

func (s *sched) chargeLocked(est int64) {
	s.charged += est
	s.running++
	if s.charged > s.peakCharged.Load() {
		s.peakCharged.Store(s.charged)
	}
}

// admitLocked starts, in FIFO order, every waiter that now fits.
func (s *sched) admitLocked() {
	for len(s.waiters) > 0 && s.fitsLocked(s.waiters[0].est) {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.chargeLocked(w.est)
		close(w.ready)
	}
}

// acquire takes a worker slot and charges est bytes, waiting FIFO under
// ctx's deadline while either is short. It returns ErrDraining after close,
// ErrSaturated when the waiter queue is full, and an omp.ErrAborted-wrapping
// error when ctx dies first, so the HTTP layer answers 503, 429 and 504.
// Every nil return must be paired with one release(est).
func (s *sched) acquire(ctx context.Context, est int64) error {
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return ErrDraining
	case len(s.waiters) == 0 && s.fitsLocked(est):
		s.chargeLocked(est)
		s.active.Add(1)
		s.mu.Unlock()
		return nil
	case len(s.waiters) >= s.maxQueue:
		s.mu.Unlock()
		return ErrSaturated
	}
	w := &schedWaiter{est: est, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.active.Add(1)
	s.mu.Unlock()
	s.waits.Add(1)

	select {
	case <-w.ready:
		return nil // admitLocked already charged us
	case <-ctx.Done():
		s.mu.Lock()
		removed := s.removeWaiterLocked(w)
		if removed {
			s.admitLocked() // we may have been the head blocking smaller waiters
		}
		s.mu.Unlock()
		if removed {
			s.active.Done()
		} else {
			// Granted concurrently with the abort: we own a slot we will
			// never use. Hand it back (this also admits the next waiter).
			s.release(est)
		}
		return fmt.Errorf("%w: deadline spent waiting for admission: %v", omp.ErrAborted, ctx.Err())
	}
}

func (s *sched) removeWaiterLocked(w *schedWaiter) bool {
	for i, x := range s.waiters {
		if x == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// release returns a session's slot and est charged bytes, and admits every
// waiter that now fits.
func (s *sched) release(est int64) {
	s.mu.Lock()
	s.charged -= est
	s.running--
	s.admitLocked()
	s.mu.Unlock()
	s.active.Done()
}

// close refuses new sessions with ErrDraining, then waits for every queued
// and running one to release. Queued sessions are still admitted as slots
// free. Idempotent.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.active.Wait()
}

// snapshot returns the scheduler's gauges.
func (s *sched) snapshot() (queued, running int, charged int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters), s.running, s.charged
}

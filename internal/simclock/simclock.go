// Package simclock provides virtual time for the measurement experiments.
// The paper's longest measurement spans three months of wall time
// (Table 6); on the simulated clock those months elapse in milliseconds
// while preserving event ordering and inter-arrival statistics.
//
// Two abstractions are provided:
//
//   - Clock: the minimal read-only interface (Now) production code uses, with
//     Real() returning a wall-clock implementation.
//   - Sim: a deterministic discrete-event scheduler. Events are executed in
//     timestamp order (FIFO among equal timestamps); handlers may schedule
//     further events, including at the current instant.
//
// The event queue is a concrete binary heap of event values — no
// container/heap interface boxing — so scheduling and popping an event
// allocates nothing once the queue's backing array has grown to its
// steady-state size.
package simclock

import (
	"sync"
	"time"
)

// Clock supplies the current time.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Real returns a Clock backed by the system clock.
func Real() Clock { return realClock{} }

type event struct {
	at  time.Time
	seq uint64 // tie-breaker: preserves scheduling order at equal instants
	fn  func()
}

// before reports whether e must execute ahead of o.
func (e *event) before(o *event) bool {
	if e.at.Equal(o.at) {
		return e.seq < o.seq
	}
	return e.at.Before(o.at)
}

// Sim is a discrete-event simulation clock. The zero value is not usable;
// construct with New.
type Sim struct {
	mu   sync.Mutex
	now  time.Time
	seq  uint64
	evts []event // binary min-heap ordered by (at, seq)
}

// New returns a Sim starting at the given instant.
func New(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// pushLocked appends an event and restores the heap invariant (sift-up).
func (s *Sim) pushLocked(at time.Time, fn func()) {
	s.seq++
	s.evts = append(s.evts, event{at: at, seq: s.seq, fn: fn})
	i := len(s.evts) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.evts[i].before(&s.evts[parent]) {
			break
		}
		s.evts[i], s.evts[parent] = s.evts[parent], s.evts[i]
		i = parent
	}
}

// popLocked removes and returns the earliest event (sift-down).
func (s *Sim) popLocked() event {
	e := s.evts[0]
	n := len(s.evts) - 1
	s.evts[0] = s.evts[n]
	s.evts[n] = event{} // release the closure reference
	s.evts = s.evts[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		least := l
		if r < n && s.evts[r].before(&s.evts[l]) {
			least = r
		}
		if !s.evts[least].before(&s.evts[i]) {
			break
		}
		s.evts[i], s.evts[least] = s.evts[least], s.evts[i]
		i = least
	}
	return e
}

// Schedule runs fn at the given absolute virtual time. Times in the past are
// clamped to the current instant.
func (s *Sim) Schedule(at time.Time, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at.Before(s.now) {
		at = s.now
	}
	s.pushLocked(at, fn)
}

// ScheduleAfter runs fn d after the current virtual instant.
func (s *Sim) ScheduleAfter(d time.Duration, fn func()) {
	s.mu.Lock()
	s.pushLocked(s.now.Add(d), fn)
	s.mu.Unlock()
}

// pop removes the earliest event not after limit, with ok=false when the
// queue is exhausted or the next event lies beyond limit.
func (s *Sim) pop(limit time.Time) (event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.evts) == 0 {
		return event{}, false
	}
	if s.evts[0].at.After(limit) {
		return event{}, false
	}
	e := s.popLocked()
	s.now = e.at
	return e, true
}

// RunUntil processes events in order until the queue is exhausted or the
// next event lies beyond limit, then advances the clock to limit. It returns
// the number of events executed.
func (s *Sim) RunUntil(limit time.Time) int {
	n := 0
	for {
		e, ok := s.pop(limit)
		if !ok {
			break
		}
		e.fn()
		n++
	}
	s.mu.Lock()
	if s.now.Before(limit) {
		s.now = limit
	}
	s.mu.Unlock()
	return n
}

// RunFor advances the simulation by d. See RunUntil.
func (s *Sim) RunFor(d time.Duration) int {
	return s.RunUntil(s.Now().Add(d))
}

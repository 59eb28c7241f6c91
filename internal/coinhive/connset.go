package coinhive

import (
	"sync"
	"time"
)

// connSet is the tracked-connection/drain state machine shared by the
// service's network fronts (the ws Server and the TCP StratumServer):
// live connections register so shutdown can reach them, a draining flag
// turns new arrivals away, and Drained waits for the set to empty. Only
// what shutdown *does* to a connection differs per front (ws completes a
// 1001 close handshake; TCP simply tears down), so that stays with the
// caller, applied to the snapshot drain returns.
type connSet[T comparable] struct {
	mu       sync.Mutex
	conns    map[T]struct{}
	draining bool
}

// track registers a live connection; it reports false when the front is
// draining, in which case the caller must turn the peer away.
func (cs *connSet[T]) track(c T) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.draining {
		return false
	}
	if cs.conns == nil {
		cs.conns = map[T]struct{}{}
	}
	cs.conns[c] = struct{}{}
	return true
}

// untrack removes a connection (its serve goroutine is exiting).
func (cs *connSet[T]) untrack(c T) {
	cs.mu.Lock()
	delete(cs.conns, c)
	cs.mu.Unlock()
}

// isDraining reports whether drain has run.
func (cs *connSet[T]) isDraining() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.draining
}

// snapshot returns the current live connections.
func (cs *connSet[T]) snapshot() []T {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	open := make([]T, 0, len(cs.conns))
	for c := range cs.conns {
		open = append(open, c)
	}
	return open
}

// drain flips the set into draining mode and returns the connections to
// shut down, plus whether this call was the one that started the drain
// (false: a concurrent or earlier drain already owns teardown).
func (cs *connSet[T]) drain() (open []T, first bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.draining {
		return nil, false
	}
	cs.draining = true
	open = make([]T, 0, len(cs.conns))
	for c := range cs.conns {
		open = append(open, c)
	}
	return open, true
}

// drained reports whether every connection has unregistered, waiting up
// to timeout.
func (cs *connSet[T]) drained(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		cs.mu.Lock()
		n := len(cs.conns)
		cs.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Package netpark parks idle connections without a goroutine each. A
// server-clocked stratum session spends almost all of its life silent
// between keepalives; a blocked reader goroutine per live session means
// 50k sessions cost 50k stacks doing nothing. Parking instead registers
// the connection with a readiness source — epoll for real sockets,
// an ArmReadWaker hook for in-memory conns — plus a runtime timer for
// the deadline (the keepalive window), and calls back when bytes arrive
// or the deadline expires. Goroutine count then scales with *active*
// sessions, not live ones.
package netpark

import (
	"net"
	"sync/atomic"
	"syscall"
	"time"
)

// readWaker is the fd-less readiness source (memconn implements it).
type readWaker interface {
	ArmReadWaker(func())
}

// entry is one parked connection. Single-use: a wake or timeout claims it
// exactly once (the atomic arbitrates between the readiness source and
// the deadline timer), and resuming re-parks with a fresh entry.
type entry struct {
	onReady   func()
	onTimeout func()
	timer     *time.Timer
	claimed   atomic.Bool
	// fd is the epoll-registered descriptor, negative otherwise. Atomic
	// because the poller registers it after the deadline timer is armed.
	fd atomic.Int32
}

// Parker parks connections until readability or a deadline.
type Parker struct {
	stopped atomic.Bool
	poller  *poller // epoll readiness for real sockets; nil when unavailable
	parked  atomic.Int64
}

// New starts a parker. Its argument is unused: callbacks run on the
// goroutine that saw readiness or on the deadline's timer (see Park), so
// there is no worker pool to size.
func New(int) *Parker {
	p := &Parker{}
	p.poller, _ = newPoller(p)
	return p
}

// Parked reports how many connections are currently parked.
func (p *Parker) Parked() int64 { return p.parked.Load() }

// Park registers nc until it becomes readable (onReady) or deadline
// passes (onTimeout). Exactly one of the two fires, once. onReady runs on
// the goroutine that saw readiness — the epoll loop, or the memconn
// writer (or Park's own caller when data is already buffered) — and
// onTimeout on the deadline's runtime timer goroutine, so both must be
// cheap and must not block: spawning a goroutine or closing a connection
// is. It returns false when the connection offers no readiness source the
// parker can use — the caller then keeps its own goroutine.
//
// The caller must not touch the connection after a successful Park until
// its callback fires: the callback may run before Park even returns (data
// already buffered or deadline already past). Arming the timer and the
// readiness source provide the happens-before between the caller's
// pre-Park writes and the callback's reads.
func (p *Parker) Park(nc net.Conn, deadline time.Time, onReady, onTimeout func()) bool {
	rw, isWaker := nc.(readWaker)
	sc, isSock := nc.(syscall.Conn)
	if p.stopped.Load() || !isWaker && (p.poller == nil || !isSock) {
		return false
	}
	e := &entry{onReady: onReady, onTimeout: onTimeout}
	e.fd.Store(-1)
	p.parked.Add(1)
	// The timer is armed first so a wake always finds e.timer set.
	e.timer = time.AfterFunc(time.Until(deadline), func() { p.expire(e) })
	if isWaker {
		rw.ArmReadWaker(func() { p.wake(e) })
		return true
	}
	if p.poller.add(e, sc) == nil {
		return true
	}
	// Registration failed: withdraw the entry and let the caller keep its
	// goroutine — unless the deadline already claimed it, in which case
	// onTimeout owns the connection.
	if !e.claimed.CompareAndSwap(false, true) {
		return true
	}
	e.timer.Stop()
	p.parked.Add(-1)
	return false
}

// wake claims e and runs its onReady on the calling goroutine. Loses
// cleanly to a concurrent timeout claim. Wakes still fire after Close so
// a resumed session observes its dead transport and tears down.
func (p *Parker) wake(e *entry) {
	if !e.claimed.CompareAndSwap(false, true) {
		return
	}
	e.timer.Stop()
	p.parked.Add(-1)
	e.onReady()
}

// expire is e's deadline: it claims e, forgets its epoll registration and
// runs onTimeout. After Close no timeout fires.
func (p *Parker) expire(e *entry) {
	if p.stopped.Load() || !e.claimed.CompareAndSwap(false, true) {
		return
	}
	p.parked.Add(-1)
	if p.poller != nil && e.fd.Load() >= 0 {
		p.poller.drop(e)
	}
	e.onTimeout()
}

// Close stops the parker: no further park is accepted, no deadline
// fires, and the poller shuts down. Entries still parked never time out
// — callers shutting down are expected to tear their connections down
// directly.
func (p *Parker) Close() {
	if p.stopped.Swap(true) {
		return
	}
	if p.poller != nil {
		p.poller.close()
	}
}

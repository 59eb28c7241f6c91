//go:build linux

package netpark

import (
	"errors"
	"os"
	"sync"
	"syscall"
	"time"
)

// poller is the epoll readiness source for real sockets: one epoll fd,
// level-triggered EPOLLONESHOT registrations (one wake per park — the
// session re-parks explicitly), and a single wait goroutine dispatching
// wakes onto the parker's worker pool.
//
// The wait goroutine never blocks in epoll_wait: a blocking syscall holds
// its P until sysmon retakes it (20 µs–10 ms), so on a box with few Ps
// the parker's wait could starve runnable goroutines. The epoll fd is
// itself pollable, so it is non-blocking, owned by an *os.File, and the
// loop waits for it in the runtime netpoller ([IO wait]), calling
// epoll_wait only with a zero timeout once the fd is readable.
//
// Lifetime: the file owns the epoll fd. close() marks the poller closed
// under mu, so no add/drop issues an EpollCtl afterwards, then closes the
// file: that wakes the loop's wait, and the runtime defers the real
// close(2) until an in-flight epoll_wait returns, so the loop can never
// wait on a reused fd number (typically the next Parker's epoll
// instance) and steal its oneshot events.
type poller struct {
	epfd int
	ep   *os.File // owns epfd

	mu     sync.Mutex
	byFd   map[int32]*entry
	closed bool
}

var errPollerClosed = errors.New("netpark: poller closed")

func newPoller(p *Parker) (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	if err := syscall.SetNonblock(epfd, true); err != nil {
		_ = syscall.Close(epfd)
		return nil, err
	}
	ep := os.NewFile(uintptr(epfd), "netpark-epoll")
	// A deadline is refused unless the runtime netpoller took the fd.
	if err := ep.SetReadDeadline(time.Time{}); err != nil {
		_ = ep.Close()
		return nil, err
	}
	rc, err := ep.SyscallConn()
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	pl := &poller{epfd: epfd, ep: ep, byFd: map[int32]*entry{}}
	go pl.loop(p, rc)
	return pl, nil
}

// add registers e's connection for one readability wake. The byFd slot
// and the epoll_ctl happen under one lock so a wake racing the
// registration always finds its entry, and so no registration can land
// on an epfd close() has already released.
func (pl *poller) add(e *entry, sc syscall.Conn) error {
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	ctlErr := errors.New("netpark: control not run")
	err = rc.Control(func(f uintptr) {
		fd := int32(f)
		e.fd.Store(fd)
		ev := syscall.EpollEvent{
			Events: uint32(syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLONESHOT),
			Fd:     fd,
		}
		pl.mu.Lock()
		defer pl.mu.Unlock()
		if pl.closed {
			ctlErr = errPollerClosed
			return
		}
		pl.byFd[fd] = e
		ctlErr = syscall.EpollCtl(pl.epfd, syscall.EPOLL_CTL_ADD, int(f), &ev)
		if ctlErr == syscall.EEXIST {
			// The fd was parked before (oneshot leaves the registration
			// disarmed); re-arm it.
			ctlErr = syscall.EpollCtl(pl.epfd, syscall.EPOLL_CTL_MOD, int(f), &ev)
		}
		if ctlErr != nil {
			if pl.byFd[fd] == e {
				delete(pl.byFd, fd)
			}
		}
	})
	if err != nil {
		return err
	}
	return ctlErr
}

// drop forgets a timed-out entry's registration. The byFd identity check
// guards against fd reuse: if the connection closed while parked (the
// kernel then purged its registration) and the fd number was re-parked by
// a newer connection, the slot belongs to that entry and stays.
func (pl *poller) drop(e *entry) {
	fd := e.fd.Load()
	pl.mu.Lock()
	if pl.byFd[fd] == e {
		delete(pl.byFd, fd)
		if !pl.closed {
			var ev syscall.EpollEvent
			_ = syscall.EpollCtl(pl.epfd, syscall.EPOLL_CTL_DEL, int(fd), &ev)
		}
	}
	pl.mu.Unlock()
}

// loop harvests ready registrations until the file is closed. Each round
// polls first and parks in the netpoller only when nothing is ready, so
// events left over from a full batch are taken without a wait.
func (pl *poller) loop(p *Parker, rc syscall.RawConn) {
	events := make([]syscall.EpollEvent, 128)
	var n int
	var werr error
	poll := func(fd uintptr) bool {
		n, werr = syscall.EpollWait(int(fd), events, 0)
		return n > 0 || werr != nil
	}
	for {
		if err := rc.Read(poll); err != nil {
			pl.close() // closed, or the netpoller failed: stop either way
			return
		}
		if werr == syscall.EINTR {
			continue
		}
		if werr != nil {
			pl.close()
			return
		}
		for i := 0; i < n; i++ {
			fd := events[i].Fd
			pl.mu.Lock()
			e := pl.byFd[fd]
			delete(pl.byFd, fd)
			pl.mu.Unlock()
			if e != nil {
				p.wake(e)
			}
		}
	}
}

// close marks the poller closed so no new registration lands, then
// closes the epoll file, which wakes the loop out of its wait.
func (pl *poller) close() {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return
	}
	pl.closed = true
	pl.mu.Unlock()
	_ = pl.ep.Close()
}

// Package memconn is an in-memory net.Conn/net.Listener with TCP-like
// semantics: buffered, byte-oriented, full-duplex, deadline-aware, and
// backpressured (a writer blocks — honouring its write deadline — when
// the peer stops draining, exactly the stall a kernel socket buffer
// gives a slow TCP receiver).
//
// It exists for one reason: the 10k/25k/50k load tiers. A real socket
// pair costs two file descriptors, and the measurement box caps the
// process at 20k fds — so scale rows beyond ~9k sessions are impossible
// over loopback TCP no matter how cheap the server's sessions are.
// memconn carries the same bytes through the same codec stack with zero
// fds, so the scaling curve measures the serving stack, not the fd table.
//
// Conns also implement ArmReadWaker, the readiness hook netpark uses to
// park idle sessions without a blocked reader goroutine (real TCP conns
// get the same via epoll).
package memconn

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// bufMax bounds one direction's in-flight bytes (the "socket buffer").
// Big enough that a job push to thousands of parked sessions never
// stalls on an attentive peer, small enough that a stalled peer exerts
// real backpressure.
const bufMax = 256 << 10

// addr is the trivial net.Addr both ends report.
type addr struct{}

func (addr) Network() string { return "mem" }
func (addr) String() string  { return "memconn" }

// pipe is one direction of a connection: one writer (the peer conn) and
// one reader (the owning conn), a bounded buffer between them.
type pipe struct {
	mu     sync.Mutex
	rcond  sync.Cond
	wcond  sync.Cond
	buf    []byte
	head   int
	closed bool

	// Deadline timers are lazy: armed only when a read/write actually
	// blocks past its deadline's horizon, not on every Set*Deadline
	// call. The serve path sets a fresh deadline before every read and
	// write but almost never blocks (parked sessions wake with data
	// already buffered; push writes land in buffer space), so eager
	// timers would put one AfterFunc allocation on every push to every
	// session — the dominant cost of a 50k fan-out.
	rdl, wdl           time.Time
	rtimer, wtimer     *time.Timer
	rtimerDl, wtimerDl time.Time

	// waker is a one-shot readability callback (see Conn.ArmReadWaker).
	waker func()
}

func newPipe() *pipe {
	p := &pipe{}
	p.rcond.L = &p.mu
	p.wcond.L = &p.mu
	return p
}

// takeWakerLocked detaches the armed waker, if any, for firing after the
// lock is released — wakers may re-enter other locks (the parker's), so
// they never run under p.mu.
func (p *pipe) takeWakerLocked() func() {
	w := p.waker
	p.waker = nil
	return w
}

func (p *pipe) read(b []byte) (int, error) {
	//lint:ignore lockscope every loop exit unlocks; the analyzer cannot follow the cond-wait loop
	p.mu.Lock()
	for {
		if p.head < len(p.buf) {
			n := copy(b, p.buf[p.head:])
			p.head += n
			if p.head == len(p.buf) {
				p.buf = p.buf[:0]
				p.head = 0
			} else if p.head >= bufMax {
				p.buf = p.buf[:copy(p.buf, p.buf[p.head:])]
				p.head = 0
			}
			p.wcond.Broadcast()
			p.mu.Unlock()
			return n, nil
		}
		if p.closed {
			p.mu.Unlock()
			return 0, io.EOF
		}
		if !p.rdl.IsZero() {
			if !time.Now().Before(p.rdl) {
				p.mu.Unlock()
				return 0, os.ErrDeadlineExceeded
			}
			p.armReadTimerLocked()
		}
		p.rcond.Wait()
	}
}

// armReadTimerLocked ensures a wakeup fires at the current read deadline
// — called only from a read that is about to block (see the field docs).
func (p *pipe) armReadTimerLocked() {
	if p.rtimer != nil && p.rtimerDl.Equal(p.rdl) {
		return
	}
	if p.rtimer != nil {
		p.rtimer.Stop()
	}
	p.rtimerDl = p.rdl
	p.rtimer = time.AfterFunc(time.Until(p.rdl), func() {
		p.mu.Lock()
		p.rcond.Broadcast()
		p.mu.Unlock()
	})
}

// armWriteTimerLocked is armReadTimerLocked's write-side twin.
func (p *pipe) armWriteTimerLocked() {
	if p.wtimer != nil && p.wtimerDl.Equal(p.wdl) {
		return
	}
	if p.wtimer != nil {
		p.wtimer.Stop()
	}
	p.wtimerDl = p.wdl
	p.wtimer = time.AfterFunc(time.Until(p.wdl), func() {
		p.mu.Lock()
		p.wcond.Broadcast()
		p.mu.Unlock()
	})
}

func (p *pipe) write(b []byte) (int, error) {
	total := 0
	//lint:ignore lockscope every loop exit unlocks; the unlock-fire-relock waker dance is deliberate
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return total, io.ErrClosedPipe
		}
		if space := bufMax - (len(p.buf) - p.head); space > 0 {
			n := len(b)
			if n > space {
				n = space
			}
			if len(p.buf)+n > cap(p.buf) {
				// Grow geometrically with a 4KB floor, compacting past the
				// read head while we copy anyway. Plain append doubling from
				// zero reallocates on nearly every ~500-byte job push to a
				// parked peer — at fan-out scale that is one allocation (and
				// one GC-visible object) per push, the single largest cost
				// on the push path.
				live := len(p.buf) - p.head
				target := min(2*(live+n), bufMax)
				if target < 4096 {
					target = 4096
				}
				nb := make([]byte, live, target)
				copy(nb, p.buf[p.head:])
				p.buf, p.head = nb, 0
			}
			p.buf = append(p.buf, b[:n]...)
			b = b[n:]
			total += n
			p.rcond.Broadcast()
			wake := p.takeWakerLocked()
			if len(b) == 0 {
				p.mu.Unlock()
				if wake != nil {
					wake()
				}
				return total, nil
			}
			if wake != nil {
				// Fire outside the lock, then continue the partial write.
				p.mu.Unlock()
				wake()
				p.mu.Lock()
				continue
			}
		}
		if !p.wdl.IsZero() {
			if !time.Now().Before(p.wdl) {
				p.mu.Unlock()
				return total, os.ErrDeadlineExceeded
			}
			p.armWriteTimerLocked()
		}
		p.wcond.Wait()
	}
}

// close marks the pipe dead: the reader drains what is buffered then gets
// EOF, the writer fails immediately. Idempotent.
func (p *pipe) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.rcond.Broadcast()
	p.wcond.Broadcast()
	wake := p.takeWakerLocked()
	p.mu.Unlock()
	if wake != nil {
		wake()
	}
}

// setReadDeadline stores the deadline and wakes any blocked reader so it
// re-evaluates (a blocked reader re-arms its own timer; see the lazy
// timer fields). A stale armed timer fires a spurious broadcast at the
// old deadline, which the wait loops tolerate by design.
func (p *pipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	p.rdl = t
	p.rcond.Broadcast()
	p.mu.Unlock()
}

func (p *pipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	p.wdl = t
	p.wcond.Broadcast()
	p.mu.Unlock()
}

// Conn is one end of an in-memory connection.
type Conn struct {
	rd *pipe // peer → us
	wr *pipe // us → peer
}

// Pipe returns a connected in-memory conn pair, like net.Pipe but
// buffered and deadline-complete.
func Pipe() (*Conn, *Conn) {
	a, b := newPipe(), newPipe()
	return &Conn{rd: a, wr: b}, &Conn{rd: b, wr: a}
}

func (c *Conn) Read(b []byte) (int, error)  { return c.rd.read(b) }
func (c *Conn) Write(b []byte) (int, error) { return c.wr.write(b) }

// Close tears both directions down: local and peer reads drain then EOF,
// writes on either side fail.
func (c *Conn) Close() error {
	c.wr.close()
	c.rd.close()
	return nil
}

func (c *Conn) LocalAddr() net.Addr  { return addr{} }
func (c *Conn) RemoteAddr() net.Addr { return addr{} }

func (c *Conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}

// ArmReadWaker registers a one-shot callback that fires when the conn
// becomes readable (data arrives or the peer closes). If it is readable
// already, f fires before ArmReadWaker returns. The callback runs outside
// all memconn locks but must itself be non-blocking — it is called from
// the writer's goroutine. This is netpark's fd-less readiness source.
func (c *Conn) ArmReadWaker(f func()) {
	p := c.rd
	p.mu.Lock()
	if p.head < len(p.buf) || p.closed {
		p.mu.Unlock()
		f()
		return
	}
	p.waker = f
	p.mu.Unlock()
}

// Listener hands dialed conns to an accept loop, like a net.Listener
// with no port.
type Listener struct {
	queue  chan net.Conn
	stop   chan struct{}
	closed sync.Once
}

// Listen creates an in-memory listener.
func Listen() *Listener {
	return &Listener{
		queue: make(chan net.Conn, 1024),
		stop:  make(chan struct{}),
	}
}

// Dial connects a new session to the listener, returning the client end.
func (l *Listener) Dial() (net.Conn, error) {
	select {
	case <-l.stop:
		// Checked first: the select below picks randomly when the queue
		// has room AND the listener is closed.
		return nil, net.ErrClosed
	default:
	}
	client, server := Pipe()
	select {
	case l.queue <- server:
		return client, nil
	case <-l.stop:
		client.Close()
		return nil, net.ErrClosed
	}
}

// Accept returns the server end of the next dialed connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.queue:
		return c, nil
	case <-l.stop:
		return nil, net.ErrClosed
	}
}

// Close stops the listener; blocked Accept and Dial calls return
// net.ErrClosed.
func (l *Listener) Close() error {
	l.closed.Do(func() { close(l.stop) })
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return addr{} }

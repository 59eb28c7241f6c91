package coinhive

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netpark"
	"repro/internal/stratum"
)

// StratumServer is the raw-TCP front of the pool: the newline-delimited
// JSON-RPC 2.0 stratum dialect native Monero miners speak, bridged onto
// the same session engine as the ws dialect. Where the ws dialect is
// strictly client-clocked (the pool only ever answers), this one is
// server-clocked: the server subscribes to chain tip events and pushes a
// fresh job notification to every authenticated session the moment the
// tip moves, instead of waiting for each miner's next submit.
//
// Dialect, one JSON object per line (max stratum.MaxRPCLine bytes):
//
//	→ {"id":1,"jsonrpc":"2.0","method":"login","params":{"login":SITEKEY,"pass":USER,"agent":...}}
//	← {"id":1,"jsonrpc":"2.0","result":{"id":TOKEN,"job":{...},"status":"OK","hashes":N}}
//	→ {"id":2,"method":"submit","params":{"id":TOKEN,"job_id":...,"nonce":HEX8,"result":HEX64}}
//	← {"id":2,"result":{"status":"OK","hashes":N}}            accepted
//	← {"id":2,"error":{"code":-3,"message":"stale job"}}      tip outran the job; fresh job follows
//	→ {"id":3,"method":"keepalived","params":{"id":TOKEN}}
//	← {"id":3,"result":{"status":"KEEPALIVED"}}
//	← {"jsonrpc":"2.0","method":"job","params":{...}}          server push (no id)
//	← {"jsonrpc":"2.0","method":"link_resolved","params":{...}}
//	← {"jsonrpc":"2.0","method":"captcha_verified","params":{...}}
//
// login.pass carries the ws dialect's user field, so "link:ID" and
// "captcha:ID" sessions work identically over TCP. Oversize lines and
// unparseable JSON get one error response and the connection is dropped;
// a connection silent for longer than KeepaliveWindow is dropped without
// ceremony — that is what keepalived is for.
//
// Scaling shape: a server-clocked session is silent almost all of its
// life, so idle connections are *parked* (netpark) — no reader goroutine,
// no bufio buffer — and resumed when bytes arrive or the keepalive window
// lapses. Job pushes never touch the parked read side: the fan-out
// enqueues the tier's pre-encoded wire line (JobWire, minted once per
// tip × tier) on a per-connection outbound queue, drained in batches by
// an on-demand writer goroutine. Goroutines therefore scale with
// *active* sessions plus in-flight pushes, not with live sessions.
type StratumServer struct {
	eng *Engine

	// KeepaliveWindow bounds peer silence: each read (or park) waits at
	// most this long before the connection is declared dead. Zero means
	// the default of 90 seconds. Compliant clients ping every
	// session.KeepaliveInterval (30s) while busy, so production windows
	// must stay comfortably above that; sub-interval windows are for
	// tests. Set it before calling Serve; connection goroutines read it
	// unsynchronised.
	KeepaliveWindow time.Duration

	conns  connSet[*stratumConn]
	parker *netpark.Parker

	// readers recycles bufio read buffers across park/resume cycles: a
	// parked session holds no buffer, so the pool's size tracks active
	// sessions, not live ones.
	readers sync.Pool

	mu sync.Mutex // guards ln and unsubscribe
	ln net.Listener

	unsubscribe func()
	// pushWake coalesces tip events for the notifier goroutine: the
	// chain's Subscribe callback must not block (it runs on whichever
	// goroutine appended the block — possibly a miner's submit path
	// holding the pool's settle lock), and job pushes always carry the
	// *current* job, so back-to-back tips collapse into one fan-out.
	// pendingTipNs holds the earliest tip event the next fan-out will
	// serve (unix nanos, 0 = none), so push latency is measured from the
	// moment miners' work went stale, not from when the notifier got
	// around to it.
	pushWake     chan struct{}
	stop         chan struct{}
	pendingTipNs atomic.Int64

	// drainq feeds connections whose push queue just went non-empty to a
	// small fixed pool of drain workers. A goroutine per draining conn
	// would mean one spawn per session per tip event — at 50k sessions
	// that is 50k goroutine creations per fan-out, and the spawn cost
	// alone dominates delivery latency. The pool amortises it to one
	// channel hop; enqueuePush falls back to spawning only if the queue
	// is full (it is sized past the largest supported swarm).
	drainq chan *stratumConn

	pushes     *metrics.Counter   // job notifications delivered on tip events
	pushNs     *metrics.Histogram // tip-to-socket delivery latency per notification
	pushBytes  *metrics.Counter   // wire bytes written by the push path
	queueDepth *metrics.Gauge     // outstanding queued pushes (Peak = worst backlog)
}

// Number of pushes one connection may have outstanding before it is
// declared stalled and torn down. At one push per tip event, a healthy
// peer's queue never exceeds a handful; 64 means the peer stopped
// reading for dozens of chain ticks.
const pushQueueCap = 64

// parkGrace bounds the read wait after a park wake: the wake promised
// bytes, so if none show up quickly the session re-parks instead of
// holding a goroutine for the rest of the keepalive window.
const parkGrace = 2 * time.Second

// drainWorkers is the fixed drain pool size. Writes are buffered-socket
// fast in the common case, so a handful of workers sustains full-swarm
// fan-out; a stalled peer can pin a worker for at most one write
// deadline (writeBatch's 2s) before it is torn down.
const drainWorkers = 8

// drainQueueCap sizes drainq past the largest supported swarm: one tip
// fan-out enqueues each live conn at most once (the draining flag
// dedupes), so 64k slots cover the 50k tier without ever falling back
// to per-conn goroutine spawns.
const drainQueueCap = 1 << 16

// NewStratumServer builds the TCP front over an engine (share one engine
// with the ws Server so session accounting spans both transports) and
// subscribes to the pool chain's tip events for job push fan-out.
func NewStratumServer(e *Engine) *StratumServer {
	reg := e.Pool().Metrics()
	s := &StratumServer{
		eng:        e,
		parker:     netpark.New(0),
		pushWake:   make(chan struct{}, 1),
		stop:       make(chan struct{}),
		drainq:     make(chan *stratumConn, drainQueueCap),
		pushes:     reg.Counter("stratum.jobs_pushed"),
		pushNs:     reg.Histogram("stratum.push_ns"),
		pushBytes:  reg.Counter("server.push_bytes"),
		queueDepth: reg.Gauge("server.push_queue_depth"),
	}
	go s.pushLoop()
	for i := 0; i < drainWorkers; i++ {
		go s.drainLoop()
	}
	s.unsubscribe = e.Pool().Chain().Subscribe(func(tip [32]byte, height uint64) {
		// Keep the EARLIEST unserved tip's timestamp: a coalesced fan-out
		// serves every tip since the last one, and its latency is how
		// long the oldest of them has been waiting.
		s.pendingTipNs.CompareAndSwap(0, time.Now().UnixNano())
		select {
		case s.pushWake <- struct{}{}:
		default: // a fan-out is already pending; it will carry this tip's job
		}
	})
	return s
}

// pushLoop serialises fan-outs on one goroutine. Fan-out only *enqueues*
// (socket writes happen on per-connection drainers), so one stalled peer
// never delays other miners' pushes, let alone the share verification or
// settle path that appended the block.
func (s *StratumServer) pushLoop() {
	for {
		select {
		case <-s.pushWake:
			s.fanOut()
		case <-s.stop:
			return
		}
	}
}

// drainLoop is one drain pool worker: it runs queued conns' drainers to
// completion. Conns re-enter drainq only on a fresh empty→non-empty
// queue edge, so each sits in the pool at most once at a time.
func (s *StratumServer) drainLoop() {
	for {
		select {
		case c := <-s.drainq:
			c.drainPushes()
		case <-s.stop:
			return
		}
	}
}

// Serve accepts miner connections on ln until the listener is closed.
// Transient accept failures (EMFILE under a connection storm, and the
// like) are retried with backoff rather than killing the front — only a
// closed listener or shutdown ends the loop.
func (s *StratumServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.conns.Draining() {
		// Shutdown already ran (it can race a `go Serve(ln)`): it either
		// missed the listener registered above or closed it already;
		// closing here covers the former, and keeps the port from staying
		// bound to a front that would accept-and-drop forever.
		_ = ln.Close()
		return net.ErrClosed
	}
	var (
		seq   int // endpoint rotation; the accept loop is its only writer
		delay time.Duration
	)
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.conns.Draining() || errors.Is(err, net.ErrClosed) {
				return err
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > time.Second {
				delay = time.Second
			}
			time.Sleep(delay)
			continue
		}
		delay = 0
		seq++
		go s.serveConn(nc, seq%s.eng.Pool().NumEndpoints())
	}
}

// Addr returns the listen address once Serve has been called.
func (s *StratumServer) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting sessions, unsubscribes from tip events and
// tears every live connection down. TCP stratum has no close handshake —
// the dialect's liveness story is the keepalive window — so draining is
// simply tearing the transports down; the parker is closed last so
// parked entries cannot fire mid-teardown.
func (s *StratumServer) Shutdown() {
	open, first := s.conns.Drain()
	if !first {
		return
	}
	s.mu.Lock()
	ln := s.ln
	unsub := s.unsubscribe
	s.unsubscribe = nil
	s.mu.Unlock()
	if unsub != nil {
		unsub()
	}
	close(s.stop)
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range open {
		c.teardown()
	}
	s.parker.Close()
}

// Drained reports whether every session has been torn down, waiting up
// to timeout.
func (s *StratumServer) Drained(timeout time.Duration) bool {
	return s.conns.Drained(timeout)
}

// Parked reports how many sessions currently hold no goroutine.
func (s *StratumServer) Parked() int64 { return s.parker.Parked() }

// PushStats exposes the fan-out instruments: how many job notifications
// tip events have pushed and the per-session delivery latency histogram.
func (s *StratumServer) PushStats() (pushes uint64, latency metrics.HistSnapshot) {
	return s.pushes.Load(), s.pushNs.Snapshot()
}

// PushCursor marks the current fan-out state; pair with PushStatsSince
// for per-phase numbers (one load scenario out of a longer run).
func (s *StratumServer) PushCursor() metrics.HistCursor { return s.pushNs.Cursor() }

// PushStatsSince reports the fan-out activity recorded after the cursor.
func (s *StratumServer) PushStatsSince(c metrics.HistCursor) (pushes uint64, latency metrics.HistSnapshot) {
	lat := s.pushNs.SnapshotSince(c)
	return lat.Count, lat
}

// fanOut queues the current job for every authenticated session — the
// server-clocked half of the dialect. The wire bytes are minted at most
// once per (tip × vardiff tier) by the JobWire cache; every session on
// the same tier shares the same line. Latency is observed per session at
// the moment its bytes hit the socket, measured since the (earliest
// coalesced) tip event, so the histogram's p99 is the fan-out tail: how
// long the last miners wait for fresh work after a block lands.
func (s *StratumServer) fanOut() {
	t0 := time.Now().UnixNano()
	if ns := s.pendingTipNs.Swap(0); ns != 0 {
		t0 = ns
	}
	// One wire lookup per (endpoint, slot, tier) instead of per session:
	// mintWire takes the template shard's lock, and a 50k-session swarm
	// spans only a few dozen distinct wires. If the tip moves mid-loop the
	// cache serves the old tip's wire to the remaining sessions — exactly
	// what an uncached loop part-way through its snapshot does — and the
	// pending pushWake fans the new tip out to everyone right after.
	type wireKey struct {
		endpoint, slot int
		diff           uint64
		low            bool
	}
	wires := make(map[wireKey]*JobWire, 64)
	var sent uint64
	for _, c := range s.conns.Snapshot() {
		if !c.pushable.Load() || c.dead.Load() {
			continue
		}
		ms := c.ms
		k := wireKey{ms.endpoint, ms.slot, ms.curDiff.Load(), ms.lowDiff}
		w := wires[k]
		if w == nil {
			w = ms.mintWire()
			wires[k] = w
		}
		sent++
		c.enqueuePush(w.TCPLine, t0)
	}
	s.eng.jobsSent.Add(sent)
}

func (s *StratumServer) keepaliveWindow() time.Duration {
	if s.KeepaliveWindow > 0 {
		return s.KeepaliveWindow
	}
	return 90 * time.Second
}

// borrowReader hands out a pooled MaxRPCLine-sized bufio reader bound to
// nc. Paired with putReader around every park, so buffers follow the
// active sessions instead of pinning one per live connection.
func (s *StratumServer) borrowReader(nc net.Conn) *bufio.Reader {
	if v := s.readers.Get(); v != nil {
		br := v.(*bufio.Reader)
		br.Reset(nc)
		return br
	}
	return bufio.NewReaderSize(nc, stratum.MaxRPCLine)
}

func (s *StratumServer) putReader(br *bufio.Reader) {
	br.Reset(nil) // drop the conn reference while pooled
	s.readers.Put(br)
}

// serveConn runs one miner connection: bind a session, track for drain,
// then drive it until it parks or dies.
func (s *StratumServer) serveConn(nc net.Conn, endpoint int) {
	c := &stratumConn{srv: s, nc: nc}
	c.ms = s.eng.BindSession(endpoint, c)
	if !s.conns.Track(c) {
		c.teardown()
		return
	}
	c.runSteps(false)
}

// stratumConn is the JSON-RPC dialect codec plus per-connection push
// queue for one miner. Three kinds of goroutine touch it: the session
// goroutine (accept or park-resume; at most one at a time — the park
// protocol hands off ownership), the push drainer, and whoever calls
// teardown first.
type stratumConn struct {
	srv *StratumServer
	nc  net.Conn
	ms  *MinerSession

	// Session-goroutine state. br is nil while parked (returned to the
	// server pool); parkDeadline is the wake-or-reap bound the parker was
	// armed with. The parker's internal synchronisation orders the
	// pre-park writes before the resume goroutine's reads.
	br           *bufio.Reader
	parkDeadline time.Time

	wmu   sync.Mutex // serialises all socket writers (replies and push batches)
	wbuf  []byte
	iovec net.Buffers // writev scratch for push batches
	wdlNs int64       // armed write deadline (ns since epoch), guarded by wmu

	outMu    sync.Mutex
	outq     []pushItem
	outSpare []pushItem // double-buffer: last drained batch, recycled on swap
	draining bool

	pushable atomic.Bool
	dead     atomic.Bool
}

// pushItem is one queued job push: a pointer into the shared per-tier
// wire line (never mutated) plus the tip timestamp latency is measured
// from.
type pushItem struct {
	line  []byte
	tipNs int64
}

// teardown kills the connection exactly once, from whichever goroutine
// notices death first: the session goroutine (read error, fatal engine
// event), the push drainer (stalled or dead socket), the park timer
// (keepalive window lapsed), or Shutdown.
func (c *stratumConn) teardown() {
	if !c.dead.CompareAndSwap(false, true) {
		return
	}
	_ = c.nc.Close()
	c.srv.conns.Untrack(c)
	c.ms.Close()
}

// die is the session goroutine's teardown: it also returns the pooled
// read buffer this goroutine owns.
func (c *stratumConn) die() {
	c.teardown()
	if c.br != nil {
		c.srv.putReader(c.br)
		c.br = nil
	}
}

// runSteps drives the session until it parks or dies. The first entry
// runs on the accept goroutine; every re-entry runs on a fresh resume
// goroutine (see onWake), so a parked session holds no stack at all.
func (c *stratumConn) runSteps(resumed bool) {
	if c.br == nil {
		c.br = c.srv.borrowReader(c.nc)
	}
	for {
		if resumed {
			resumed = false
			// The wake promised bytes (or a dead peer). Peek without
			// consuming: a spurious wake re-parks for the remainder of the
			// keepalive window, and a mid-line stall later still kills the
			// connection because ReadCommand's own deadline bounds the full
			// line.
			if err := c.nc.SetReadDeadline(time.Now().Add(parkGrace)); err != nil {
				c.die()
				return
			}
			if _, err := c.br.Peek(1); err != nil {
				if !isTimeout(err) || !time.Now().Before(c.parkDeadline) {
					c.die()
					return
				}
				if c.park(c.parkDeadline) {
					return
				}
				// No parking available: fall through to a blocking read.
			}
		}
		cmd, err := c.ReadCommand()
		if err != nil {
			c.die()
			return
		}
		if c.srv.eng.StepDeliver(c.ms, c, cmd) {
			c.die()
			return
		}
		if c.br.Buffered() > 0 {
			continue // a pipelined request is already in hand
		}
		if c.park(time.Now().Add(c.srv.keepaliveWindow())) {
			return
		}
	}
}

// park releases the session's goroutine and pooled read buffer until the
// peer sends bytes (resume) or deadline passes (reap). False means the
// connection offers no readiness source; the caller keeps its goroutine
// and blocking reads.
func (c *stratumConn) park(deadline time.Time) bool {
	if c.br.Buffered() != 0 {
		return false // bytes already in hand; parking would strand them
	}
	c.parkDeadline = deadline
	c.srv.putReader(c.br)
	c.br = nil
	if c.srv.parker.Park(c.nc, deadline, c.onWake, c.teardown) {
		return true
	}
	c.br = c.srv.borrowReader(c.nc)
	return false
}

// onWake resumes a parked session on its own goroutine. Resumed sessions
// are exactly the active ones, so the goroutine count tracks activity —
// the whole point of parking. (Running runSteps inline on the parker
// worker would let one slow line-read starve every other resume.)
func (c *stratumConn) onWake() { go c.runSteps(true) }

// enqueuePush queues one pre-encoded push line and, on the
// empty→non-empty edge, hands the conn to the drain pool. A full queue
// means the peer stopped reading for dozens of chain ticks — it is torn
// down rather than allowed to pin job lines forever.
func (c *stratumConn) enqueuePush(line []byte, tipNs int64) {
	c.outMu.Lock()
	if len(c.outq) >= pushQueueCap {
		c.outMu.Unlock()
		c.teardown()
		return
	}
	c.outq = append(c.outq, pushItem{line: line, tipNs: tipNs})
	spawn := !c.draining
	c.draining = true
	c.outMu.Unlock()
	c.srv.queueDepth.Inc()
	if spawn {
		select {
		case c.srv.drainq <- c:
		default:
			// Pool backlogged past drainQueueCap (cannot happen at
			// supported swarm sizes); a transient goroutine keeps the
			// conn live rather than dropping the push.
			go c.drainPushes()
		}
	}
}

// drainPushes writes queued pushes in batches until the queue stays
// empty, then exits — the drainer only exists while there is work, so
// push goroutines scale with in-flight fan-outs, not live sessions.
func (c *stratumConn) drainPushes() {
	for {
		c.outMu.Lock()
		if len(c.outq) == 0 {
			c.draining = false
			c.outMu.Unlock()
			return
		}
		batch := c.outq
		c.outq = c.outSpare[:0]
		c.outSpare = batch
		c.outMu.Unlock()
		if err := c.writeBatch(batch); err != nil {
			// A failed (or timed-out, possibly partial) push leaves the
			// peer's line stream unusable — tear the transport down and
			// drop whatever is still queued.
			c.srv.queueDepth.Add(-int64(len(batch)))
			c.teardown()
			c.outMu.Lock()
			c.srv.queueDepth.Add(-int64(len(c.outq)))
			c.outq = c.outq[:0]
			c.draining = false
			c.outMu.Unlock()
			return
		}
	}
}

// Write-deadline arming is amortised: SetWriteDeadline re-programs a
// runtime timer (real sockets) or takes the pipe lock (memconn) — real
// cost on a path that otherwise writes in a microsecond. Writers re-arm
// only when the armed deadline has under writeDeadlineSlack left, so
// back-to-back writes (a hold window's 1Hz pushes, a login's reply
// burst) share one arming. Any single write is still bounded: a stalled
// peer holds a writer between slack and horizon before the deadline
// error tears it down.
const (
	writeDeadlineHorizon = 5 * time.Second
	writeDeadlineSlack   = 2 * time.Second
)

// armWriteDeadlineLocked (wmu held) ensures at least writeDeadlineSlack
// of write-deadline headroom.
//
//lint:hotpath
func (c *stratumConn) armWriteDeadlineLocked(nowNs int64) error {
	if c.wdlNs-nowNs >= int64(writeDeadlineSlack) {
		return nil
	}
	dl := nowNs + int64(writeDeadlineHorizon)
	if err := c.nc.SetWriteDeadline(time.Unix(0, dl)); err != nil {
		return err
	}
	c.wdlNs = dl
	return nil
}

// writeBatch flushes one batch of push lines with a single writev,
// serialised against reply writes. The write deadline bounds how long a
// stalled peer can hold the drainer. Instruments tick only after bytes
// actually reach the socket, so push latency includes queueing.
//
//lint:hotpath
func (c *stratumConn) writeBatch(batch []pushItem) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.iovec = c.iovec[:0]
	var total uint64
	for _, it := range batch {
		c.iovec = append(c.iovec, it.line)
		total += uint64(len(it.line))
	}
	if err := c.armWriteDeadlineLocked(time.Now().UnixNano()); err != nil {
		return err
	}
	iov := c.iovec // WriteTo consumes its receiver; keep the header to recycle the array
	//lint:ignore lockscope wmu exists to serialise writers on this socket; the write deadline above bounds the hold
	_, err := c.iovec.WriteTo(c.nc)
	c.iovec = iov[:0]
	if err != nil {
		return err
	}
	now := time.Now().UnixNano()
	for _, it := range batch {
		c.srv.pushNs.Observe(time.Duration(now - it.tipNs))
	}
	c.srv.pushes.Add(uint64(len(batch)))
	c.srv.pushBytes.Add(total)
	c.srv.queueDepth.Add(-int64(len(batch)))
	return nil
}

// ReadCommand reads one request line. Codec failures (oversize line, bad
// JSON, unknown method, undecodable params) become Commands so the engine
// rules on them; only transport death (EOF, keepalive timeout) is an
// error.
func (c *stratumConn) ReadCommand() (Command, error) {
	if err := c.nc.SetReadDeadline(time.Now().Add(c.srv.keepaliveWindow())); err != nil {
		return Command{}, err
	}
	line, err := stratum.ReadRPCLine(c.br)
	if err == stratum.ErrRPCLineTooLong {
		// One parse-error response, then the engine's fatal path drops the
		// connection — an oversize line means the framing itself is gone.
		return Command{Kind: CmdGarbage}, nil
	}
	if err != nil {
		return Command{}, err
	}
	env, err := stratum.UnmarshalRPC(line)
	if err != nil || env.Method == "" {
		return Command{Kind: CmdGarbage, Tag: env.ID}, nil
	}
	switch env.Method {
	case stratum.MethodLogin:
		var lp stratum.LoginParams
		_ = env.DecodeParams(&lp) // empty login: the engine rejects it
		return Command{
			Kind: CmdOpen,
			Auth: stratum.Auth{SiteKey: lp.Login, Type: "anonymous", User: lp.Pass},
			Tag:  env.ID,
		}, nil
	case stratum.MethodSubmit:
		var sp stratum.SubmitParams
		if err := env.DecodeParams(&sp); err != nil {
			return Command{Kind: CmdBadParams, Reply: "bad submit", Tag: env.ID}, nil
		}
		cmd := submitCommand(sp.JobID, sp.Nonce, sp.Result)
		cmd.Tag = env.ID
		return cmd, nil
	case stratum.MethodKeepalive:
		return Command{Kind: CmdKeepalive, Tag: env.ID}, nil
	default:
		return Command{Kind: CmdUnknown, Name: env.Method, Tag: env.ID}, nil
	}
}

// ServerClocked reports this dialect's clocking: fresh work arrives by
// push, so the engine omits the routine post-submit job.
func (c *stratumConn) ServerClocked() bool { return true }

// RemoteHost exposes the peer host for the engine's optional per-host
// abuse keying.
func (c *stratumConn) RemoteHost() string { return remoteHost(c.nc.RemoteAddr()) }

// Deliver correlates the engine's events back into one response for the
// request plus any notifications. The engine knows this dialect is
// server-clocked (ServerClocked), so the only job event that can follow
// a submit is a stale re-job — delivered as a notification behind the
// error response, because the client's current job just died.
//
// The steady-state replies (keepalive ack, submit OK, job notification)
// take alloc-free appender fast paths; anything unusual — an RPC id the
// appenders cannot echo verbatim, a login, an error — falls back to the
// reflective marshal path. Job notifications reuse the event's JobWire
// bytes, so Deliver never re-encodes a job the fan-out already minted.
func (c *stratumConn) Deliver(ms *MinerSession, cmd Command, evs []Event) error {
	rawID, _ := cmd.Tag.(json.RawMessage)

	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = c.wbuf[:0]
	var err error

	if cmd.Kind == CmdKeepalive && len(evs) >= 1 && evs[0].Kind == EvKeepalive {
		if stratum.RPCIDVerbatim(rawID) {
			c.wbuf = stratum.AppendKeepaliveOKLine(c.wbuf, rawID)
		} else {
			c.wbuf, err = stratum.AppendRPCResult(c.wbuf, rawID, stratum.KeepaliveResult{Status: stratum.StatusKeepalive})
			if err != nil {
				return err
			}
		}
		// An idle-downstep retarget rides the keepalive that triggered it:
		// the ack first, then the new job as a push.
		for _, ev := range evs[1:] {
			if ev.Kind == EvJob {
				c.wbuf = append(c.wbuf, ev.Wire.TCPLine...)
			}
		}
		return c.flushLocked()
	}

	// First pass: build the correlated response.
	responded := false
	switch {
	case cmd.Kind == CmdOpen && len(evs) >= 2 && evs[0].Kind == EvAuthed && evs[1].Kind == EvJob:
		c.wbuf, err = stratum.AppendRPCResult(c.wbuf, rawID, stratum.LoginResult{
			ID:     evs[0].Authed.Token,
			Job:    evs[1].Job,
			Status: stratum.StatusOK,
			Hashes: evs[0].Authed.Hashes,
		})
		responded = true
	case cmd.Kind == CmdSubmit && len(evs) > 0 && evs[0].Kind == EvAccepted:
		if stratum.RPCIDVerbatim(rawID) {
			c.wbuf = stratum.AppendSubmitOKLine(c.wbuf, rawID, evs[0].Accepted.Hashes)
		} else {
			c.wbuf, err = stratum.AppendRPCResult(c.wbuf, rawID, stratum.SubmitResult{
				Status: stratum.StatusOK,
				Hashes: evs[0].Accepted.Hashes,
			})
		}
		responded = true
	case cmd.Kind == CmdSubmit && len(evs) == 1 && evs[0].Kind == EvJob && evs[0].Stale:
		c.wbuf, err = stratum.AppendRPCError(c.wbuf, rawID, stratum.RPCStaleJob, stratum.StaleJobMessage)
		responded = true
	}
	if err != nil {
		return err
	}

	// Second pass: error events (the response, if not already built) and
	// out-of-band notifications.
	for _, ev := range evs {
		switch ev.Kind {
		case EvError:
			if responded {
				continue
			}
			c.wbuf, err = stratum.AppendRPCError(c.wbuf, rawID, c.errCode(cmd, ev), ev.Err)
			responded = true
		case EvLinkResolved:
			c.wbuf, err = stratum.AppendRPCNotify(c.wbuf, stratum.TypeLinkResolved, ev.Link)
		case EvCaptchaVerified:
			c.wbuf, err = stratum.AppendRPCNotify(c.wbuf, stratum.TypeCaptchaVerified, ev.Captcha)
		case EvJob:
			if ev.Stale || ev.Retarget {
				// The error response above told the miner its job died (stale),
				// or a retarget changed its difficulty mid-session; either way
				// the replacement is pushed without waiting for the next tip.
				c.wbuf = append(c.wbuf, ev.Wire.TCPLine...)
			}
		}
		if err != nil {
			return err
		}
	}
	// A successful login makes the session part of the push fan-out — from
	// before its reply is flushed, or a tip that moves while the reply is
	// on the wire would never reach it. Push batches take wmu like this
	// reply does, so the reply still goes out first.
	if cmd.Kind == CmdOpen && ms.Authed() {
		c.pushable.Store(true)
	}
	return c.flushLocked()
}

// errCode maps an engine error back to this dialect's RPC code space. An
// event carrying an explicit code (the defense layer's named rejections)
// wins over the command-kind derivation.
func (c *stratumConn) errCode(cmd Command, ev Event) int {
	switch {
	case ev.Code != 0:
		return ev.Code
	case cmd.Kind == CmdGarbage:
		return stratum.RPCParseError
	case cmd.Kind == CmdUnknown:
		return stratum.RPCUnknownMethod
	case cmd.Kind == CmdBadParams:
		return stratum.RPCInvalidParams
	case ev.Fatal || cmd.Kind == CmdOpen:
		return stratum.RPCUnauthorized
	default:
		return stratum.RPCRejected
	}
}

func (c *stratumConn) flushLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	if err := c.armWriteDeadlineLocked(time.Now().UnixNano()); err != nil {
		return err
	}
	_, err := c.nc.Write(c.wbuf)
	return err
}

// isTimeout reports whether a read error is a deadline expiry rather
// than connection death.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

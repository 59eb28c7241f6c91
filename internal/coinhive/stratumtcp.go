package coinhive

import (
	"bufio"
	"bytes"
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
// a connection silent for longer than keepaliveWindow is dropped without
// ceremony — that is what keepalived is for.
//
// Scaling shape: a server-clocked session is silent almost all of its
// life, so idle connections are *parked* (netpark) — no reader goroutine,
// no bufio buffer — and resumed when bytes arrive or the keepalive window
// lapses. Job pushes never touch the parked read side: the fan-out
// stores the tier's pre-encoded wire line (jobWire, minted once per
// tip × tier) in a per-connection one-line slot, written by an on-demand
// drainer. A miner only ever mines the newest job, so a push that finds
// the slot still full replaces the stale line instead of queueing
// behind it. Goroutines therefore scale with *active* sessions plus
// in-flight pushes, not with live sessions.
type StratumServer struct {
	eng *Engine

	// keepalive bounds peer silence: keepaliveWindow, except in tests,
	// which shorten it before calling Serve (connection goroutines read
	// it unsynchronised).
	keepalive time.Duration

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

	// drainq feeds connections whose push slot just filled to a
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
	queueDepth *metrics.Gauge     // connections with an unwritten push (Peak = widest backlog)
}

// keepaliveWindow bounds peer silence: each read (or park) waits at most
// this long before the connection is declared dead. Compliant clients
// ping every session.KeepaliveInterval (30s) while busy, so it stays
// comfortably above that.
const keepaliveWindow = 90 * time.Second

// parkGrace bounds the read wait after a park wake: the wake promised
// bytes, so if none show up quickly the session re-parks instead of
// holding a goroutine for the rest of the keepalive window.
const parkGrace = 2 * time.Second

// drainWorkers is the fixed drain pool size. Writes are buffered-socket
// fast in the common case, so a handful of workers sustains full-swarm
// fan-out; a stalled peer can pin a worker for at most one write
// deadline (writeDeadlineHorizon) before it is torn down.
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
	reg := e.pool.Metrics()
	s := &StratumServer{
		eng:        e,
		keepalive:  keepaliveWindow,
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
	s.unsubscribe = e.pool.Chain().Subscribe(func(tip [32]byte, height uint64) {
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
	if s.conns.isDraining() {
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
			if s.conns.isDraining() || errors.Is(err, net.ErrClosed) {
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
		go s.serveConn(nc, seq%s.eng.pool.NumEndpoints())
	}
}

// Shutdown stops accepting sessions, unsubscribes from tip events and
// tears every live connection down. TCP stratum has no close handshake —
// the dialect's liveness story is the keepalive window — so draining is
// simply tearing the transports down; the parker is closed last so
// parked entries cannot fire mid-teardown.
func (s *StratumServer) Shutdown() {
	open, first := s.conns.drain()
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
	return s.conns.drained(timeout)
}

// Parked reports how many sessions currently hold no goroutine.
func (s *StratumServer) Parked() int64 { return s.parker.Parked() }

// PushCursor marks the current fan-out state; pair with PushStatsSince
// for per-phase numbers (one load scenario out of a longer run).
func (s *StratumServer) PushCursor() metrics.HistCursor { return s.pushNs.Cursor() }

// PushStatsSince reports the fan-out activity recorded after the cursor
// (the zero cursor: since the server started): how many job
// notifications tip events pushed and their delivery latency.
func (s *StratumServer) PushStatsSince(c metrics.HistCursor) (pushes uint64, latency metrics.HistSnapshot) {
	lat := s.pushNs.SnapshotSince(c)
	return lat.Count, lat
}

// fanOut pushes the current job to every authenticated session — the
// server-clocked half of the dialect. The wire bytes are minted at most
// once per (tip × difficulty) by the jobWire cache; every session on
// the same tier shares the same line. Latency is observed per session at
// the moment its bytes hit the socket, measured since the (earliest
// coalesced) tip event, so the histogram's p99 is the fan-out tail: how
// long the last miners wait for fresh work after a block lands.
func (s *StratumServer) fanOut() {
	t0 := time.Now().UnixNano()
	if ns := s.pendingTipNs.Swap(0); ns != 0 {
		t0 = ns
	}
	// One wire lookup per (endpoint, slot, difficulty) instead of per
	// session: mintWire takes the template shard's lock, and a
	// 50k-session swarm spans only a few dozen distinct wires. If the tip
	// moves mid-loop the cache serves the old tip's wire to the remaining
	// sessions — exactly what an uncached loop part-way through its
	// snapshot does — and the pending pushWake fans the new tip out to
	// everyone right after.
	type wireKey struct {
		endpoint, slot int
		diff           uint64
	}
	wires := make(map[wireKey]*jobWire, 64)
	var sent uint64
	for _, c := range s.conns.snapshot() {
		if !c.pushable.Load() || c.dead.Load() {
			continue
		}
		ms := c.ms
		k := wireKey{ms.endpoint, ms.slot, ms.curDiff.Load()}
		w := wires[k]
		if w == nil {
			w = ms.mintWire()
			wires[k] = w
		}
		sent++
		c.enqueuePush(w.tcpLine, t0)
	}
	s.eng.jobsSent.Add(sent)
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
	c.ms = s.eng.bindSession(endpoint, c)
	if !s.conns.track(c) {
		c.teardown()
		return
	}
	c.runSteps(false)
}

// stratumConn is the JSON-RPC dialect codec plus per-connection push
// slot for one miner. Three kinds of goroutine touch it: the session
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

	wmu   sync.Mutex // serialises all socket writers (replies and pushes)
	wbuf  []byte
	wdlNs int64 // armed write deadline (ns since epoch), guarded by wmu

	// The push slot, guarded by outMu (taken after wmu when both are
	// held): the newest unwritten job line (nil = none, never mutated —
	// it is the shared per-tier wire) and the tip time of the oldest push
	// it stands for. draining is true while the conn is in the drain pool
	// or a drainer runs for it.
	outMu    sync.Mutex
	pending  []byte
	tipNs    int64
	draining bool

	pushable atomic.Bool
	dead     atomic.Bool
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
	c.srv.conns.untrack(c)
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
//
// A command is read together with the run of pipelined commands already
// whole in the read buffer behind it (readRun), and the run's submits
// are hashed together before its commands are stepped and answered one
// by one, in order (MinerSession.prehash). The run and its sums live on
// this stack, so a parked conn carries neither.
func (c *stratumConn) runSteps(resumed bool) {
	if c.br == nil {
		c.br = c.srv.borrowReader(c.nc)
	}
	var (
		runBuf [runMax]Command
		pre    prehashed
	)
	for {
		if resumed {
			resumed = false
			// The wake promised bytes (or a dead peer). Peek without
			// consuming: a spurious wake re-parks for the remainder of the
			// keepalive window, and a mid-line stall later still kills the
			// connection because readCommand's own deadline bounds the full
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
		cmd, err := c.readCommand()
		if err != nil {
			c.die()
			return
		}
		run := readRun(c.br, append(runBuf[:0], cmd))
		c.ms.prehash(run, &pre)
		for i := range run {
			if c.srv.eng.stepDeliver(c.ms, c, run[i], &pre) {
				c.die()
				return
			}
		}
		if c.br.Buffered() > 0 {
			continue // a pipelined request is already in hand
		}
		if c.park(time.Now().Add(c.srv.keepalive)) {
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
// the whole point of parking. The parker calls it on the goroutine that
// saw readiness (the epoll loop or a memconn writer), so it must not
// block: running runSteps inline there would stall every other wake
// behind one slow line-read.
func (c *stratumConn) onWake() { go c.runSteps(true) }

// enqueuePush stores one pre-encoded push line in the conn's slot and,
// when no drainer is pending, hands the conn to the drain pool. A line
// still unwritten is stale once a newer tip's job arrives, so it is
// replaced; the slot keeps the older tip time, so push latency is still
// measured from the moment the miner's work went stale.
func (c *stratumConn) enqueuePush(line []byte, tipNs int64) {
	c.outMu.Lock()
	if c.pending == nil {
		c.tipNs = tipNs
	}
	c.pending = line
	spawn := !c.draining
	c.draining = true
	c.outMu.Unlock()
	if spawn {
		c.srv.queueDepth.Inc()
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

// drainPushes writes the slot's line until the slot stays empty, then
// exits — the drainer only exists while there is work, so push
// goroutines scale with in-flight fan-outs, not live sessions. The slot
// is emptied under wmu, so a push that lands while a reply (or the
// previous push) is on the wire replaces its predecessor instead of
// following it.
func (c *stratumConn) drainPushes() {
	var err error
	c.wmu.Lock()
	for {
		c.outMu.Lock()
		line, tipNs := c.pending, c.tipNs
		c.pending = nil
		if line == nil || err != nil {
			c.draining = false
			c.outMu.Unlock()
			break
		}
		c.outMu.Unlock()
		err = c.writePushLocked(line, tipNs)
	}
	c.wmu.Unlock()
	c.srv.queueDepth.Dec()
	if err != nil {
		// A failed (or timed-out, possibly partial) push leaves the
		// peer's line stream unusable: tear the transport down.
		c.teardown()
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

// writePushLocked (wmu held) writes one push line. The write deadline
// bounds how long a stalled peer can hold the drainer. Instruments tick
// only after the bytes reach the socket, so push latency includes the
// wait in the slot.
//
//lint:hotpath
func (c *stratumConn) writePushLocked(line []byte, tipNs int64) error {
	if err := c.armWriteDeadlineLocked(time.Now().UnixNano()); err != nil {
		return err
	}
	//lint:ignore lockscope wmu exists to serialise writers on this socket; the write deadline above bounds the hold
	if _, err := c.nc.Write(line); err != nil {
		return err
	}
	c.srv.pushNs.Observe(time.Duration(time.Now().UnixNano() - tipNs))
	c.srv.pushes.Inc()
	c.srv.pushBytes.Add(uint64(len(line)))
	return nil
}

// readCommand reads one request line, waiting at most the keepalive
// window for it.
func (c *stratumConn) readCommand() (Command, error) {
	if err := c.nc.SetReadDeadline(time.Now().Add(c.srv.keepalive)); err != nil {
		return Command{}, err
	}
	return decodeCommand(stratum.ReadRPCLine(c.br))
}

// readRun appends to run, which holds the command just read, every
// command whose whole line is already in br's buffer, up to runMax in
// all, while the last one is a submit: the rule p2p's readShareBatch
// follows. It never waits for bytes: it stops at a partial line.
func readRun(br *bufio.Reader, run []Command) []Command {
	for len(run) < runMax && run[len(run)-1].Kind == CmdSubmit && lineBuffered(br) {
		cmd, err := decodeCommand(stratum.ReadRPCLine(br))
		if err != nil {
			break // a whole buffered line reads without error
		}
		run = append(run, cmd)
	}
	return run
}

// lineBuffered reports whether br's buffer already holds a whole request
// line, so reading it can neither block nor fail.
//
//lint:hotpath
func lineBuffered(br *bufio.Reader) bool {
	buf, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// decodeCommand turns one ReadRPCLine result into a Command. Codec
// failures (oversize line, bad JSON, unknown method, undecodable params)
// become Commands so the engine rules on them; only transport death
// (EOF, keepalive timeout) is an error.
func decodeCommand(line []byte, err error) (Command, error) {
	if err == stratum.ErrRPCLineTooLong {
		// One parse-error response, then the engine's fatal path drops the
		// connection — an oversize line means the framing itself is gone.
		return Command{Kind: cmdGarbage}, nil
	}
	if err != nil {
		return Command{}, err
	}
	env, err := stratum.UnmarshalRPC(line)
	if err != nil || env.Method == "" {
		return Command{Kind: cmdGarbage, tag: env.ID}, nil
	}
	switch env.Method {
	case stratum.MethodLogin:
		var lp stratum.LoginParams
		_ = env.DecodeParams(&lp) // empty login: the engine rejects it
		return Command{
			Kind: CmdOpen,
			Auth: stratum.Auth{SiteKey: lp.Login, Type: "anonymous", User: lp.Pass},
			tag:  env.ID,
		}, nil
	case stratum.MethodSubmit:
		var sp stratum.SubmitParams
		if err := env.DecodeParams(&sp); err != nil {
			return Command{Kind: cmdBadParams, reply: "bad submit", tag: env.ID}, nil
		}
		cmd := submitCommand(sp.JobID, sp.Nonce, sp.Result)
		cmd.tag = env.ID
		return cmd, nil
	case stratum.MethodKeepalive:
		return Command{Kind: cmdKeepalive, tag: env.ID}, nil
	default:
		return Command{Kind: cmdUnknown, name: env.Method, tag: env.ID}, nil
	}
}

// serverClocked reports this dialect's clocking: fresh work arrives by
// push, so the engine omits the routine post-submit job.
func (c *stratumConn) serverClocked() bool { return true }

// RemoteHost exposes the peer host for the engine's optional per-host
// abuse keying.
func (c *stratumConn) RemoteHost() string { return remoteHost(c.nc.RemoteAddr()) }

// deliver correlates the engine's events back into one response for the
// request plus any notifications. The engine knows this dialect is
// server-clocked (serverClocked), so the only job event that can follow
// a submit is a stale re-job — delivered as a notification behind the
// error response, because the client's current job just died.
//
// The steady-state replies (keepalive ack, submit OK, job notification)
// take alloc-free appender fast paths; anything unusual — an RPC id the
// appenders cannot echo verbatim, a login, an error — falls back to the
// reflective marshal path. Job notifications reuse the event's jobWire
// bytes, so deliver never re-encodes a job the fan-out already minted.
func (c *stratumConn) deliver(ms *MinerSession, cmd Command, evs []Event) error {
	rawID, _ := cmd.tag.(json.RawMessage)

	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = c.wbuf[:0]
	var err error

	if cmd.Kind == cmdKeepalive && len(evs) >= 1 && evs[0].Kind == evKeepalive {
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
				c.wbuf = append(c.wbuf, ev.wire.tcpLine...)
			}
		}
		return c.flushLocked()
	}

	// First pass: build the correlated response.
	responded := false
	switch {
	case cmd.Kind == CmdOpen && len(evs) >= 2 && evs[0].Kind == evAuthed && evs[1].Kind == EvJob:
		c.wbuf, err = stratum.AppendRPCResult(c.wbuf, rawID, stratum.LoginResult{
			ID:     evs[0].authed.Token,
			Job:    evs[1].Job,
			Status: stratum.StatusOK,
			Hashes: evs[0].authed.Hashes,
		})
		responded = true
	case cmd.Kind == CmdSubmit && len(evs) > 0 && evs[0].Kind == EvAccepted:
		if stratum.RPCIDVerbatim(rawID) {
			c.wbuf = stratum.AppendSubmitOKLine(c.wbuf, rawID, evs[0].accepted.Hashes)
		} else {
			c.wbuf, err = stratum.AppendRPCResult(c.wbuf, rawID, stratum.SubmitResult{
				Status: stratum.StatusOK,
				Hashes: evs[0].accepted.Hashes,
			})
		}
		responded = true
	case cmd.Kind == CmdSubmit && len(evs) == 1 && evs[0].Kind == EvJob && evs[0].stale:
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
		case evError:
			if responded {
				continue
			}
			c.wbuf, err = stratum.AppendRPCError(c.wbuf, rawID, c.errCode(cmd, ev), ev.err)
			responded = true
		case evLinkResolved:
			c.wbuf, err = stratum.AppendRPCNotify(c.wbuf, stratum.TypeLinkResolved, ev.link)
		case evCaptchaVerified:
			c.wbuf, err = stratum.AppendRPCNotify(c.wbuf, stratum.TypeCaptchaVerified, ev.captcha)
		case EvJob:
			if ev.stale || ev.retarget {
				// The error response above told the miner its job died (stale),
				// or a retarget changed its difficulty mid-session; either way
				// the replacement is pushed without waiting for the next tip.
				c.wbuf = append(c.wbuf, ev.wire.tcpLine...)
			}
		}
		if err != nil {
			return err
		}
	}
	// A successful login makes the session part of the push fan-out — from
	// before its reply is flushed, or a tip that moves while the reply is
	// on the wire would never reach it. Pushes take wmu like this reply
	// does, so the reply still goes out first.
	if cmd.Kind == CmdOpen && ms.authed.Load() {
		c.pushable.Store(true)
	}
	return c.flushLocked()
}

// errCode maps an engine error back to this dialect's RPC code space. An
// event carrying an explicit code (the defense layer's named rejections)
// wins over the command-kind derivation.
func (c *stratumConn) errCode(cmd Command, ev Event) int {
	switch {
	case ev.code != 0:
		return ev.code
	case cmd.Kind == cmdGarbage:
		return stratum.RPCParseError
	case cmd.Kind == cmdUnknown:
		return stratum.RPCUnknownMethod
	case cmd.Kind == cmdBadParams:
		return stratum.RPCInvalidParams
	case ev.fatal || cmd.Kind == CmdOpen:
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

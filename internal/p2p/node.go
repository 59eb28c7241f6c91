package p2p

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/handoff"
	"repro/internal/metrics"
	"repro/internal/sharechain"
)

const (
	// sendQueueDepth bounds each peer's send queue. Offers never block: a
	// full queue drops the frame (counted in p2p.send_drops) and the
	// periodic tip announce later repairs the gap via sync.
	sendQueueDepth = 256
	// syncBatch caps entries per sync response.
	syncBatch = 256
	// ingestBatch caps the share frames the reader takes from its buffer
	// into one ingest, and so into one verify: two 4-lane CryptoNight
	// walks.
	ingestBatch = 8
	// syncDeadlineBeats is how many of this node's tip beats a sync round
	// may wait for its next response before it is abandoned, so a request
	// or response lost on either side cannot end sync with a peer.
	syncDeadlineBeats = 16
	// defaultTipInterval is Config.TipInterval's zero-value default.
	defaultTipInterval = 250 * time.Millisecond
	// reconnectMin/Max bound the dial backoff for peers added with
	// AddPeer/Connect.
	reconnectMin = 50 * time.Millisecond
	reconnectMax = 2 * time.Second
)

// Config parameterises a Node.
type Config struct {
	// NodeID identifies this node in handshakes; it exists to detect
	// self-connects and duplicate links, not as a trust anchor. 0 draws
	// a random ID.
	NodeID uint64
	// Chain is the share-chain this node gossips for. Required.
	Chain *sharechain.Chain
	// Registry receives the p2p.* instruments (nil: private registry).
	Registry *metrics.Registry
	// TipInterval is the tip-announce period — the convergence repair
	// heartbeat.
	TipInterval time.Duration
	// OnIngest, if set, fires after a gossiped or synced entry is
	// admitted to the chain. Used by the pool to archive gossip-in
	// events and by the benchmark to measure propagation latency.
	OnIngest func(e *sharechain.Entry, reorged bool)
}

// peer is one live connection after a successful handshake.
type peer struct {
	conn net.Conn
	// sendq feeds the peer's writer. Frames dropped by a full queue are
	// repaired by the tip-announce/sync cycle.
	sendq *handoff.Queue[[]byte]

	// syncing guards one in-flight sync conversation per peer; syncBeat
	// is the tip beat its last request went out on.
	mu       sync.Mutex
	syncing  bool
	syncBeat uint64
}

// Node is the peer layer: it serves inbound connections, maintains
// outbound ones with reconnect backoff, broadcasts locally-minted
// share-chain entries, and keeps the local chain converged with its
// peers via dedupe, relay and ranged catch-up sync.
type Node struct {
	cfg Config

	mu        sync.Mutex
	peers     map[uint64]*peer
	listeners []net.Listener
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup
	// beats counts tipLoop ticks: the clock sync deadlines are kept in.
	beats atomic.Uint64

	peersGauge  *metrics.Gauge
	gossiped    *metrics.Counter
	ingested    *metrics.Counter
	duplicate   *metrics.Counter
	rejected    *metrics.Counter
	syncRounds  *metrics.Counter
	syncSent    *metrics.Counter
	abandoned   *metrics.Counter
	adopted     *metrics.Counter
	reconnects  *metrics.Counter
	sendDrops   *metrics.Counter
	broadcastNs *metrics.Histogram
}

// NewNode builds a node around a share-chain. Call Serve and/or
// AddPeer/Connect to give it links, Close to tear it down.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Chain == nil {
		return nil, errors.New("p2p: Config.Chain is required")
	}
	if cfg.NodeID == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("p2p: node id: %w", err)
		}
		cfg.NodeID = binary.LittleEndian.Uint64(b[:]) | 1 // never 0
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.TipInterval <= 0 {
		cfg.TipInterval = defaultTipInterval
	}
	n := &Node{
		cfg:         cfg,
		peers:       map[uint64]*peer{},
		stop:        make(chan struct{}),
		peersGauge:  cfg.Registry.Gauge("p2p.peers"),
		gossiped:    cfg.Registry.Counter("p2p.shares_gossiped"),
		ingested:    cfg.Registry.Counter("p2p.shares_ingested"),
		duplicate:   cfg.Registry.Counter("p2p.shares_duplicate"),
		rejected:    cfg.Registry.Counter("p2p.shares_rejected"),
		syncRounds:  cfg.Registry.Counter("p2p.sync_rounds"),
		syncSent:    cfg.Registry.Counter("p2p.sync_entries_sent"),
		abandoned:   cfg.Registry.Counter("p2p.sync_abandoned"),
		adopted:     cfg.Registry.Counter("p2p.checkpoints_adopted"),
		reconnects:  cfg.Registry.Counter("p2p.reconnects"),
		sendDrops:   cfg.Registry.Counter("p2p.send_drops"),
		broadcastNs: cfg.Registry.Histogram("p2p.broadcast_ns"),
	}
	n.wg.Add(1)
	go n.tipLoop()
	return n, nil
}

// PeerCount returns the number of live (handshaken) peers.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// Serve accepts inbound peer connections from ln until the listener or
// the node closes. It blocks; run it in a goroutine.
func (n *Node) Serve(ln net.Listener) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	n.listeners = append(n.listeners, ln)
	n.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = n.runConn(conn) // every way a link ends is the peer's to redial
		}()
	}
}

// AddPeer maintains a persistent outbound link: dial, handshake, serve,
// and on any failure redial with exponential backoff until the node
// closes. name is the caller's label for the link and means nothing to
// the node; dial produces the transport (net.Dial for TCP, memconn
// Listener.Dial in tests).
func (n *Node) AddPeer(name string, dial func() (net.Conn, error)) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		backoff := reconnectMin
		first := true
		for {
			select {
			case <-n.stop:
				return
			default:
			}
			if !first {
				n.reconnects.Inc()
				select {
				case <-time.After(backoff):
				case <-n.stop:
					return
				}
				backoff *= 2
				if backoff > reconnectMax {
					backoff = reconnectMax
				}
			}
			first = false
			conn, err := dial()
			if err != nil {
				continue
			}
			err = n.runConn(conn)
			switch {
			case errors.Is(err, errSelfConnect):
				return // the address is our own: drop the link for good
			case err == nil, errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
				backoff = reconnectMin // clean session: reset backoff
			}
		}
	}()
}

// Connect adds a persistent TCP peer at addr.
func (n *Node) Connect(addr string) {
	n.AddPeer(addr, func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	})
}

// Publish broadcasts a locally-accepted entry to every peer. The frame
// is encoded once and shared across peers; the offer never blocks, so
// the federation minter pays one encode plus one channel offer per
// peer. Dropped frames are repaired by the tip/sync heartbeat.
func (n *Node) Publish(e *sharechain.Entry) {
	start := time.Now()
	n.broadcast(AppendShareFrame(nil, e), nil)
	n.gossiped.Inc()
	n.broadcastNs.Observe(time.Since(start))
}

// broadcast offers one encoded frame to every live peer but except (nil:
// all of them). The peer set is snapshotted so no offer runs under n.mu.
func (n *Node) broadcast(frame []byte, except *peer) {
	n.mu.Lock()
	targets := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		if p != except {
			targets = append(targets, p)
		}
	}
	n.mu.Unlock()
	for _, p := range targets {
		p.sendq.Offer(frame)
	}
}

// Close drains and tears down the peer layer: no new connections are
// accepted, each peer's queued frames are flushed, then links drop.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	lns := n.listeners
	n.listeners = nil
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	close(n.stop)
	for _, ln := range lns {
		ln.Close()
	}
	// Drain every peer's send queue at once, then close the conns (which
	// unblocks the readers).
	for _, p := range peers {
		p := p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			p.sendq.Close()
			p.conn.Close()
		}()
	}
	done := make(chan struct{})
	go func() {
		n.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	return nil
}

// tipLoop periodically announces the local tip to every peer. This is
// the convergence repair heartbeat: any divergence — dropped broadcast,
// missed relay, fresh restart — shows up as a tip mismatch at the next
// beat and triggers a sync round.
func (n *Node) tipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.TipInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.beats.Add(1)
		tip, count := n.cfg.Chain.Tip()
		n.broadcast(appendTipFrame(nil, uint64(count), tip), nil)
	}
}

// runConn performs the handshake and runs the peer until the link dies.
// Both sides send their hello first, then read the remote one — no
// initiator/responder asymmetry, so the same code serves both inbound
// and outbound links.
func (n *Node) runConn(conn net.Conn) error {
	defer conn.Close()
	tip, count := n.cfg.Chain.Tip()
	h := hello{
		version: protocolVersion,
		nodeID:  n.cfg.NodeID,
		count:   uint64(count),
		tip:     tip,
	}
	if _, err := conn.Write(appendHelloFrame(nil, &h)); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	kind, body, err := readFrame(br)
	if err != nil {
		return err
	}
	if kind != frameHello {
		return errUnknownFrame
	}
	rh, err := decodeHello(body)
	if err != nil {
		return err
	}
	if rh.nodeID == n.cfg.NodeID {
		return errSelfConnect
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return net.ErrClosed
	}
	if _, dup := n.peers[rh.nodeID]; dup {
		n.mu.Unlock()
		return errDupPeer
	}
	p := &peer{conn: conn}
	p.sendq = handoff.New(sendQueueDepth, n.sendDrops, func(frame []byte) error { return n.writeFrame(p, frame) }, nil)
	n.peers[rh.nodeID] = p
	n.mu.Unlock()
	n.peersGauge.Inc()
	defer func() {
		n.mu.Lock()
		if n.peers[rh.nodeID] == p {
			delete(n.peers, rh.nodeID)
		}
		n.mu.Unlock()
		n.peersGauge.Dec()
		// The link is dead, so there is no one to flush to: close the conn
		// first and the writer's next frame fails, ending its drain.
		conn.Close()
		p.sendq.Close()
	}()

	// The remote hello doubles as its first tip announce.
	n.maybeSync(p, rh.count, rh.tip)
	return n.readLoop(p, br)
}

// writeFrame is a peer's send-queue handler: one frame onto the conn. A
// failed write closes the conn — which unblocks the reader and so ends
// the link — and the error ends the queue's drain. Once the node is
// closing the write deadline shortens, so a graceful drain cannot hold
// shutdown hostage to a stuck peer.
func (n *Node) writeFrame(p *peer, frame []byte) error {
	deadline := 5 * time.Second
	select {
	case <-n.stop:
		deadline = time.Second
	default:
	}
	p.conn.SetWriteDeadline(time.Now().Add(deadline))
	_, err := p.conn.Write(frame)
	if err != nil {
		p.conn.Close()
	}
	return err
}

// readLoop dispatches inbound frames until the link dies.
func (n *Node) readLoop(p *peer, br *bufio.Reader) error {
	for {
		kind, body, err := readFrame(br)
		if err != nil {
			return err
		}
		switch kind {
		case frameShare:
			batch, err := readShareBatch(br, body)
			if len(batch) > 0 {
				n.ingest(p, batch)
			}
			if err != nil {
				return err
			}
		case frameTip:
			t, err := decodeTip(body)
			if err != nil {
				return err
			}
			n.maybeSync(p, t.count, t.tip)
		case frameSyncReq:
			r, err := decodeSyncReq(body)
			if err != nil {
				return err
			}
			maxN := int(r.max)
			if maxN <= 0 || maxN > syncBatch {
				maxN = syncBatch
			}
			// A requester starting below our horizon needs the folded
			// history first: the held range alone does not reach back to it.
			if cp, ok := n.cfg.Chain.Checkpoint(); ok && r.from <= cp.Height {
				p.sendq.Offer(appendCheckpointFrame(nil, &cp))
			}
			entries := n.cfg.Chain.EntriesFrom(r.from, r.after, maxN)
			n.syncSent.Add(uint64(len(entries)))
			tip, count := n.cfg.Chain.Tip()
			p.sendq.Offer(appendSyncRespFrame(nil, uint64(count), tip, entries))
		case frameSyncResp:
			t, entries, err := decodeSyncResp(body)
			if err != nil {
				return err
			}
			n.finishSyncRound(p, t, entries)
		case frameCheckpoint:
			cp, err := decodeCheckpoint(body)
			if err != nil {
				return err
			}
			// Only a checkpoint that answers our own sync request is
			// adopted: it is taken on this peer's word.
			p.mu.Lock()
			asked := p.syncing
			p.mu.Unlock()
			if asked && n.cfg.Chain.Adopt(cp) {
				n.adopted.Inc()
			}
		case frameHello:
			// A second hello on a live link is a protocol violation.
			return errUnknownFrame
		default:
			return errUnknownFrame
		}
	}
}

// ingest offers a batch of gossiped entries to the chain, whose verifier
// checks them together, and settles each outcome with admit.
func (n *Node) ingest(from *peer, batch []*sharechain.Entry) {
	n.cfg.Chain.InsertUnverified(batch, func(e *sharechain.Entry, reorged bool, err error) {
		n.admit(from, e, reorged, err)
	})
}

// admit settles one ingested entry. An admitted entry is hooked and
// relayed to the other peers — relay is what makes non-mesh topologies
// (lines, stars) converge without every node dialing every other. Every
// refusal is counted: duplicates here, entries below the horizon by the
// chain, and the rest — bad PoW, height skew, malformed — as rejected.
func (n *Node) admit(from *peer, e *sharechain.Entry, reorged bool, err error) {
	switch {
	case err == nil:
	case errors.Is(err, sharechain.ErrDuplicate):
		n.duplicate.Inc()
		return
	case errors.Is(err, sharechain.ErrBelowHorizon):
		return
	default:
		n.rejected.Inc()
		return
	}
	n.ingested.Inc()
	if n.cfg.OnIngest != nil {
		n.cfg.OnIngest(e, reorged)
	}
	n.broadcast(AppendShareFrame(nil, e), from)
}

// maybeSync starts a catch-up round with a peer whose announced tip
// shows it holds entries we lack: a larger count, or an equal count
// with a different tip (divergent sets of the same size). One round is
// in flight per peer at a time; a round whose response has not come
// within syncDeadlineBeats is abandoned and a fresh one starts. The round
// starts at our own horizon — everything below it is folded and settled
// — or at 0 while nothing has folded; a peer whose horizon is higher
// leads with its checkpoint.
func (n *Node) maybeSync(p *peer, remoteCount uint64, remoteTip [32]byte) {
	tip, count := n.cfg.Chain.Tip()
	behind := remoteCount > uint64(count) ||
		(remoteCount == uint64(count) && remoteCount > 0 && remoteTip != tip)
	if !behind {
		return
	}
	p.mu.Lock()
	if p.syncing {
		if n.beats.Load()-p.syncBeat < syncDeadlineBeats {
			p.mu.Unlock()
			return
		}
		n.abandoned.Inc()
	}
	p.syncing = true
	p.mu.Unlock()
	n.syncRounds.Inc()
	var from uint64
	if cp, ok := n.cfg.Chain.Checkpoint(); ok {
		from = cp.Height
	}
	n.requestSync(p, from, [32]byte{})
}

// finishSyncRound ingests a sync batch and either continues the round
// (full batch ⇒ more may follow) or closes it and lets the next tip
// beat decide whether another round is needed.
//
// The batch answers a request made from the horizon the chain had then.
// A fold since may have moved the horizon past part of it: that part is
// history this node held and folded, so it is dropped, not ingested to
// be counted below the horizon as a diverged node's entries are.
func (n *Node) finishSyncRound(p *peer, t tipAnnounce, entries []sharechain.Entry) {
	cp, folded := n.cfg.Chain.Checkpoint()
	batch := make([]*sharechain.Entry, 0, ingestBatch)
	for i := range entries {
		if e := &entries[i]; !folded || !atOrBelow(e, &cp) {
			batch = append(batch, e)
		}
		if len(batch) == ingestBatch || (len(batch) > 0 && i == len(entries)-1) {
			n.ingest(p, batch)
			batch = batch[:0]
		}
	}
	more := len(entries) == syncBatch
	if !more {
		p.mu.Lock()
		p.syncing = false
		p.mu.Unlock()
		return
	}
	// Full batch ⇒ more may follow: resume strictly after the last entry,
	// so a batch that sits wholly at one height still makes progress, or
	// after the horizon if a fold has passed the last entry.
	last := &entries[len(entries)-1]
	if folded && atOrBelow(last, &cp) {
		n.requestSync(p, cp.Height, cp.ID)
		return
	}
	n.requestSync(p, last.Height, last.ID())
}

// atOrBelow reports whether e sorts at or below cp's last folded entry.
func atOrBelow(e *sharechain.Entry, cp *sharechain.Checkpoint) bool {
	if e.Height != cp.Height {
		return e.Height < cp.Height
	}
	id := e.ID()
	return bytes.Compare(id[:], cp.ID[:]) <= 0
}

// requestSync offers a sync request to the peer and restarts the
// round's deadline. A full send queue refuses it, and then the round is
// abandoned at once, so the next tip announce starts a fresh one instead
// of waiting on a request that was never sent.
func (n *Node) requestSync(p *peer, from uint64, after [32]byte) {
	p.mu.Lock()
	p.syncBeat = n.beats.Load()
	p.mu.Unlock()
	if p.sendq.Offer(appendSyncReqFrame(nil, from, after, uint32(syncBatch))) {
		return
	}
	p.mu.Lock()
	p.syncing = false
	p.mu.Unlock()
	n.abandoned.Inc()
}

// readShareBatch decodes the share frame body first and then every share
// frame already whole in br's buffer behind it, up to ingestBatch in all,
// so the batch is verified as one; it never waits for a frame. On a
// decode error it returns the entries before it with the error.
func readShareBatch(br *bufio.Reader, first []byte) ([]*sharechain.Entry, error) {
	var batch []*sharechain.Entry
	for body := first; ; {
		e, _, err := decodeEntry(body)
		if err != nil {
			return batch, err
		}
		batch = append(batch, &e)
		if len(batch) == ingestBatch || !shareBuffered(br) {
			return batch, nil
		}
		if _, body, err = readFrame(br); err != nil {
			return batch, err
		}
	}
}

// shareBuffered reports whether br's buffer already holds a whole share
// frame, so reading it can neither block nor fail. A frame of a bad
// length is left to the next readFrame to refuse.
func shareBuffered(br *bufio.Reader) bool {
	if br.Buffered() <= frameHeaderLen {
		return false
	}
	hdr, _ := br.Peek(frameHeaderLen + 1)
	ln := binary.LittleEndian.Uint32(hdr)
	return hdr[frameHeaderLen] == frameShare && ln > 0 && ln <= maxFrameLen && br.Buffered() >= frameHeaderLen+int(ln)
}

// readFrame reads one length-prefixed frame and splits off the kind
// byte. The length check rejects hostile sizes before any payload is
// buffered.
func readFrame(br *bufio.Reader) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	ln := binary.LittleEndian.Uint32(hdr[:])
	if ln == 0 {
		return 0, nil, errTruncated
	}
	if ln > maxFrameLen {
		return 0, nil, errFrameTooLarge
	}
	body := make([]byte, ln)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}
	return DecodeFrame(body)
}

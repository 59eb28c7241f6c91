package p2p

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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
	// AdvertiseAddr is the listen address sent in handshakes for the
	// peer-list exchange ("" advertises nothing).
	AdvertiseAddr string
	// TipInterval is the tip-announce period — the convergence repair
	// heartbeat.
	TipInterval time.Duration
	// OnIngest, if set, fires after a gossiped or synced entry is
	// admitted to the chain. Used by the pool to archive gossip-in
	// events and by loadgen to measure propagation latency.
	OnIngest func(e *sharechain.Entry, reorged bool)
}

// peer is one live connection after a successful handshake.
type peer struct {
	conn net.Conn
	// sendq feeds the peer's writer. Frames dropped by a full queue are
	// repaired by the tip-announce/sync cycle.
	sendq *handoff.Queue[[]byte]

	// syncing guards one in-flight sync conversation per peer.
	mu      sync.Mutex
	syncing bool
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
	addrs     map[string]bool // advertised peer addresses learned from handshakes
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup

	peersGauge  *metrics.Gauge
	gossiped    *metrics.Counter
	ingested    *metrics.Counter
	duplicate   *metrics.Counter
	rejected    *metrics.Counter
	syncRounds  *metrics.Counter
	syncSent    *metrics.Counter
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
		addrs:       map[string]bool{},
		stop:        make(chan struct{}),
		peersGauge:  cfg.Registry.Gauge("p2p.peers"),
		gossiped:    cfg.Registry.Counter("p2p.shares_gossiped"),
		ingested:    cfg.Registry.Counter("p2p.shares_ingested"),
		duplicate:   cfg.Registry.Counter("p2p.shares_duplicate"),
		rejected:    cfg.Registry.Counter("p2p.shares_rejected"),
		syncRounds:  cfg.Registry.Counter("p2p.sync_rounds"),
		syncSent:    cfg.Registry.Counter("p2p.sync_entries_sent"),
		adopted:     cfg.Registry.Counter("p2p.checkpoints_adopted"),
		reconnects:  cfg.Registry.Counter("p2p.reconnects"),
		sendDrops:   cfg.Registry.Counter("p2p.send_drops"),
		broadcastNs: cfg.Registry.Histogram("p2p.broadcast_ns"),
	}
	n.wg.Add(1)
	go n.tipLoop()
	return n, nil
}

// NodeID returns this node's handshake identity.
func (n *Node) NodeID() uint64 { return n.cfg.NodeID }

// PeerCount returns the number of live (handshaken) peers.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// KnownAddrs returns advertised peer addresses learned from handshakes —
// the peer-list exchange an operator can use to grow a mesh from one
// seed address.
func (n *Node) KnownAddrs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.addrs))
	for a := range n.addrs {
		out = append(out, a)
	}
	return out
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
			case errors.Is(err, ErrSelfConnect):
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
		tip, count := n.cfg.Chain.Tip()
		n.broadcast(AppendTipFrame(nil, uint64(count), tip), nil)
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
		Version: ProtocolVersion,
		NodeID:  n.cfg.NodeID,
		Count:   uint64(count),
		Tip:     tip,
	}
	if n.cfg.AdvertiseAddr != "" {
		h.Peers = append(h.Peers, n.cfg.AdvertiseAddr)
	}
	h.Peers = append(h.Peers, n.KnownAddrs()...)
	if _, err := conn.Write(AppendHelloFrame(nil, &h)); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	kind, body, err := readFrame(br)
	if err != nil {
		return err
	}
	if kind != frameHello {
		return ErrUnknownFrame
	}
	rh, err := decodeHello(body)
	if err != nil {
		return err
	}
	if rh.Version != ProtocolVersion {
		return ErrBadVersion
	}
	if rh.NodeID == n.cfg.NodeID {
		return ErrSelfConnect
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return net.ErrClosed
	}
	if _, dup := n.peers[rh.NodeID]; dup {
		n.mu.Unlock()
		return ErrDupPeer
	}
	p := &peer{conn: conn}
	p.sendq = handoff.New(sendQueueDepth, n.sendDrops, func(frame []byte) error { return n.writeFrame(p, frame) }, nil)
	n.peers[rh.NodeID] = p
	for _, a := range rh.Peers {
		if a != "" && a != n.cfg.AdvertiseAddr {
			n.addrs[a] = true
		}
	}
	n.mu.Unlock()
	n.peersGauge.Inc()
	defer func() {
		n.mu.Lock()
		if n.peers[rh.NodeID] == p {
			delete(n.peers, rh.NodeID)
		}
		n.mu.Unlock()
		n.peersGauge.Dec()
		// The link is dead, so there is no one to flush to: close the conn
		// first and the writer's next frame fails, ending its drain.
		conn.Close()
		p.sendq.Close()
	}()

	// The remote hello doubles as its first tip announce.
	n.maybeSync(p, rh.Count, rh.Tip)
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
			e, _, err := decodeEntry(body)
			if err != nil {
				return err
			}
			// A second share frame already whole in the buffer rides along,
			// so the pair is verified in one paired hash; the reader never
			// waits for a partner.
			if !shareBuffered(br) {
				n.ingest(p, &e)
				continue
			}
			_, body, err = readFrame(br)
			if err != nil {
				return err
			}
			partner, _, err := decodeEntry(body)
			if err != nil {
				n.ingest(p, &e)
				return err
			}
			n.ingest(p, &e, &partner)
		case frameTip:
			t, err := decodeTip(body)
			if err != nil {
				return err
			}
			n.maybeSync(p, t.Count, t.Tip)
		case frameSyncReq:
			r, err := decodeSyncReq(body)
			if err != nil {
				return err
			}
			maxN := int(r.Max)
			if maxN <= 0 || maxN > syncBatch {
				maxN = syncBatch
			}
			// A requester starting below our horizon needs the folded
			// history first: the held range alone does not reach back to it.
			if cp, ok := n.cfg.Chain.Checkpoint(); ok && r.From <= cp.Height {
				p.sendq.Offer(AppendCheckpointFrame(nil, &cp))
			}
			entries := n.cfg.Chain.EntriesFrom(r.From, maxN)
			n.syncSent.Add(uint64(len(entries)))
			tip, count := n.cfg.Chain.Tip()
			p.sendq.Offer(AppendSyncRespFrame(nil, uint64(count), tip, entries))
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
			return ErrUnknownFrame
		default:
			return ErrUnknownFrame
		}
	}
}

// ingest offers gossiped entries to the chain — one, or a pair the
// chain's verifier checks in one paired hash — and settles each outcome
// with admit.
func (n *Node) ingest(from *peer, batch ...*sharechain.Entry) {
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
// in flight per peer at a time. The round starts at our own horizon —
// everything below it is folded and settled — or at 0 while nothing has
// folded; a peer whose horizon is higher leads with its checkpoint.
func (n *Node) maybeSync(p *peer, remoteCount uint64, remoteTip [32]byte) {
	tip, count := n.cfg.Chain.Tip()
	behind := remoteCount > uint64(count) ||
		(remoteCount == uint64(count) && remoteCount > 0 && remoteTip != tip)
	if !behind {
		return
	}
	p.mu.Lock()
	if p.syncing {
		p.mu.Unlock()
		return
	}
	p.syncing = true
	p.mu.Unlock()
	n.syncRounds.Inc()
	var from uint64
	if cp, ok := n.cfg.Chain.Checkpoint(); ok {
		from = cp.Height
	}
	p.sendq.Offer(AppendSyncReqFrame(nil, from, uint32(syncBatch)))
}

// finishSyncRound ingests a sync batch and either continues the round
// (full batch ⇒ more may follow) or closes it and lets the next tip
// beat decide whether another round is needed.
func (n *Node) finishSyncRound(p *peer, t tipAnnounce, entries []sharechain.Entry) {
	i := 0
	for ; i+1 < len(entries); i += 2 {
		n.ingest(p, &entries[i], &entries[i+1])
	}
	if i < len(entries) {
		n.ingest(p, &entries[i])
	}
	more := len(entries) == syncBatch
	if !more {
		p.mu.Lock()
		p.syncing = false
		p.mu.Unlock()
		return
	}
	// Full batch ⇒ more may follow: continue from the last height seen
	// (same-height stragglers re-sent, deduped on arrival).
	p.sendq.Offer(AppendSyncReqFrame(nil, entries[len(entries)-1].Height, uint32(syncBatch)))
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
	return hdr[frameHeaderLen] == frameShare && ln > 0 && ln <= MaxFrameLen && br.Buffered() >= frameHeaderLen+int(ln)
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
		return 0, nil, ErrTruncated
	}
	if ln > MaxFrameLen {
		return 0, nil, ErrFrameTooLarge
	}
	body := make([]byte, ln)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}
	return DecodeFrame(body)
}

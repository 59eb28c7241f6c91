package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/loadgen"
	"repro/internal/memconn"
	"repro/internal/metrics"
	"repro/internal/sharechain"
	"repro/internal/stratum"
)

const (
	fedNodes = 3
	// fedWindow is how many of a connection's shares may be accepted but
	// not yet on all three nodes. 2×64 in flight saturates the federation
	// while staying far inside the 4,096-deep emit queue and the 256-deep
	// peer queues, so a drop is a fault, not a tuning artefact.
	fedWindow = 64
	// fedDeck is how many distinct nonces set-up grinds per blob. The TCP
	// listener rotates backend and template slot with every accept, so a
	// node's one client meets 16 blobs in turn; 2 nodes × 16 blobs × 1,024
	// nonces is the same 32,768 hashes share-accept's set-up grinds, and a
	// pass still outlasts the in-flight window sixteen times over.
	fedDeck = 1024
	// fedDrainDeadline bounds the wait for in-flight shares to converge
	// after the generators stop; what is still missing then has failed.
	fedDrainDeadline = 10 * time.Second
)

// fedNode is one federated pool node: a full in-process target with a
// file-backed archive and a gossip listener on memconn.
type fedNode struct {
	target *loadgen.InprocTarget
	reg    *metrics.Registry
	ln     *memconn.Listener
	dir    string
}

// inflight is one submitted share on its way to all three share-chains.
type inflight struct {
	submitNs, writtenNs, acceptNs, mintNs int64
	seen                                  int
	window                                chan struct{}
}

type shareKey struct {
	token string
	nonce uint32
}

// shareFederated is ROADMAP path 1: stratum submit over loopback TCP at
// nodes A and B, credited, archived to disk, minted into the share-chain
// and gossiped until all three nodes hold the entry. Node C only
// ingests. The loop is closed on convergence, not on the accept.
type shareFederated struct {
	nodes  []*fedNode
	miners []*miner
	rec    *recorder

	mu       sync.Mutex // guards pending, lane, gossip and the credit tallies
	pending  map[shareKey]*inflight
	lane     *lane
	gossipMs []float64         // mint → remote ingest, traced runs only
	credit   map[string]uint64 // accepted difficulty per site key, all nodes
	accepted [fedNodes]int64   // shares accepted per origin node

	closed   bool
	replayMs float64 // node 0's archive.Replay wall time, measured by check
}

func setupShareFederated(o options) (instance, error) {
	w := &shareFederated{pending: map[shareKey]*inflight{}, credit: map[string]uint64{}}
	root := filepath.Join(o.outDir, fmt.Sprintf("archive-%d", os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	for i := 0; i < fedNodes; i++ {
		n, err := w.startNode(i, filepath.Join(root, fmt.Sprintf("node%d", i)))
		if err != nil {
			w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, n)
	}
	// Mesh A→B, A→C, B→C; the symmetric handshake makes links two-way.
	for i, a := range w.nodes {
		for _, b := range w.nodes[i+1:] {
			ln := b.ln
			a.target.Fed.AddPeer("peer", func() (net.Conn, error) { return ln.Dial() })
		}
	}
	deadline := time.Now().Add(ioTimeout)
	for _, n := range w.nodes {
		for n.target.Fed.Node().PeerCount() < fedNodes-1 {
			if time.Now().After(deadline) {
				w.close()
				return nil, fmt.Errorf("federation mesh did not link up within %v", ioTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var urls []string
	for c := 0; c < shareConns; c++ {
		urls = append(urls, "tcp://"+w.nodes[c].target.TCPAddr)
	}
	miners, err := newMiners(urls, o.scaled(fedDeck, 160), o)
	if err != nil {
		w.close()
		return nil, err
	}
	w.miners = miners
	return w, nil
}

func (w *shareFederated) startNode(i int, dir string) (*fedNode, error) {
	reg := metrics.NewRegistry()
	store, err := archive.OpenFileStore(dir, archive.FileStoreOptions{})
	if err != nil {
		return nil, err
	}
	fed, err := coinhive.NewFederation(coinhive.FederationConfig{
		Variant:  blockchain.SimParams().PowVariant,
		NodeID:   uint64(i + 1),
		Registry: reg,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	fed.OnMint(w.onMint)
	fed.OnIngest(w.onIngest)
	target, err := loadgen.StartInprocOpts(loadgen.InprocOptions{
		ShareDifficulty: 1,
		Registry:        reg,
		Archive:         store,
		Federation:      fed,
	})
	if err != nil {
		fed.Close()
		store.Close()
		return nil, err
	}
	ln := memconn.Listen()
	go fed.Serve(ln)
	return &fedNode{target: target, reg: reg, ln: ln, dir: dir}, nil
}

// onMint and onIngest run on the nodes' federation goroutines and must
// not block: one map lookup under a mutex, and on the third sighting a
// non-blocking release of the submitter's window slot.
func (w *shareFederated) onMint(e *sharechain.Entry) { w.sighting(e, true) }

func (w *shareFederated) onIngest(e *sharechain.Entry, _ bool) { w.sighting(e, false) }

func (w *shareFederated) sighting(e *sharechain.Entry, mint bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rec == nil {
		return // no generator is running yet, so nothing is tracked
	}
	at := now()
	k := shareKey{e.Token, e.Nonce}
	f := w.pending[k]
	if f == nil {
		w.lane.fail("share-chain entry %s/%d was never submitted (or converged twice)", e.Token, e.Nonce)
		return
	}
	if mint {
		f.mintNs = at
	} else if f.mintNs != 0 && w.rec.trace {
		w.gossipMs = append(w.gossipMs, float64(at-f.mintNs)/1e6)
	}
	if f.seen++; f.seen < fedNodes {
		return
	}
	delete(w.pending, k)
	w.lane.op(f.submitNs, at, 1)
	// (When gossip outran the submitter's own accept read, the client
	// stamps are not set yet and the op is traced as a bare root span.)
	if l := w.lane; w.rec.trace {
		l.nextOp++
		if f.acceptNs != 0 {
			l.span("client.submit_write", "share", l.nextOp, f.submitNs, f.writtenNs)
			l.span("client.accept_wait_read", "share", l.nextOp, f.writtenNs, f.acceptNs)
			l.span("federation.converge_wait", "share", l.nextOp, min(f.acceptNs, at), at)
		}
		l.span("share", "", l.nextOp, f.submitNs, at)
	}
	select {
	case <-f.window:
	default:
	}
}

func (w *shareFederated) drive(rec *recorder) {
	w.mu.Lock()
	w.rec, w.lane = rec, rec.lane()
	w.mu.Unlock()
	var wg sync.WaitGroup
	for i, m := range w.miners {
		wg.Add(1)
		go func(i int, m *miner) {
			defer wg.Done()
			loopStart := now()
			waitNs := w.pipeline(rec, i, m)
			w.mu.Lock()
			w.lane.wallNs += now() - loopStart
			w.lane.waitNs += waitNs
			w.mu.Unlock()
		}(i, m)
	}
	wg.Wait()
	// Drain: everything accepted must still reach all three nodes.
	deadline := time.Now().Add(fedDrainDeadline)
	for {
		w.mu.Lock()
		left := len(w.pending)
		if left == 0 || time.Now().After(deadline) {
			for k := range w.pending {
				w.lane.fail("share %s/%d not on all %d nodes %v after the generators stopped", k.token, k.nonce, fedNodes, fedDrainDeadline)
			}
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// pipeline is one connection's generator: it writes submits for as long
// as the window has free slots, then reads one accept, so up to
// fedWindow shares ride the connection and the federation at once. The
// window is a counting semaphore: a slot is taken before a submit and
// released (by sighting) when the share is on all three nodes. It
// returns how long the generator was blocked on the system.
func (w *shareFederated) pipeline(rec *recorder, i int, m *miner) (waitNs int64) {
	window := make(chan struct{}, fedWindow)
	var unacked []shareKey // submitted, accept not read yet; answered in order
	for {
		// A spent deck means a relogin, which must wait until the old
		// session's accepts are all read.
		for !rec.stopped() && !(m.spent() && len(unacked) > 0) {
			select {
			case window <- struct{}{}:
				k, ok := w.submit(rec, i, m, window)
				if !ok {
					return waitNs
				}
				unacked = append(unacked, k)
				continue
			default:
			}
			break
		}
		t := now()
		switch {
		case len(unacked) > 0:
			env, err := m.sess.ReadEnvelope()
			k := unacked[0]
			unacked = unacked[:copy(unacked, unacked[1:])]
			if err != nil || env.Type != stratum.TypeHashAccepted {
				w.abandon(k, "submit at node %d answered with %q (%v)", i, env.Type, err)
				if err != nil {
					return waitNs
				}
				break
			}
			w.mu.Lock()
			// The entry may already be everywhere; the stamp is then unused.
			if f := w.pending[k]; f != nil {
				f.acceptNs = now()
			}
			w.credit[k.token]++
			w.accepted[i]++
			w.mu.Unlock()
		case rec.stopped():
			return waitNs
		default:
			// Every accept is read and the window is full: wait for a
			// convergence to free a slot (or for the run to end).
			select {
			case window <- struct{}{}:
				<-window
			case <-rec.stop:
			}
		}
		waitNs += now() - t
	}
}

// submit writes one share to node i. The op completes later, in
// sighting, when the entry is on every node.
func (w *shareFederated) submit(rec *recorder, i int, m *miner, window chan struct{}) (shareKey, bool) {
	nonce, result, err := m.share()
	if err != nil {
		w.abandon(shareKey{}, "relogin at node %d: %v", i, err)
		return shareKey{}, false
	}
	k := shareKey{m.key, nonce}
	f := &inflight{submitNs: now(), window: window}
	w.mu.Lock()
	w.pending[k] = f
	w.mu.Unlock()
	if err := m.sess.Submit(m.job.ID, nonce, result); err != nil {
		w.abandon(k, "submit at node %d: %v", i, err)
		return k, false
	}
	written := now()
	w.mu.Lock()
	f.writtenNs = written
	w.mu.Unlock()
	return k, true
}

// abandon fails a share that will never converge and, when it was
// already counted in flight, frees its window slot.
func (w *shareFederated) abandon(k shareKey, format string, args ...any) {
	w.mu.Lock()
	if f := w.pending[k]; f != nil {
		delete(w.pending, k)
		select {
		case <-f.window:
		default:
		}
	}
	w.lane.fail(format, args...)
	w.mu.Unlock()
}

func counterValue(reg *metrics.Registry, name string) float64 {
	for _, s := range reg.Snapshots() {
		if s.Name == name {
			return float64(s.Value)
		}
	}
	return 0
}

// check: the three share-chains are bit-identical (tip, all-time credit,
// window weights, payout vector), hold exactly what the clients saw
// accepted, nothing was dropped on the way, and each node's archive —
// closed, reopened and replayed from disk — equals that node's live
// books.
func (w *shareFederated) check() []string {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	const reward = 1_000_000_000_000
	ref := w.nodes[0].target.Fed.Chain()
	refTip, refLen := ref.Tip()
	refCredit := ref.CreditSnapshot()
	refWeights, refTotal := ref.WindowWeights()
	refPayout := ref.PayoutVector(reward)
	for i, n := range w.nodes[1:] {
		c := n.target.Fed.Chain()
		tip, ln := c.Tip()
		weights, total := c.WindowWeights()
		if tip != refTip || ln != refLen {
			failf("node %d tip %x/%d differs from node 0's %x/%d", i+1, tip[:4], ln, refTip[:4], refLen)
		}
		if !reflect.DeepEqual(c.CreditSnapshot(), refCredit) {
			failf("node %d credit snapshot differs from node 0's", i+1)
		}
		if total != refTotal || !reflect.DeepEqual(weights, refWeights) {
			failf("node %d window weights differ from node 0's", i+1)
		}
		if !reflect.DeepEqual(c.PayoutVector(reward), refPayout) {
			failf("node %d payout vector differs from node 0's", i+1)
		}
	}
	if !reflect.DeepEqual(refCredit, w.credit) {
		failf("share-chain credit (%d accounts) differs from what the clients saw accepted (%d accounts)", len(refCredit), len(w.credit))
	}
	for i, n := range w.nodes {
		if d := counterValue(n.reg, "pool.federation_drops"); d != 0 {
			failf("node %d dropped %v federation emits", i, d)
		}
		if d := counterValue(n.reg, "pool.archive_dropped"); d != 0 {
			failf("node %d dropped %v archive events", i, d)
		}
	}
	// Replay needs the recorders drained and the stores closed.
	w.shutdown()
	for i, n := range w.nodes {
		store, err := archive.OpenFileStore(n.dir, archive.FileStoreOptions{})
		if err != nil {
			failf("node %d: reopen archive: %v", i, err)
			continue
		}
		t0 := time.Now()
		rep, err := archive.Replay(store)
		replayMs := float64(time.Since(t0)) / 1e6
		store.Close()
		if err != nil {
			failf("node %d: replay: %v", i, err)
			continue
		}
		if i == 0 {
			w.replayMs = replayMs
		}
		st := n.target.Pool.StatsSnapshot()
		if rep.SharesAccepted != st.SharesOK || st.SharesOK != uint64(w.accepted[i]) {
			failf("node %d: archive replays %d accepted shares, live pool counted %d, clients saw %d", i, rep.SharesAccepted, st.SharesOK, w.accepted[i])
		}
		if got := float64(rep.SharesGossipedIn); got != counterValue(n.reg, "p2p.shares_ingested") {
			failf("node %d: archive replays %v gossiped-in shares, p2p ingested %v", i, got, counterValue(n.reg, "p2p.shares_ingested"))
		}
		for token, credit := range rep.Credit {
			if acct, ok := n.target.Pool.AccountSnapshot(token); !ok || acct.TotalHashes != credit {
				failf("node %d: archive replays credit %d for %s, live account has %d", i, credit, token, acct.TotalHashes)
			}
		}
	}
	return fails
}

func (w *shareFederated) layers(o options, m map[string]float64) error {
	var reorgs, rebuilds, dups, syncs, drops, appends, fsyncs, dropped float64
	for _, n := range w.nodes {
		reorgs += counterValue(n.reg, "pool.sharechain_reorgs")
		rebuilds += counterValue(n.reg, "pool.window_credit_rebuilds")
		dups += counterValue(n.reg, "p2p.shares_duplicate")
		syncs += counterValue(n.reg, "p2p.sync_rounds")
		drops += counterValue(n.reg, "pool.federation_drops")
		appends += counterValue(n.reg, "pool.archive_appends")
		fsyncs += counterValue(n.reg, "pool.archive_fsyncs")
		dropped += counterValue(n.reg, "pool.archive_dropped")
	}
	chainLen := w.nodes[0].target.Fed.Chain().Len()
	m["sharechain.reorgs"], m["sharechain.window_rebuilds"] = reorgs, rebuilds
	m["sharechain.len"] = float64(chainLen)
	m["p2p.shares_duplicate"], m["p2p.sync_rounds"] = dups, syncs
	m["federation.drops"] = drops
	m["archive.appends"], m["archive.fsyncs"], m["archive.dropped"] = appends, fsyncs, dropped
	m["archive.replay_ms"] = w.replayMs
	m["p2p.gossip_p50_ms"], m["p2p.gossip_p99_ms"] = pct(w.gossipMs, 0.5), pct(w.gossipMs, 0.99)
	f, err := newSubmitFixture(o)
	if err != nil {
		return err
	}
	defer f.ms.Close()
	if err := measureSubmitLayers(f, m, false); err != nil {
		return err
	}
	if err := measureFederationLayers(f, m, chainLen); err != nil {
		return err
	}
	return measureArchiveLayers(o, m)
}

// shutdown closes the miners and the nodes (draining recorders and
// federation queues) but keeps the archives on disk for check().
func (w *shareFederated) shutdown() {
	if w.closed {
		return
	}
	w.closed = true
	for _, m := range w.miners {
		m.close()
	}
	for _, n := range w.nodes {
		n.target.Close()
		n.ln.Close()
	}
}

func (w *shareFederated) close() {
	w.shutdown()
	if len(w.nodes) > 0 {
		_ = os.RemoveAll(filepath.Dir(w.nodes[0].dir))
	}
}

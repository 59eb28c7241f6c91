package p2p

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/memconn"
	"repro/internal/metrics"
	"repro/internal/sharechain"
)

// acceptAll is the test verifier: structure-only, no PoW. Node tests
// exercise gossip and convergence; PoW gating has its own tests in
// sharechain and in the pool's federation suite.
func acceptAll([]*sharechain.Entry, []error) {}

// testNode is one in-process federation member: chain + node + listener.
type testNode struct {
	chain *sharechain.Chain
	node  *Node
	ln    *memconn.Listener
	reg   *metrics.Registry
}

func startNode(t *testing.T, id uint64) *testNode {
	t.Helper()
	reg := metrics.NewRegistry()
	chain := sharechain.New(sharechain.Config{Window: 64, Verify: acceptAll, Metrics: reg})
	node, err := NewNode(Config{
		NodeID:      id,
		Chain:       chain,
		Registry:    reg,
		TipInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := memconn.Listen()
	go node.Serve(ln)
	t.Cleanup(func() { node.Close() })
	return &testNode{chain: chain, node: node, ln: ln, reg: reg}
}

// link makes a maintain a persistent outbound connection to b.
func link(a, b *testNode) {
	target := b.ln
	a.node.AddPeer("test-peer", func() (net.Conn, error) { return target.Dial() })
}

// mint creates, locally inserts and publishes one entry on n, as the
// pool's submit path would.
func mint(t *testing.T, n *testNode, token string, diff uint64, salt uint32) *sharechain.Entry {
	t.Helper()
	blob := make([]byte, 76)
	binary.LittleEndian.PutUint32(blob, salt)
	e := &sharechain.Entry{
		Height: n.chain.NextHeight(),
		Token:  token,
		Diff:   diff,
		Nonce:  salt,
		Blob:   blob,
	}
	e.Result[0] = byte(salt)
	e.Result[1] = byte(salt >> 8)
	if _, err := n.chain.Insert(e, true); err != nil {
		t.Fatalf("local insert: %v", err)
	}
	n.node.Publish(e)
	return e
}

// waitConverged polls until every chain reports the same tip over the
// same entry count, then cross-checks credit and payout vectors.
func waitConverged(t *testing.T, want int, nodes ...*testNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tips := map[[32]byte]bool{}
		ok := true
		for _, n := range nodes {
			tip, count := n.chain.Tip()
			if count != want {
				ok = false
				break
			}
			tips[tip] = true
		}
		if ok && len(tips) == 1 {
			break
		}
		if time.Now().After(deadline) {
			for i, n := range nodes {
				tip, count := n.chain.Tip()
				t.Logf("node %d: count=%d tip=%x", i, count, tip[:8])
			}
			t.Fatalf("nodes did not converge on %d entries", want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ref := nodes[0]
	refCredit := ref.chain.CreditSnapshot()
	refPay := ref.chain.PayoutVector(1_000_000)
	for i, n := range nodes[1:] {
		if !reflect.DeepEqual(n.chain.CreditSnapshot(), refCredit) {
			t.Fatalf("node %d credit diverged: %v vs %v", i+1, n.chain.CreditSnapshot(), refCredit)
		}
		if !reflect.DeepEqual(n.chain.PayoutVector(1_000_000), refPay) {
			t.Fatalf("node %d payout vector diverged", i+1)
		}
	}
}

func TestTwoNodeGossip(t *testing.T) {
	a := startNode(t, 1)
	b := startNode(t, 2)
	link(a, b)
	for i := 0; i < 20; i++ {
		mint(t, a, fmt.Sprintf("tok%d", i%3), uint64(1+i%4), uint32(i))
	}
	waitConverged(t, 20, a, b)
	if got := b.reg.Counter("p2p.shares_ingested").Load(); got == 0 {
		t.Fatalf("b ingested nothing")
	}
	if got := a.reg.Counter("p2p.shares_gossiped").Load(); got != 20 {
		t.Fatalf("a gossiped = %d", got)
	}
}

// TestLineTopologyRelay proves rebroadcast: in a line A—B—C, entries
// minted at A reach C only if B relays ingested shares onward.
func TestLineTopologyRelay(t *testing.T) {
	a := startNode(t, 1)
	b := startNode(t, 2)
	c := startNode(t, 3)
	link(a, b)
	link(c, b)
	for i := 0; i < 15; i++ {
		mint(t, a, "alpha", 2, uint32(i))
		mint(t, c, "gamma", 3, uint32(1000+i))
	}
	waitConverged(t, 30, a, b, c)
}

// TestDisjointSlicesConverge is the headline property at the p2p layer:
// three meshed nodes each fed a disjoint slice of one share stream end
// bit-identical.
func TestDisjointSlicesConverge(t *testing.T) {
	nodes := []*testNode{startNode(t, 1), startNode(t, 2), startNode(t, 3)}
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	link(nodes[2], nodes[0])
	const total = 60
	for i := 0; i < total; i++ {
		mint(t, nodes[i%3], fmt.Sprintf("acct%d", i%5), uint64(1+i%7), uint32(i))
	}
	waitConverged(t, total, nodes...)
}

// TestKillAndResync kills one node mid-run, keeps minting on the
// survivors, then brings a fresh node (empty chain — cold restart) back
// under the same links and requires full convergence: the ranged sync
// rebuilds history from zero.
func TestKillAndResync(t *testing.T) {
	a := startNode(t, 1)
	b := startNode(t, 2)

	// c's listener is re-pointable so a's persistent dialer can reach the
	// restarted instance.
	var mu sync.Mutex
	cLn := memconn.Listen()
	dialC := func() (net.Conn, error) {
		mu.Lock()
		ln := cLn
		mu.Unlock()
		return ln.Dial()
	}
	regC := metrics.NewRegistry()
	chainC := sharechain.New(sharechain.Config{Window: 64, Verify: acceptAll, Metrics: regC})
	nodeC, err := NewNode(Config{NodeID: 3, Chain: chainC, Registry: regC, TipInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go nodeC.Serve(cLn)

	link(a, b)
	a.node.AddPeer("c", dialC)

	c := &testNode{chain: chainC, node: nodeC, ln: cLn, reg: regC}
	for i := 0; i < 10; i++ {
		mint(t, a, "early", 2, uint32(i))
	}
	waitConverged(t, 10, a, b, c)

	// Kill c entirely: node, listener, chain state all gone.
	nodeC.Close()
	cLn.Close()

	for i := 0; i < 10; i++ {
		mint(t, b, "during-outage", 3, uint32(100+i))
	}
	waitConverged(t, 20, a, b)

	// Cold restart: fresh chain, fresh node, same identity and links.
	regC2 := metrics.NewRegistry()
	chainC2 := sharechain.New(sharechain.Config{Window: 64, Verify: acceptAll, Metrics: regC2})
	nodeC2, err := NewNode(Config{NodeID: 3, Chain: chainC2, Registry: regC2, TipInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeC2.Close()
	mu.Lock()
	cLn = memconn.Listen()
	ln2 := cLn
	mu.Unlock()
	go nodeC2.Serve(ln2)

	for i := 0; i < 5; i++ {
		mint(t, a, "late", 1, uint32(200+i))
	}
	c2 := &testNode{chain: chainC2, node: nodeC2, ln: ln2, reg: regC2}
	waitConverged(t, 25, a, b, c2)
	if got := regC2.Counter("p2p.sync_rounds").Load(); got == 0 {
		t.Fatalf("restart converged without a sync round?")
	}
	if got := a.reg.Counter("p2p.reconnects").Load(); got == 0 {
		t.Fatalf("a's dialer never counted a reconnect across c's outage")
	}
}

// runHandshake drives runConn against a scripted remote end.
func runHandshake(t *testing.T, n *Node, script func(net.Conn)) error {
	t.Helper()
	local, remote := memconn.Pipe()
	done := make(chan error, 1)
	go func() { done <- n.runConn(local) }()
	script(remote)
	select {
	case err := <-done:
		remote.Close()
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("handshake did not finish")
		return nil
	}
}

func TestHandshakeRejections(t *testing.T) {
	n := startNode(t, 77)

	// Bad protocol version.
	err := runHandshake(t, n.node, func(c net.Conn) {
		h := hello{Version: ProtocolVersion + 1, NodeID: 5}
		c.Write(AppendHelloFrame(nil, &h))
	})
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}

	// Loop-to-self: remote node ID equals our own.
	err = runHandshake(t, n.node, func(c net.Conn) {
		h := hello{Version: ProtocolVersion, NodeID: 77}
		c.Write(AppendHelloFrame(nil, &h))
	})
	if !errors.Is(err, ErrSelfConnect) {
		t.Fatalf("self connect: %v", err)
	}

	// Oversize frame in place of the hello.
	err = runHandshake(t, n.node, func(c net.Conn) {
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[:], MaxFrameLen+1)
		c.Write(hdr[:])
	})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize: %v", err)
	}

	// A share frame before any hello is a protocol violation.
	err = runHandshake(t, n.node, func(c net.Conn) {
		c.Write(AppendShareFrame(nil, testEntry(1, "a", 1, 1)))
	})
	if !errors.Is(err, ErrUnknownFrame) {
		t.Fatalf("share-before-hello: %v", err)
	}

	if got := n.node.PeerCount(); got != 0 {
		t.Fatalf("rejected handshakes left %d peers", got)
	}
}

func TestDuplicatePeerRejected(t *testing.T) {
	a := startNode(t, 1)
	b := startNode(t, 2)
	link(a, b)
	deadline := time.Now().Add(5 * time.Second)
	for a.node.PeerCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first link never came up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A second connection claiming b's node ID must be refused.
	err := runHandshake(t, a.node, func(c net.Conn) {
		h := hello{Version: ProtocolVersion, NodeID: 2}
		c.Write(AppendHelloFrame(nil, &h))
	})
	if !errors.Is(err, ErrDupPeer) {
		t.Fatalf("dup peer: %v", err)
	}
	if got := a.node.PeerCount(); got != 1 {
		t.Fatalf("peer count after dup rejection = %d", got)
	}
}

// TestPeerListExchange: the handshake advertises listen addresses, and
// the remote records them for mesh bootstrap.
func TestPeerListExchange(t *testing.T) {
	reg := metrics.NewRegistry()
	chain := sharechain.New(sharechain.Config{Window: 8, Verify: acceptAll, Metrics: reg})
	a, err := NewNode(Config{NodeID: 1, Chain: chain, Registry: reg,
		AdvertiseAddr: "10.0.0.1:7777", TipInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := startNode(t, 2)
	ln := memconn.Listen()
	go a.Serve(ln)
	target := ln
	b.node.AddPeer("a", func() (net.Conn, error) { return target.Dial() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		addrs := b.node.KnownAddrs()
		if len(addrs) == 1 && addrs[0] == "10.0.0.1:7777" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer list never arrived: %v", addrs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDuplicateGossipCounted: the same entry arriving twice (mesh with
// relay) is deduped by hash, not double-credited.
func TestDuplicateGossipCounted(t *testing.T) {
	nodes := []*testNode{startNode(t, 1), startNode(t, 2), startNode(t, 3)}
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	link(nodes[2], nodes[0])
	// Wait for the full mesh: with every link up, each broadcast reaches
	// a node both directly and via relay, which is what makes duplicate
	// deliveries certain rather than timing-dependent.
	deadline := time.Now().Add(5 * time.Second)
	for {
		up := 0
		for _, n := range nodes {
			up += n.node.PeerCount()
		}
		if up == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh never fully connected (%d/6 links)", up)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		mint(t, nodes[0], "solo", 1, uint32(i))
	}
	waitConverged(t, 30, nodes...)
	var dups uint64
	for _, n := range nodes {
		dups += n.reg.Counter("p2p.shares_duplicate").Load()
	}
	if dups == 0 {
		t.Fatalf("full mesh with relay produced zero duplicate deliveries")
	}
	// Credit must count each entry exactly once despite duplicates.
	for i, n := range nodes {
		if got := n.chain.CreditSnapshot()["solo"]; got != 30 {
			t.Fatalf("node %d credit = %d, want 30", i, got)
		}
	}
}

// TestIngestCountsRefusals: every share frame a node refuses is counted —
// a duplicate as a duplicate, one below the horizon by the chain, and bad
// PoW, height skew and a malformed entry as rejected — whether the frames
// arrive one at a time or all in one write, so that the reader takes them
// in pairs: the duplicate then shares a verify with its original, and
// each refusal shares one with an entry refused for another reason.
func TestIngestCountsRefusals(t *testing.T) {
	good := testEntry(101, "good", 1, 1)
	frames := []*sharechain.Entry{
		good,
		good,                           // duplicate
		testEntry(102, "forged", 1, 2), // bad PoW
		testEntry(101+sharechain.DefaultMaxHeightSkew+1, "far", 1, 3), // height skew
		{Height: 103, Token: "zero", Diff: 0, Blob: []byte{1}},        // malformed
		testEntry(50, "late", 1, 4),                                   // below the horizon
	}
	want := map[string]uint64{
		"p2p.shares_ingested":           1,
		"p2p.shares_duplicate":          1,
		"p2p.shares_rejected":           3,
		"pool.sharechain_below_horizon": 1,
	}
	for _, oneWrite := range []bool{false, true} {
		reg := metrics.NewRegistry()
		chain := sharechain.New(sharechain.Config{Window: 8, Metrics: reg, Verify: func(batch []*sharechain.Entry, verdicts []error) {
			for i, e := range batch {
				if e.Token == "forged" {
					verdicts[i] = sharechain.ErrBadPoW
				}
			}
		}})
		chain.Adopt(sharechain.Checkpoint{Count: 50, Height: 100}) // a horizon at height 100
		node, err := NewNode(Config{NodeID: 9, Chain: chain, Registry: reg, TipInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		runHandshake(t, node, func(c net.Conn) {
			h := hello{Version: ProtocolVersion, NodeID: 5}
			c.Write(AppendHelloFrame(nil, &h))
			var all []byte
			for _, e := range frames {
				if !oneWrite {
					c.Write(AppendShareFrame(nil, e))
				}
				all = AppendShareFrame(all, e)
			}
			if oneWrite {
				c.Write(all)
			}
			deadline := time.Now().Add(5 * time.Second)
			for name, n := range want {
				for reg.Counter(name).Load() != n {
					if time.Now().After(deadline) {
						t.Fatalf("one write %v: %s = %d, want %d", oneWrite, name, reg.Counter(name).Load(), n)
					}
					time.Sleep(time.Millisecond)
				}
			}
			c.Close()
		})
		node.Close()
	}
}

// TestShareFramesVerifiedInPairs: N share frames that reach a node in one
// write are verified as ⌊N/2⌋ pairs, plus one alone when N is odd; a
// lone frame is admitted without waiting for a partner that never comes.
func TestShareFramesVerifiedInPairs(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		reg := metrics.NewRegistry()
		var mu sync.Mutex
		var seen []int
		chain := sharechain.New(sharechain.Config{Window: 8, Metrics: reg, Verify: func(batch []*sharechain.Entry, _ []error) {
			mu.Lock()
			seen = append(seen, len(batch))
			mu.Unlock()
		}})
		node, err := NewNode(Config{NodeID: 9, Chain: chain, Registry: reg, TipInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		var frames []byte
		for i := 0; i < n; i++ {
			frames = AppendShareFrame(frames, testEntry(uint64(1+i), "tok", 1, byte(i)))
		}
		runHandshake(t, node, func(c net.Conn) {
			h := hello{Version: ProtocolVersion, NodeID: 5}
			c.Write(AppendHelloFrame(nil, &h))
			c.Write(frames)
			deadline := time.Now().Add(5 * time.Second)
			for reg.Counter("p2p.shares_ingested").Load() != uint64(n) {
				if time.Now().After(deadline) {
					t.Fatalf("%d frames: %d ingested", n, reg.Counter("p2p.shares_ingested").Load())
				}
				time.Sleep(time.Millisecond)
			}
			c.Close()
		})
		node.Close()
		want := make([]int, n/2, n/2+1)
		for i := range want {
			want[i] = 2
		}
		if n%2 == 1 {
			want = append(want, 1)
		}
		if !reflect.DeepEqual(seen, want) {
			t.Errorf("%d frames in one write: verifier saw batches %v, want %v", n, seen, want)
		}
		if got := reg.Counter("pool.sharechain_paired_verifies").Load(); got != uint64(n&^1) {
			t.Errorf("%d frames: pool.sharechain_paired_verifies = %d, want %d", n, got, n&^1)
		}
	}
}

// TestSyncRequestStartsAtHorizon: a node behind a peer asks for entries
// from its own horizon — the height of its last folded entry — and from 0
// only while nothing has folded.
func TestSyncRequestStartsAtHorizon(t *testing.T) {
	for _, base := range []uint64{0, 100} {
		chain := sharechain.New(sharechain.Config{Window: 8, Verify: acceptAll})
		if base > 0 {
			chain.Adopt(sharechain.Checkpoint{Count: 50, Height: base})
		}
		node, err := NewNode(Config{NodeID: 9, Chain: chain, TipInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		runHandshake(t, node, func(c net.Conn) {
			h := hello{Version: ProtocolVersion, NodeID: 5, Count: 1000, Tip: [32]byte{1}}
			c.Write(AppendHelloFrame(nil, &h))
			br := bufio.NewReader(c)
			for {
				kind, body, err := readFrame(br)
				if err != nil {
					t.Fatalf("base %d: no sync request: %v", base, err)
				}
				if kind == frameSyncReq {
					if r, err := decodeSyncReq(body); err != nil || r.From != base {
						t.Fatalf("base %d: sync request from %d (%v), want %d", base, r.From, err, base)
					}
					break
				}
			}
			c.Close()
		})
		node.Close()
	}
}

// The share-chain's finality horizon (unexported there): a chain holds at
// most window + reorgDepth + foldChunk entries, which bounds a catch-up.
const (
	testWindow     = 64 // startNode's
	testReorgDepth = 8192
	testFoldChunk  = 4096
	heldBound      = testWindow + testReorgDepth + testFoldChunk
)

// mintConverged mints entries from..to-1 round-robin on minters, 200 at a
// time — well inside the reorg depth, so no entry is ever later than the
// horizon allows — and waits for every node in all to converge after each
// batch.
func mintConverged(t *testing.T, minters, all []*testNode, from, to int) {
	t.Helper()
	for i := from; i < to; {
		end := min(to, i+200)
		for ; i < end; i++ {
			mint(t, minters[i%len(minters)], fmt.Sprintf("acct%d", i%5), uint64(1+i%7), uint32(i))
		}
		waitConverged(t, end, all...)
	}
}

// requireSameBooks checks what waitConverged does not: window weights.
func requireSameBooks(t *testing.T, nodes ...*testNode) {
	t.Helper()
	refW, refT := nodes[0].chain.WindowWeights()
	for i, n := range nodes[1:] {
		if w, tot := n.chain.WindowWeights(); tot != refT || !reflect.DeepEqual(w, refW) {
			t.Fatalf("node %d window diverged", i+1)
		}
	}
}

// TestCatchUpAfterMissedFold: a node that misses a whole fold chunk while
// its link is down heals on reconnect by adopting the peer's checkpoint
// and streaming the peer's held range — at most window + reorgDepth +
// foldChunk entries, counted on the responder — not the history.
func TestCatchUpAfterMissedFold(t *testing.T) {
	a := startNode(t, 1)
	regB := metrics.NewRegistry()
	b := &testNode{chain: sharechain.New(sharechain.Config{Window: testWindow, Verify: acceptAll, Metrics: regB}), reg: regB}
	connectB := func() {
		var err error
		b.node, err = NewNode(Config{NodeID: 2, Chain: b.chain, Registry: regB, TipInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		b.node.AddPeer("a", func() (net.Conn, error) { return a.ln.Dial() })
	}
	connectB()
	first := testWindow + testReorgDepth + testFoldChunk + 100
	mintConverged(t, []*testNode{a}, []*testNode{a, b}, 0, first)
	if cp, ok := b.chain.Checkpoint(); !ok || cp.Count != testFoldChunk {
		t.Fatalf("b folded %d entries, want one chunk", cp.Count)
	}

	b.node.Close()
	for a.node.PeerCount() != 0 {
		time.Sleep(time.Millisecond)
	}
	mintConverged(t, []*testNode{a}, []*testNode{a}, first, first+testFoldChunk)
	sent := a.reg.Counter("p2p.sync_entries_sent").Load()
	connectB()
	defer b.node.Close()
	waitConverged(t, first+testFoldChunk, a, b)
	requireSameBooks(t, a, b)
	if got := regB.Counter("p2p.checkpoints_adopted").Load(); got != 1 {
		t.Fatalf("b adopted %d checkpoints, want 1", got)
	}
	if streamed := a.reg.Counter("p2p.sync_entries_sent").Load() - sent; streamed > heldBound {
		t.Fatalf("catch-up streamed %d entries, want ≤ %d", streamed, heldBound)
	}
	if got := regB.Counter("pool.sharechain_below_horizon").Load(); got != 0 {
		t.Fatalf("b refused %d entries below its horizon", got)
	}
}

// TestColdRestartAfterFolds: three nodes fold at least three times; one
// is killed and replaced with an empty chain. The replacement adopts a
// checkpoint and converges to the same tip (count and hash), credit,
// window and payouts after receiving at most window + reorgDepth +
// foldChunk entries rather than the whole history. The entries are
// counted where they arrive: a and b may still be syncing with each
// other after their last batch, so their send counters mix in that
// traffic.
func TestColdRestartAfterFolds(t *testing.T) {
	a := startNode(t, 1)
	b := startNode(t, 2)
	var mu sync.Mutex
	cLn := memconn.Listen()
	a.node.AddPeer("c", func() (net.Conn, error) {
		mu.Lock()
		ln := cLn
		mu.Unlock()
		return ln.Dial()
	})
	link(a, b)
	startC := func() *testNode {
		reg := metrics.NewRegistry()
		chain := sharechain.New(sharechain.Config{Window: testWindow, Verify: acceptAll, Metrics: reg})
		node, err := NewNode(Config{NodeID: 3, Chain: chain, Registry: reg, TipInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		ln := cLn
		mu.Unlock()
		go node.Serve(ln)
		return &testNode{chain: chain, node: node, ln: ln, reg: reg}
	}
	c := startC()
	total := testWindow + testReorgDepth + 3*testFoldChunk + 100
	mintConverged(t, []*testNode{a, b, c}, []*testNode{a, b, c}, 0, total)
	if cp, ok := a.chain.Checkpoint(); !ok || cp.Count < 3*testFoldChunk {
		t.Fatalf("folded %d entries, want at least three chunks", cp.Count)
	}

	c.node.Close()
	c.ln.Close()
	mintConverged(t, []*testNode{a, b}, []*testNode{a, b}, total, total+100)
	mu.Lock()
	cLn = memconn.Listen()
	mu.Unlock()
	c2 := startC()
	defer c2.node.Close()
	waitConverged(t, total+100, a, b, c2)
	requireSameBooks(t, a, b, c2)
	if got := c2.reg.Counter("p2p.checkpoints_adopted").Load(); got == 0 {
		t.Fatalf("the replacement converged without adopting a checkpoint")
	}
	var streamed uint64
	for _, name := range []string{"p2p.shares_ingested", "p2p.shares_duplicate", "p2p.shares_rejected", "pool.sharechain_below_horizon"} {
		streamed += c2.reg.Counter(name).Load()
	}
	if streamed > heldBound {
		t.Fatalf("cold catch-up streamed %d entries of a %d-entry history, want ≤ %d", streamed, total+100, heldBound)
	}
	t.Logf("cold catch-up streamed %d entries of a %d-entry history", streamed, total+100)
}

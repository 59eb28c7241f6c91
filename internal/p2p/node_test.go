package p2p

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
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
	return startNodeTipEvery(t, id, 10*time.Millisecond)
}

// startNodeTipEvery is startNode with the tip heartbeat — the sync
// trigger — at the given period.
func startNodeTipEvery(t *testing.T, id uint64, tipInterval time.Duration) *testNode {
	t.Helper()
	reg := metrics.NewRegistry()
	chain := sharechain.New(sharechain.Config{Window: 64, Verify: acceptAll, Metrics: reg})
	node, err := NewNode(Config{
		NodeID:      id,
		Chain:       chain,
		Registry:    reg,
		TipInterval: tipInterval,
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

// waitLinks polls until the nodes' live links, counted from both ends,
// add up to want.
func waitLinks(t *testing.T, want int, nodes ...*testNode) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		up := 0
		for _, n := range nodes {
			up += n.node.PeerCount()
		}
		if up == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d link ends up", up, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
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

// TestTwoNodeGossip: entries minted on a reach b by gossip alone. The
// tip heartbeat is out of reach and the link is up before the first
// mint, so both hellos carry count 0 and nothing can start a sync
// round: if Publish sent nothing, b would never converge.
func TestTwoNodeGossip(t *testing.T) {
	a := startNodeTipEvery(t, 1, time.Hour)
	b := startNodeTipEvery(t, 2, time.Hour)
	link(a, b)
	waitLinks(t, 2, a, b)
	for i := 0; i < 20; i++ {
		mint(t, a, fmt.Sprintf("tok%d", i%3), uint64(1+i%4), uint32(i))
	}
	waitConverged(t, 20, a, b)
	if got := b.reg.Counter("p2p.sync_rounds").Load(); got != 0 {
		t.Fatalf("b ran %d sync rounds, want 0: the entries must arrive by gossip", got)
	}
	if got := b.reg.Counter("p2p.shares_ingested").Load(); got != 20 {
		t.Fatalf("b ingested %d, want 20", got)
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
		h := hello{version: protocolVersion + 1, nodeID: 5}
		c.Write(appendHelloFrame(nil, &h))
	})
	if !errors.Is(err, errBadVersion) {
		t.Fatalf("bad version: %v", err)
	}

	// Loop-to-self: remote node ID equals our own.
	err = runHandshake(t, n.node, func(c net.Conn) {
		h := hello{version: protocolVersion, nodeID: 77}
		c.Write(appendHelloFrame(nil, &h))
	})
	if !errors.Is(err, errSelfConnect) {
		t.Fatalf("self connect: %v", err)
	}

	// Oversize frame in place of the hello.
	err = runHandshake(t, n.node, func(c net.Conn) {
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[:], maxFrameLen+1)
		c.Write(hdr[:])
	})
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversize: %v", err)
	}

	// A share frame before any hello is a protocol violation.
	err = runHandshake(t, n.node, func(c net.Conn) {
		c.Write(AppendShareFrame(nil, testEntry(1, "a", 1, 1)))
	})
	if !errors.Is(err, errUnknownFrame) {
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
	waitLinks(t, 1, a)
	// A second connection claiming b's node ID must be refused.
	err := runHandshake(t, a.node, func(c net.Conn) {
		h := hello{version: protocolVersion, nodeID: 2}
		c.Write(appendHelloFrame(nil, &h))
	})
	if !errors.Is(err, errDupPeer) {
		t.Fatalf("dup peer: %v", err)
	}
	if got := a.node.PeerCount(); got != 1 {
		t.Fatalf("peer count after dup rejection = %d", got)
	}
}

// TestV2HelloRefused: a peer still speaking protocol 2 — its hello
// carrying the peer list version 3 dropped — is refused at the handshake:
// it gets this node's hello, then its link drops, and it never counts as
// a peer.
func TestV2HelloRefused(t *testing.T) {
	n := startNode(t, 77)
	err := runHandshake(t, n.node, func(c net.Conn) {
		c.Write(v2Hello(5, "10.0.0.1:7777", "10.0.0.2:7777"))
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		br := bufio.NewReader(c)
		if kind, _, err := readFrame(br); err != nil || kind != frameHello {
			t.Errorf("first frame: kind=%d err=%v, want the node's hello", kind, err)
		}
		if kind, _, err := readFrame(br); err == nil {
			t.Errorf("link still up after a v2 hello: read frame kind %d", kind)
		}
		if got := n.node.PeerCount(); got != 0 {
			t.Errorf("v2 peer admitted: PeerCount = %d", got)
		}
	})
	if !errors.Is(err, errBadVersion) {
		t.Fatalf("v2 hello: %v, want ErrBadVersion", err)
	}
	if got := n.node.PeerCount(); got != 0 {
		t.Fatalf("PeerCount after refusal = %d", got)
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
	waitLinks(t, 6, nodes...)
	for i := 0; i < 30; i++ {
		mint(t, nodes[0], "solo", 1, uint32(i))
	}
	waitConverged(t, 30, nodes...)
	// The duplicates are the relayed second copies, which may still be
	// queued when the chains converge: poll rather than sample once.
	dups := func() (sum uint64) {
		for _, n := range nodes {
			sum += n.reg.Counter("p2p.shares_duplicate").Load()
		}
		return sum
	}
	for deadline := time.Now().Add(5 * time.Second); dups() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("full mesh with relay produced zero duplicate deliveries")
		}
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
			h := hello{version: protocolVersion, nodeID: 5}
			c.Write(appendHelloFrame(nil, &h))
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

// TestShareFramesVerifiedInBatches: N share frames that reach a node in
// one write are verified in batches of ingestBatch, the last one short;
// a lone frame is admitted without waiting for more that never come.
func TestShareFramesVerifiedInBatches(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 11} {
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
			h := hello{version: protocolVersion, nodeID: 5}
			c.Write(appendHelloFrame(nil, &h))
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
		want := map[int][]int{1: {1}, 2: {2}, 5: {5}, 8: {8}, 11: {8, 3}}[n]
		batched := 0
		for _, b := range want {
			if b > 1 {
				batched += b
			}
		}
		if !reflect.DeepEqual(seen, want) {
			t.Errorf("%d frames in one write: verifier saw batches %v, want %v", n, seen, want)
		}
		if got := reg.Counter("pool.sharechain_batched_verifies").Load(); got != uint64(batched) {
			t.Errorf("%d frames: pool.sharechain_batched_verifies = %d, want %d", n, got, batched)
		}
	}
}

// chunkReader delivers its bytes at most n at a time, so a bufio.Reader
// over it holds frames split at arbitrary points.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[k:]
	return k, nil
}

// FuzzShareBatches holds readShareBatch to a frame-at-a-time decode: for
// any byte stream, delivered in reads of any size, the batches readLoop
// ingests, concatenated, are the share entries a frame-at-a-time decode
// yields up to its first error, and no batch exceeds ingestBatch.
func FuzzShareBatches(f *testing.F) {
	var frames []byte
	for i := 0; i < 11; i++ {
		frames = AppendShareFrame(frames, testEntry(uint64(1+i), "tok", 1, byte(i)))
	}
	f.Add(frames, uint16(1<<12))
	f.Add(frames, uint16(100))
	f.Add(frames, uint16(1))
	mixed := AppendShareFrame(nil, testEntry(1, "a", 1, 1))
	mixed = appendTipFrame(mixed, 3, [32]byte{4})
	mixed = AppendShareFrame(mixed, testEntry(2, "b", 1, 2))
	f.Add(mixed, uint16(1<<12))
	bad := slices.Clone(frames)
	bad[len(bad)/2] ^= 0xff // inside the sixth frame
	f.Add(bad, uint16(1<<12))
	f.Add(frames[:len(frames)-3], uint16(1<<12))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		var want []sharechain.Entry
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			kind, body, err := readFrame(br)
			if err != nil {
				break
			}
			if kind != frameShare {
				continue
			}
			e, _, err := decodeEntry(body)
			if err != nil {
				break
			}
			want = append(want, e)
		}
		var got []sharechain.Entry
		br = bufio.NewReader(&chunkReader{data, int(chunk) + 1})
		for {
			kind, body, err := readFrame(br)
			if err != nil {
				break
			}
			if kind != frameShare {
				continue
			}
			batch, err := readShareBatch(br, body)
			if len(batch) > ingestBatch {
				t.Fatalf("batch of %d, over ingestBatch", len(batch))
			}
			for _, e := range batch {
				got = append(got, *e)
			}
			if err != nil {
				break
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batched reader decoded %d entries, frame at a time %d, or different ones", len(got), len(want))
		}
	})
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
			h := hello{version: protocolVersion, nodeID: 5, count: 1000, tip: [32]byte{1}}
			c.Write(appendHelloFrame(nil, &h))
			br := bufio.NewReader(c)
			for {
				kind, body, err := readFrame(br)
				if err != nil {
					t.Fatalf("base %d: no sync request: %v", base, err)
				}
				if kind == frameSyncReq {
					if r, err := decodeSyncReq(body); err != nil || r.from != base {
						t.Fatalf("base %d: sync request from %d (%v), want %d", base, r.from, err, base)
					}
					break
				}
			}
			c.Close()
		})
		node.Close()
	}
}

// TestSyncManyEntriesAtOneHeight: a sync round whose batches sit wholly
// at one claimed height still ends. b catches up on 300 entries that a
// holds at height 1, more than one batch, and a sends each of them about
// once rather than the first batch over and over.
func TestSyncManyEntriesAtOneHeight(t *testing.T) {
	a := startNode(t, 1)
	const total = syncBatch + 44
	for i := 0; i < total; i++ {
		e := testEntry(1, fmt.Sprintf("acct%d", i%5), 1, byte(i))
		e.Nonce = uint32(i)
		if _, err := a.chain.Insert(e, true); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	b := startNode(t, 2)
	link(b, a)
	waitConverged(t, total, a, b)
	if sent := a.reg.Counter("p2p.sync_entries_sent").Load(); sent > 2*total {
		t.Fatalf("a sent %d sync entries for a %d-entry chain, want ≤ %d", sent, total, 2*total)
	}
}

// frameKinds reads frames off c until it fails and hands each kind on.
func frameKinds(c net.Conn) <-chan byte {
	kinds := make(chan byte, 64)
	go func() {
		defer close(kinds)
		br := bufio.NewReader(c)
		for {
			kind, _, err := readFrame(br)
			if err != nil {
				return
			}
			kinds <- kind
		}
	}()
	return kinds
}

// announceUntilSyncReq plays a peer whose tip is count entries: it
// announces that tip every 10ms and reports whether a sync request
// arrives on kinds within the given time.
func announceUntilSyncReq(c net.Conn, kinds <-chan byte, count uint64, within time.Duration) bool {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(within)
	for {
		select {
		case kind, ok := <-kinds:
			if !ok {
				return false
			}
			if kind == frameSyncReq {
				return true
			}
		case <-tick.C:
			c.Write(appendTipFrame(nil, count, [32]byte{1}))
		case <-deadline:
			return false
		}
	}
}

// waitCounter polls a counter until it reaches want.
func waitCounter(t *testing.T, c *metrics.Counter, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", name, c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSyncSurvivesDroppedRequest: a sync request refused by a full send
// queue abandons its round, so once the peer reads again its next tip
// announce starts a new one. Before, the round stayed open for the life
// of the link and no sync request was ever sent to that peer again.
func TestSyncSurvivesDroppedRequest(t *testing.T) {
	n := startNode(t, 9)
	drops := n.reg.Counter("p2p.send_drops")
	rounds := n.reg.Counter("p2p.sync_rounds")
	runHandshake(t, n.node, func(c net.Conn) {
		h := hello{version: protocolVersion, nodeID: 5}
		c.Write(appendHelloFrame(nil, &h))
		for n.node.PeerCount() == 0 {
			time.Sleep(time.Millisecond)
		}
		// Never read, and publish a queue's worth at a time until, after
		// the writer has had 20ms to drain, the queue still refuses a
		// frame: the pipe's 256 KB are full and the writer blocked, so the
		// queue stays full.
		for full := false; !full; {
			for i := 0; i < sendQueueDepth; i++ {
				n.node.Publish(testEntry(1, "flood", 1, byte(i)))
			}
			time.Sleep(20 * time.Millisecond)
			d := drops.Load()
			n.node.Publish(testEntry(1, "flood", 1, 0))
			full = drops.Load() > d
		}
		c.Write(appendTipFrame(nil, 1_000_000, [32]byte{1}))
		waitCounter(t, rounds, "p2p.sync_rounds", 1)
		if !announceUntilSyncReq(c, frameKinds(c), 1_000_000, 2*time.Second) {
			t.Errorf("no sync request within 2s of draining the link (p2p.sync_rounds = %d)", rounds.Load())
		}
		c.Close()
	})
	if got := n.reg.Counter("p2p.sync_abandoned").Load(); got == 0 {
		t.Errorf("p2p.sync_abandoned = 0, want the dropped request's round counted")
	}
}

// TestSyncRoundDeadline: a round whose response never comes — lost on
// the far side — is abandoned after syncDeadlineBeats tip beats, and the
// next announce starts a new one.
func TestSyncRoundDeadline(t *testing.T) {
	n := startNode(t, 9)
	runHandshake(t, n.node, func(c net.Conn) {
		h := hello{version: protocolVersion, nodeID: 5, count: 1000, tip: [32]byte{1}}
		c.Write(appendHelloFrame(nil, &h))
		kinds := frameKinds(c)
		for i := 1; i <= 2; i++ {
			if !announceUntilSyncReq(c, kinds, 1000, 2*time.Second) {
				t.Errorf("sync request %d never came (p2p.sync_rounds = %d)", i, n.reg.Counter("p2p.sync_rounds").Load())
				break
			}
		}
		c.Close()
	})
	if got := n.reg.Counter("p2p.sync_abandoned").Load(); got != 1 {
		t.Errorf("p2p.sync_abandoned = %d, want 1", got)
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
	waitLinks(t, 0, a)
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

// TestSyncResponseAfterFold: an honest node whose chain folds between
// its sync request and the response drops the part of the response the
// fold put at or below its horizon, uncounted. The peer answers from the
// node's old horizon with entries the node itself held then (an honest
// peer converged with it); counting them in
// pool.sharechain_below_horizon would flag a healthy node as diverged.
func TestSyncResponseAfterFold(t *testing.T) {
	reg := metrics.NewRegistry()
	chain := sharechain.New(sharechain.Config{Window: testWindow, Verify: acceptAll, Metrics: reg})
	height := uint64(0)
	mintLocal := func(n int) {
		for i := 0; i < n; i++ {
			height++
			if _, err := chain.Insert(testEntry(height, fmt.Sprintf("acct%d", height%5), 1, byte(height>>8)), true); err != nil {
				t.Fatalf("insert at %d: %v", height, err)
			}
		}
	}
	mintLocal(heldBound) // exactly one fold
	before, _ := chain.Checkpoint()
	node, err := NewNode(Config{NodeID: 9, Chain: chain, Registry: reg, TipInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	runHandshake(t, node, func(c net.Conn) {
		_, count := chain.Tip()
		h := hello{version: protocolVersion, nodeID: 5, count: uint64(count) + 1000, tip: [32]byte{1}}
		c.Write(appendHelloFrame(nil, &h))
		br := bufio.NewReader(c)
		nextSyncReq := func() syncReq {
			for {
				kind, body, err := readFrame(br)
				if err != nil {
					t.Fatalf("no sync request: %v", err)
				}
				if kind == frameSyncReq {
					r, err := decodeSyncReq(body)
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
			}
		}
		r := nextSyncReq()
		resp := chain.EntriesFrom(r.from, r.after, syncBatch)
		mintLocal(testFoldChunk) // the second fold, while the request is out
		after, _ := chain.Checkpoint()
		if after.Height <= resp[len(resp)-1].Height {
			t.Fatalf("horizon %d → %d does not cover the response's last height %d", before.Height, after.Height, resp[len(resp)-1].Height)
		}
		c.Write(appendSyncRespFrame(nil, uint64(count)+1000, [32]byte{1}, resp))
		// The full batch asks for more, from the new horizon rather than
		// through the folded history; the response is settled by then.
		if r := nextSyncReq(); r.from != after.Height || r.after != after.ID {
			t.Errorf("round resumed from height %d, want the horizon %d", r.from, after.Height)
		}
		c.Close()
	})
	for _, name := range []string{"pool.sharechain_below_horizon", "p2p.shares_rejected", "p2p.shares_ingested"} {
		if got := reg.Counter(name).Load(); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// TestColdRestartAfterFolds: three nodes fold at least three times; one
// is killed and replaced with an empty chain. The replacement adopts a
// checkpoint and converges to the same tip (count and hash), credit,
// window and payouts after receiving at most window + reorgDepth +
// foldChunk entries rather than the whole history, and a's dialer counts
// the reconnect that found it. The entries are counted where they
// arrive: a and b may still be syncing with each other after their last
// batch, so their send counters mix in that traffic.
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

	reconnects := a.reg.Counter("p2p.reconnects").Load()
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
	if a.reg.Counter("p2p.reconnects").Load() == reconnects {
		t.Fatalf("a's dialer never counted a reconnect across c's outage")
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

package coinhive

import (
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/memconn"
	"repro/internal/metrics"
	"repro/internal/sharechain"
	"repro/internal/simclock"
)

// fedTestNode is one federated pool node: its own blockchain, pool,
// share-chain and p2p identity.
type fedTestNode struct {
	pool *Pool
	fed  *Federation
	reg  *metrics.Registry
	ln   *memconn.Listener
}

func newFedNode(t *testing.T, id uint64, mut ...func(*PoolConfig)) *fedTestNode {
	t.Helper()
	params := blockchain.SimParams()
	params.MinDifficulty = 1 << 40
	chain, err := blockchain.NewChain(params, 1_525_000_000, blockchain.AddressFromString("genesis"))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	fed, err := NewFederation(FederationConfig{
		Variant:     params.PowVariant,
		Window:      64,
		NodeID:      id,
		Registry:    reg,
		tipInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PoolConfig{
		Chain:           chain,
		Wallet:          blockchain.AddressFromString("coinhive-wallet"),
		Clock:           simclock.New(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)),
		ShareDifficulty: 16,
		Metrics:         reg,
		Federation:      fed,
	}
	for _, m := range mut {
		m(&cfg)
	}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln := memconn.Listen()
	go fed.Serve(ln)
	t.Cleanup(func() { fed.Close() })
	return &fedTestNode{pool: pool, fed: fed, reg: reg, ln: ln}
}

// fedNonceSalt spaces out mining start nonces so two submissions against
// the same job slot never grind the same share.
var fedNonceSalt atomic.Uint32

// submitLocal mines and submits one valid share on n's pool, as a local
// miner would, and returns the credited difficulty.
func submitLocal(t *testing.T, n *fedTestNode, token string, slot int) uint64 {
	t.Helper()
	j := n.pool.Job(0, slot, false)
	nonce, sum := mineShare(t, n.pool, j, fedNonceSalt.Add(1)*100_000)
	out, err := n.pool.SubmitShare(token, j.JobID, nonce, sum, "")
	if err != nil {
		t.Fatalf("SubmitShare(%s): %v", token, err)
	}
	return out.diff
}

// waitFedConverged polls every node's share-chain for one common tip at
// the expected entry count, then cross-checks credit and payout vectors
// bit for bit.
func waitFedConverged(t *testing.T, want int, nodes ...*fedTestNode) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		tips := map[[32]byte]bool{}
		ok := true
		for _, n := range nodes {
			tip, count := n.fed.Chain().Tip()
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
				tip, count := n.fed.Chain().Tip()
				t.Logf("node %d: count=%d tip=%x", i, count, tip[:8])
			}
			t.Fatalf("federation did not converge on %d entries", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ref := nodes[0].fed.Chain()
	refCredit := ref.CreditSnapshot()
	refPay := ref.PayoutVector(5_000_000_000)
	refWeights, refTotal := ref.WindowWeights()
	for i, n := range nodes[1:] {
		c := n.fed.Chain()
		if !reflect.DeepEqual(c.CreditSnapshot(), refCredit) {
			t.Fatalf("node %d credit diverged:\n%v\nvs\n%v", i+1, c.CreditSnapshot(), refCredit)
		}
		if !reflect.DeepEqual(c.PayoutVector(5_000_000_000), refPay) {
			t.Fatalf("node %d payout vector diverged", i+1)
		}
		w, tot := c.WindowWeights()
		if tot != refTotal || !reflect.DeepEqual(w, refWeights) {
			t.Fatalf("node %d window weights diverged", i+1)
		}
	}
}

// TestFederatedPoolsConverge is the headline proof: three pool nodes —
// each with its own blockchain, templates and wallet state — are fed
// disjoint slices of one share stream over a mixed transport line
// (memconn link and a real TCP link), and converge to bit-identical
// per-account credit, share-chain tips and PPLNS payout vectors,
// including after one node is killed and a cold replacement resyncs
// from nothing mid-run.
func TestFederatedPoolsConverge(t *testing.T) {
	n0 := newFedNode(t, 1)
	n1 := newFedNode(t, 2)
	n2 := newFedNode(t, 3)

	// Line topology over mixed transports: n0 —memconn— n1 —TCP— n2.
	// Convergence across the line also proves relay, and the TCP leg
	// proves the wire codec is transport-agnostic for real.
	ln0 := n0.ln
	n1.fed.AddPeer("n0", func() (net.Conn, error) { return ln0.Dial() })
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcpLn.Close()
	go n2.fed.Serve(tcpLn)
	n1.fed.Connect(tcpLn.Addr().String())

	// Disjoint slices of one stream: share k lands on node k%3.
	nodes := []*fedTestNode{n0, n1, n2}
	total := 0
	var wantCredit uint64
	for k := 0; k < 9; k++ {
		diff := submitLocal(t, nodes[k%3], fmt.Sprintf("acct%d", k%4), k%4)
		wantCredit += diff
		total++
	}
	waitFedConverged(t, total, n0, n1, n2)

	// Kill n2 mid-run: its share-chain state dies with it.
	n2.fed.Close()
	tcpLn.Close()

	for k := 0; k < 6; k++ {
		submitLocal(t, nodes[k%2], "during-outage", k%4)
		total++
	}
	waitFedConverged(t, total, n0, n1)

	// Cold replacement: same p2p identity, empty share-chain — the ranged
	// sync must rebuild the entire history before any new share arrives
	// to gossip, then live gossip keeps it current.
	n2b := newFedNode(t, 3)
	tcpLn2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcpLn2.Close()
	go n2b.fed.Serve(tcpLn2)
	n1.fed.Connect(tcpLn2.Addr().String())
	waitFedConverged(t, total, n0, n1, n2b)

	nodes = []*fedTestNode{n0, n1, n2b}
	for k := 0; k < 6; k++ {
		submitLocal(t, nodes[k%3], "after-restart", k%4)
		total++
	}
	waitFedConverged(t, total, n0, n1, n2b)

	// The resynced node ran at least one catch-up round, and nothing was
	// dropped off any submit path: zero lost credit is structural.
	if got := n2b.reg.Counter("p2p.sync_rounds").Load(); got == 0 {
		t.Fatalf("cold restart converged without a sync round")
	}
	for i, n := range []*fedTestNode{n0, n1, n2b} {
		if got := n.reg.Counter("pool.federation_drops").Load(); got != 0 {
			t.Fatalf("node %d dropped %d shares off the federation queue", i, got)
		}
	}
	var sumCredit uint64
	for _, v := range n0.fed.Chain().CreditSnapshot() {
		sumCredit += v
	}
	if sumCredit != wantCredit+12*16 {
		t.Fatalf("total federated credit = %d, want %d", sumCredit, wantCredit+12*16)
	}
}

// TestFederatedSettleUsesWindow: under federation, a found block pays
// the share-chain's PPLNS window, not the local round tallies — and the
// paid amounts equal the chain's own PayoutVector exactly.
func TestFederatedSettleUsesWindow(t *testing.T) {
	n := newFedNode(t, 1)
	submitLocal(t, n, "alice", 0)
	submitLocal(t, n, "alice", 1)
	submitLocal(t, n, "bob", 2)

	// Let the drain goroutine mint all three entries.
	deadline := time.Now().Add(5 * time.Second)
	for n.fed.Chain().Len() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("share-chain len = %d, want 3", n.fed.Chain().Len())
		}
		time.Sleep(2 * time.Millisecond)
	}

	blk, err := n.pool.ProduceWinningBlock(1_525_000_300, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := n.fed.Chain().PayoutVector(blk.Coinbase.Amount)
	if len(want) != 2 {
		t.Fatalf("payout vector = %v", want)
	}
	var paidTotal uint64
	for _, po := range want {
		a, ok := n.pool.AccountSnapshot(po.Token)
		if !ok || a.BalanceAtomic != po.Amount {
			t.Fatalf("account %s balance = %d, want %d", po.Token, a.BalanceAtomic, po.Amount)
		}
		paidTotal += po.Amount
	}
	st := n.pool.StatsSnapshot()
	if st.PaidAtomic != paidTotal || st.KeptAtomic != blk.Coinbase.Amount-paidTotal {
		t.Fatalf("paid/kept = %d/%d, want %d/%d",
			st.PaidAtomic, st.KeptAtomic, paidTotal, blk.Coinbase.Amount-paidTotal)
	}
	// alice did 2/3 of the window weight; integer payout must reflect it.
	if want[0].Token != "alice" || want[1].Token != "bob" || want[0].Amount <= want[1].Amount {
		t.Fatalf("window weighting looks wrong: %v", want)
	}
}

// TestFederatedAndStandaloneKeepOneFee: both settle paths — a standalone
// pool's round split and a federated pool's PPLNS window — apply the one
// pool fee, so one account crediting one share before one found block
// leaves both pools the same KeptAtomic: the reward less the users' 70%.
func TestFederatedAndStandaloneKeepOneFee(t *testing.T) {
	fed := newFedNode(t, 1)
	solo := newTestPool(t, 16)
	submitLocal(t, fed, "alice", 0)
	j := solo.Job(0, 0, false)
	nonce, sum := mineShare(t, solo, j)
	if _, err := solo.SubmitShare("alice", j.JobID, nonce, sum, ""); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fed.fed.Chain().Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("share-chain len = %d, want 1", fed.fed.Chain().Len())
		}
		time.Sleep(2 * time.Millisecond)
	}

	fb, err := fed.pool.ProduceWinningBlock(1_525_000_300, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := solo.ProduceWinningBlock(1_525_000_300, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Coinbase.Amount != sb.Coinbase.Amount {
		t.Fatalf("rewards differ: federated %d, standalone %d", fb.Coinbase.Amount, sb.Coinbase.Amount)
	}
	reward := sb.Coinbase.Amount
	want := reward - reward*70/100
	fedKept, soloKept := fed.pool.StatsSnapshot().KeptAtomic, solo.StatsSnapshot().KeptAtomic
	if fedKept != want || soloKept != want {
		t.Errorf("kept: federated %d, standalone %d, want both %d (reward %d less 70%%)", fedKept, soloKept, want, reward)
	}
}

// TestFederationArchivesGossip: gossiped-in entries land in the archive
// as KindShareGossipIn (plus KindReorg on displacement), replay counts
// them, and replayed local attribution stays bit-identical to the live
// pool despite the new kinds in the stream.
func TestFederationArchivesGossip(t *testing.T) {
	store := archive.NewMemStore(1 << 12)
	rec := archive.NewRecorder(store, nil, 0)
	a := newFedNode(t, 1, func(c *PoolConfig) { c.Archive = rec })
	b := newFedNode(t, 2)
	lnA := a.ln
	b.fed.AddPeer("a", func() (net.Conn, error) { return lnA.Dial() })

	submitLocal(t, a, "local-acct", 0)
	submitLocal(t, b, "remote-acct", 1)
	waitFedConverged(t, 2, a, b)

	rec.Flush()
	res, err := archive.Replay(store)
	if err != nil {
		t.Fatal(err)
	}
	if res.SharesGossipedIn != 1 {
		t.Fatalf("replayed gossip-in = %d, want 1", res.SharesGossipedIn)
	}
	// Local attribution is untouched by federation events: only a's own
	// accepted share is credited in the replayed account books.
	if res.SharesAccepted != 1 || res.Credit["local-acct"] != 16 || res.Credit["remote-acct"] != 0 {
		t.Fatalf("replay attribution: accepted=%d credit=%v", res.SharesAccepted, res.Credit)
	}
}

// TestGossipedShareVerification: a federation node rejects gossiped
// entries whose PoW does not verify — a hostile peer cannot inject
// credit.
func TestGossipedShareVerification(t *testing.T) {
	params := blockchain.SimParams()
	reg := metrics.NewRegistry()
	fed, err := NewFederation(FederationConfig{Variant: params.PowVariant, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	forged := &sharechain.Entry{
		Height: 1,
		Token:  "thief",
		Diff:   1 << 30,
		Blob:   make([]byte, 76),
	}
	forged.Result[0] = 0xFF
	if _, err := fed.Chain().Insert(forged, false); err == nil {
		t.Fatalf("forged PoW admitted to the share-chain")
	}
	if got := fed.Chain().Len(); got != 0 {
		t.Fatalf("chain len after forgery = %d", got)
	}
}

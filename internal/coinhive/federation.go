package coinhive

// Federation makes this pool one node among N that converge on identical
// books. It owns the node's deterministic PPLNS share-chain and its p2p
// gossip layer, and hangs off PoolConfig.Federation the way PR 9's
// Archive recorder does: the submit hot path hands an accepted share to
// a bounded non-blocking queue and moves on; a drain goroutine mints the
// share-chain entry (claimed height = local tip + 1), inserts it locally
// and broadcasts it. Ingestion runs the other way: gossiped entries are
// PoW-verified by the pool's pooled CryptoNight hashers (injected as the
// share-chain's Verifier, verifyBatch) before admission, so a hostile
// peer buys nothing but its own disconnection. The verify runs on the p2p
// reader goroutine of the link the entry came in on, outside the chain
// lock; share frames the reader finds already whole in its buffer behind
// the first (up to p2p's ingestBatch) are verified as one batch, four
// hashes per kernel walk (cryptonight.SumBatch).
//
// When a Federation is configured, found-block settlement takes its
// payout vector from the share-chain's PPLNS window instead of the
// per-node round tallies (settleLocked): every converged node computes
// bit-identical payout vectors for the same reward, which is the property
// the federation convergence tests pin.

import (
	"net"
	"sync"
	"time"

	"repro/internal/cryptonight"
	"repro/internal/handoff"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/sharechain"
)

// emitQueueDepth bounds the accepted-share → share-chain hand-off. Sized
// like the archive recorder's queue: deep enough that only a stalled
// drain goroutine (not a burst) ever drops, with drops counted.
const emitQueueDepth = 4096

// FederationConfig configures a pool node's federation membership.
type FederationConfig struct {
	// Variant is the PoW profile gossiped shares are verified under —
	// pass the pool chain's Params().PowVariant.
	Variant cryptonight.Variant
	// Window is the PPLNS window size in entries (sharechain.DefaultWindow
	// if 0). Every node in a federation must agree on it.
	Window int
	// NodeID identifies this node in p2p handshakes (0 draws random).
	NodeID uint64
	// Registry receives the p2p.* and pool.sharechain_* instruments;
	// pass the pool's registry so they surface in /metrics.
	Registry *metrics.Registry
	// tipInterval overrides the p2p tip-announce period (0: p2p default).
	tipInterval time.Duration
}

// fedShare is one accepted share queued for the share-chain. The blob is
// the submitter's copy — SubmitShare's stack buffer dies with the call,
// so emitShare snapshots it before queuing.
type fedShare struct {
	token  string
	diff   uint64
	nonce  uint32
	blob   []byte
	result [32]byte
}

// Federation is the share-chain + peer layer bundle a pool node mounts
// via PoolConfig.Federation.
type Federation struct {
	chain *sharechain.Chain
	node  *p2p.Node

	// emit is the submit path's hand-off to the single minting goroutine:
	// one minter per node assigns claimed heights (local tip + 1) in
	// hand-off order, keeping them monotonic without a lock around the
	// submit path.
	emit  *handoff.Queue[fedShare]
	drops *metrics.Counter

	hookMu    sync.Mutex
	hooks     []func(e *sharechain.Entry, reorged bool)
	mintHooks []func(e *sharechain.Entry)
}

// NewFederation builds the share-chain and p2p node for one pool node.
// Give it links with Serve/AddPeer/Connect and close it after the pool's
// network fronts are drained.
func NewFederation(cfg FederationConfig) (*Federation, error) {
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	// Warm (and validate) the per-variant hasher pool the verifier borrows
	// from, exactly as NewPool does for the submit path.
	h, err := cryptonight.GetHasher(cfg.Variant)
	if err != nil {
		return nil, err
	}
	cryptonight.PutHasher(h)
	variant := cfg.Variant
	f := &Federation{drops: cfg.Registry.Counter("pool.federation_drops")}
	f.chain = sharechain.New(sharechain.Config{
		Window:  cfg.Window,
		Metrics: cfg.Registry,
		// The verifier makes every entry self-certifying on every node:
		// the blob carries its nonce, so admission needs nothing but the
		// entry and a scratchpad.
		Verify: func(batch []*sharechain.Entry, verdicts []error) { verifyBatch(variant, batch, verdicts) },
	})
	f.node, err = p2p.NewNode(p2p.Config{
		NodeID:      cfg.NodeID,
		Chain:       f.chain,
		Registry:    cfg.Registry,
		TipInterval: cfg.tipInterval,
		OnIngest:    f.dispatchIngest,
	})
	if err != nil {
		return nil, err
	}
	f.emit = handoff.New(emitQueueDepth, f.drops, f.mint, nil)
	return f, nil
}

// verifyBatch is the share-chain's verifier: the batch's blobs hashed in
// one SumBatch, four at a time. NewFederation validated the variant, so
// SumBatch does not panic.
func verifyBatch(v cryptonight.Variant, batch []*sharechain.Entry, verdicts []error) {
	blobs := make([][]byte, len(batch))
	for i, e := range batch {
		blobs[i] = e.Blob
	}
	sums := make([][32]byte, len(batch))
	cryptonight.SumBatch(v, blobs, sums)
	for i, e := range batch {
		verdicts[i] = powVerdict(e, sums[i])
	}
}

// powVerdict checks an entry against the hash of its blob: the hash must
// be the claimed result, and the result must meet the entry's difficulty.
func powVerdict(e *sharechain.Entry, sum [32]byte) error {
	if sum != e.Result || !cryptonight.CheckCompactTarget(e.Result, cryptonight.DifficultyForTarget(e.Diff)) {
		return sharechain.ErrBadPoW
	}
	return nil
}

// Chain exposes the node's share-chain (windowed credit, payout vectors,
// convergence probes).
func (f *Federation) Chain() *sharechain.Chain { return f.chain }

// Node exposes the p2p layer.
func (f *Federation) Node() *p2p.Node { return f.node }

// Serve accepts inbound peer connections on ln (blocks; run in a
// goroutine).
func (f *Federation) Serve(ln net.Listener) error { return f.node.Serve(ln) }

// AddPeer maintains a persistent outbound link over a custom dialer.
func (f *Federation) AddPeer(name string, dial func() (net.Conn, error)) {
	f.node.AddPeer(name, dial)
}

// Connect maintains a persistent outbound TCP link to addr.
func (f *Federation) Connect(addr string) { f.node.Connect(addr) }

// OnIngest registers a callback for entries admitted from peers. The
// pool registers the archive hook here; the benchmark registers its
// propagation probe. Callbacks run on the p2p reader goroutine and must
// not block.
func (f *Federation) OnIngest(cb func(e *sharechain.Entry, reorged bool)) {
	f.hookMu.Lock()
	f.hooks = append(f.hooks, cb)
	f.hookMu.Unlock()
}

// OnMint registers a callback for entries minted from this node's own
// accepted shares, invoked after local insertion and before broadcast.
// The benchmark uses it to timestamp gossip origin; paired with OnIngest
// on the other nodes it yields end-to-end propagation latency.
func (f *Federation) OnMint(cb func(e *sharechain.Entry)) {
	f.hookMu.Lock()
	f.mintHooks = append(f.mintHooks, cb)
	f.hookMu.Unlock()
}

func (f *Federation) dispatchIngest(e *sharechain.Entry, reorged bool) {
	f.hookMu.Lock()
	hooks := f.hooks
	f.hookMu.Unlock()
	for _, cb := range hooks {
		cb(e, reorged)
	}
}

// emitShare queues one locally-accepted share for the share-chain. It
// never blocks: a full queue drops (counted), mirroring the archive
// recorder's contract, so federation can never stall the submit path.
func (f *Federation) emitShare(token string, diff uint64, nonce uint32, blob []byte, result [32]byte) {
	f.emit.Offer(fedShare{
		token:  token,
		diff:   diff,
		nonce:  nonce,
		blob:   append([]byte(nil), blob...),
		result: result,
	})
}

// mint is the emit queue's handler: it turns one accepted share into a
// share-chain entry, inserts it locally and broadcasts it. It never
// returns an error — nothing a share can do stops the minter.
func (f *Federation) mint(s fedShare) error {
	e := &sharechain.Entry{
		Height: f.chain.NextHeight(),
		Token:  s.token,
		Diff:   s.diff,
		Nonce:  s.nonce,
		Blob:   s.blob,
		Result: s.result,
	}
	if _, err := f.chain.Insert(e, true); err != nil {
		// Structurally impossible for a pool-accepted share; counted
		// rather than silently lost so the zero-drop checks catch it.
		f.drops.Inc()
		return nil
	}
	f.hookMu.Lock()
	mintHooks := f.mintHooks
	f.hookMu.Unlock()
	for _, cb := range mintHooks {
		cb(e)
	}
	f.node.Publish(e)
	return nil
}

// Close drains the emit queue — every share already accepted must reach
// the share-chain, or "zero lost credit" would depend on shutdown timing
// — then tears the peer layer down (each peer's queued frames flush
// before the links drop).
func (f *Federation) Close() error {
	f.emit.Close()
	return f.node.Close()
}

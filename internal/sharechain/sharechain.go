// Package sharechain is the deterministic PPLNS share-chain that makes a
// federation of pool nodes converge on identical books. Every accepted
// share — local or gossiped in from a peer — becomes an Entry; the chain
// is the canonical linearization of the entry SET, ordered by (claimed
// height, entry ID). Because the order is a pure function of the entries
// themselves (never of arrival order, map iteration, or wall clocks), any
// two nodes holding the same set of entries hold bit-identical chains:
// same tip hash, same per-account credit, same PPLNS payout vector. That
// set-determinism is the whole convergence proof — gossip only has to
// deliver the set, not an ordering.
//
// A late-gossiped entry whose sort position precedes the current tip is a
// reorg: the canonical order says the branch containing it is better (it
// holds strictly more weight), so the rolling tip hashes after its
// insertion point are rebuilt and, when it lands inside the PPLNS window,
// it enters the window credit as the entry it pushes off the head leaves.
// No entry is ever orphaned — every valid share stays in the chain — which
// is what makes "zero lost credit" a structural property rather than an
// accounting promise.
//
// The package is a passive data structure: PoW verification is injected
// through Config.Verify (the pool wires its pooled CryptoNight hashers
// in), and nothing here reaches into the service layers — the layering
// lint pins sharechain to blockchain + metrics imports only.
package sharechain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// DefaultWindow is the PPLNS window size in entries: payouts are split
// over the last N shares of the canonical chain, difficulty-weighted.
const DefaultWindow = 2048

// DefaultMaxHeightSkew bounds how far above the current tip height an
// entry may claim to sit. Claimed heights interleave naturally (each
// node mints at its own tip height + 1), so honest skew is the gossip
// concurrency — a handful. A hostile peer claiming far-future heights
// would otherwise pin its shares at the window's tail forever.
const DefaultMaxHeightSkew = 4096

// DefaultMaxBlobBytes bounds an entry's PoW blob. Hashing blobs in this
// repo are well under 128 bytes; anything larger is a hostile frame.
const DefaultMaxBlobBytes = 512

// MaxTokenLen bounds the miner-token string in an entry.
const MaxTokenLen = 128

// Validation errors.
var (
	ErrDuplicate  = errors.New("sharechain: entry already in chain")
	ErrBadEntry   = errors.New("sharechain: structurally invalid entry")
	ErrHeightSkew = errors.New("sharechain: claimed height too far ahead of tip")
	ErrBadPoW     = errors.New("sharechain: proof of work does not verify")
	ErrUnverified = errors.New("sharechain: no verifier configured for remote entries")
)

// Entry is one accepted share as a share-chain record. The Blob carries
// the full PoW input with the winning nonce already spliced, so any node
// can re-verify the work with nothing but the entry itself: Sum(Blob)
// must equal Result and Result must meet the Diff target. Identity is
// the SHA-256 of the canonical encoding — origin-independent, so the
// same record gossiped along different paths dedupes to one entry.
type Entry struct {
	// Height is the claimed chain height: the origin node's tip height
	// plus one at mint time. Concurrent mints at different nodes claim
	// the same height and tie-break by ID; the claim is part of the
	// entry's identity, so it cannot be re-written in flight.
	Height uint64
	// Token is the mining account credited for the share.
	Token string
	// Diff is the difficulty-weighted credit the share earned.
	Diff uint64
	// Nonce is the winning nonce (already spliced into Blob; carried
	// for observability and archive parity with the pool's share events).
	Nonce uint32
	// Blob is the complete hashing blob, nonce spliced.
	Blob []byte
	// Result is the claimed CryptoNight hash of Blob.
	Result [32]byte

	id [32]byte // cached canonical ID; all zero (no SHA-256 output) until computed
}

// ID returns the entry's canonical identity: SHA-256 over the fixed
// fields and length-prefixed variable fields. Cached after first use.
func (e *Entry) ID() [32]byte {
	if e.id != ([32]byte{}) {
		return e.id
	}
	var hdr [8 + 8 + 4 + 2 + 2]byte
	binary.LittleEndian.PutUint64(hdr[0:], e.Height)
	binary.LittleEndian.PutUint64(hdr[8:], e.Diff)
	binary.LittleEndian.PutUint32(hdr[16:], e.Nonce)
	binary.LittleEndian.PutUint16(hdr[20:], uint16(len(e.Token)))
	binary.LittleEndian.PutUint16(hdr[22:], uint16(len(e.Blob)))
	h := sha256.New()
	h.Write(hdr[:])
	h.Write([]byte(e.Token))
	h.Write(e.Blob)
	h.Write(e.Result[:])
	h.Sum(e.id[:0])
	return e.id
}

// before orders entries canonically: by claimed height, then by ID bytes
// (lexicographic). This is the deterministic tie-break the convergence
// proof rests on — never map iteration, never arrival order. Both entries
// must have their IDs cached, as every entry in a chain has.
func (e *Entry) before(o *Entry) bool {
	if e.Height != o.Height {
		return e.Height < o.Height
	}
	return bytes.Compare(e.id[:], o.id[:]) < 0
}

// Verifier checks an entry's proof of work. The pool injects one backed
// by its pooled CryptoNight hashers; a nil verifier makes Insert of
// unverified (remote) entries an error, never a silent admission.
type Verifier func(*Entry) error

// Config parameterises a Chain.
type Config struct {
	// Window is the PPLNS window size in entries (DefaultWindow if 0).
	Window int
	// Verify validates the PoW of entries inserted with verified=false
	// (gossiped-in shares). Locally-accepted shares were already
	// verified by the pool and skip it.
	Verify Verifier
	// FeePercent is the pool cut applied by PayoutVector (30 if 0).
	FeePercent int
	// Metrics receives pool.sharechain_* instruments (nil: private).
	Metrics *metrics.Registry
}

// TokenWeight is one account's difficulty-weighted credit inside the
// PPLNS window, in sorted-token order.
type TokenWeight struct {
	Token  string
	Weight uint64
}

// Payout is one account's cut of a reward, in sorted-token order.
type Payout struct {
	Token  string
	Amount uint64
}

// Chain is the share-chain: a canonically-ordered entry set with rolling
// tip hashes, all-time credit and incrementally-maintained PPLNS window
// aggregates. All methods are safe for concurrent use.
type Chain struct {
	cfg Config

	mu      sync.RWMutex
	entries []*Entry            // canonical order, IDs cached; also the dedupe index
	tip     [32]byte            // rolling hash over all entries: tip(i) = SHA-256(tip(i-1) || ID(entries[i]))
	marks   [][32]byte          // marks[k] = tip(tipStride·(k+1) − 1): where a reorg's rebuild restarts
	credit  map[string]*account // all-time difficulty-weighted credit per token
	window  map[string]uint64   // credit inside the PPLNS window
	winTot  uint64              // total window weight

	height *metrics.Gauge
	reorgs *metrics.Counter
}

// account is one token's all-time credit, and the chain's one copy of the
// token string: every entry of the account is re-pointed at it on insert,
// so a gossiped entry does not keep the string it was decoded with.
type account struct {
	token  string
	credit uint64
}

// New builds an empty chain.
func New(cfg Config) *Chain {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.FeePercent == 0 {
		cfg.FeePercent = 30
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Chain{
		cfg:    cfg,
		credit: map[string]*account{},
		window: map[string]uint64{},
		height: cfg.Metrics.Gauge("pool.sharechain_height"),
		reorgs: cfg.Metrics.Counter("pool.sharechain_reorgs"),
	}
}

// Window returns the configured PPLNS window size.
func (c *Chain) Window() int { return c.cfg.Window }

// Len returns the number of entries in the chain.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Tip returns the rolling tip hash and the entry count it covers. Two
// chains with equal tips hold identical entry sequences — the hash folds
// every ID in canonical order, so it is the convergence check.
func (c *Chain) Tip() ([32]byte, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tip, len(c.entries)
}

// TipHeight returns the highest claimed height in the chain (0 when
// empty). Because entries are height-ordered, it is the last entry's.
func (c *Chain) TipHeight() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.entries) == 0 {
		return 0
	}
	return c.entries[len(c.entries)-1].Height
}

// NextHeight is the claimed height a locally-minted entry should carry:
// the current tip height plus one.
func (c *Chain) NextHeight() uint64 { return c.TipHeight() + 1 }

// Has reports whether e is already in the chain.
func (c *Chain) Has(e *Entry) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, found := c.searchLocked(e)
	return found
}

// searchLocked returns e's canonical position — the first entry not
// before it — and whether that entry is e itself. The sorted slice is the
// dedupe index: equal (height, ID) means equal entry.
func (c *Chain) searchLocked(e *Entry) (pos int, found bool) {
	e.ID() // before compares cached IDs; the chain's entries have theirs
	pos = sort.Search(len(c.entries), func(i int) bool { return !c.entries[i].before(e) })
	return pos, pos < len(c.entries) && !e.before(c.entries[pos])
}

// validate applies the structural checks shared by both insert paths.
func (c *Chain) validate(e *Entry) error {
	if e.Diff == 0 || e.Height == 0 || len(e.Token) == 0 ||
		len(e.Token) > MaxTokenLen || len(e.Blob) == 0 || len(e.Blob) > DefaultMaxBlobBytes {
		return ErrBadEntry
	}
	return nil
}

// Insert adds an entry to the chain. verified marks entries whose PoW the
// caller already checked (the local pool's accepted shares); unverified
// entries (gossip, sync) go through Config.Verify before admission — the
// CryptoNight walk runs outside the chain lock, so verification of
// concurrent gossip parallelises like the pool's submit path.
//
// Returns whether the insertion displaced existing order (a reorg): the
// entry's canonical position preceded existing entries, so the rolling
// hashes after it were rebuilt.
func (c *Chain) Insert(e *Entry, verified bool) (reorged bool, err error) {
	if err := c.validate(e); err != nil {
		return false, err
	}
	c.mu.RLock()
	_, dup := c.searchLocked(e)
	tipH := uint64(0)
	if len(c.entries) > 0 {
		tipH = c.entries[len(c.entries)-1].Height
	}
	c.mu.RUnlock()
	if dup {
		return false, ErrDuplicate
	}
	if e.Height > tipH+DefaultMaxHeightSkew {
		return false, ErrHeightSkew
	}
	if !verified {
		if c.cfg.Verify == nil {
			return false, ErrUnverified
		}
		if err := c.cfg.Verify(e); err != nil {
			return false, err
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	pos, dup := c.searchLocked(e)
	if dup {
		return false, ErrDuplicate
	}
	// Re-check the skew bound against the tip as it stands now: the
	// pre-lock check ran against a stale snapshot.
	if n := len(c.entries); n > 0 && e.Height > c.entries[n-1].Height+DefaultMaxHeightSkew {
		return false, ErrHeightSkew
	}
	c.entries = append(c.entries, nil)
	copy(c.entries[pos+1:], c.entries[pos:])
	c.entries[pos] = e
	acct := c.credit[e.Token]
	if acct == nil {
		acct = &account{token: e.Token}
		c.credit[acct.token] = acct
	}
	e.Token = acct.token
	acct.credit += e.Diff

	reorged = pos != len(c.entries)-1
	c.rebuildTipsLocked(pos)
	if reorged {
		c.reorgs.Inc()
	}
	c.slideWindowLocked(pos)
	c.height.Set(int64(c.entries[len(c.entries)-1].Height))
	return reorged, nil
}

// tipStride is the spacing of the rolling-hash checkpoints. A chain keeps
// every entry for ever, so a hash per position would be a fifth of what it
// holds; one per 64 costs a reorg at most 63 extra hashes.
const tipStride = 64

// rebuildTipsLocked recomputes the rolling hash after an insert at pos. An
// append extends the old tip by one hash; a reorg restarts from the last
// checkpoint before pos and re-marks every checkpoint from there on.
func (c *Chain) rebuildTipsLocked(pos int) {
	start, prev := pos, c.tip
	if pos < len(c.entries)-1 {
		start = pos &^ (tipStride - 1)
		prev = [32]byte{}
		if start > 0 {
			prev = c.marks[start/tipStride-1]
		}
	}
	c.marks = c.marks[:start/tipStride]
	h := sha256.New()
	for i := start; i < len(c.entries); i++ {
		h.Reset()
		h.Write(prev[:])
		h.Write(c.entries[i].id[:])
		h.Sum(prev[:0])
		if i%tipStride == tipStride-1 {
			c.marks = append(c.marks, prev)
		}
	}
	c.tip = prev
}

// slideWindowLocked accounts the entry just inserted at pos to the PPLNS
// window, the last Window entries. At or after the window's head it enters
// and, once the chain is longer than the window, pushes the entry before
// the head out; before the head it shifts the window's W entries along
// without changing which they are.
func (c *Chain) slideWindowLocked(pos int) {
	head := len(c.entries) - c.cfg.Window
	if pos < head {
		return
	}
	e := c.entries[pos]
	c.window[e.Token] += e.Diff
	c.winTot += e.Diff
	if head > 0 {
		old := c.entries[head-1]
		c.window[old.Token] -= old.Diff
		c.winTot -= old.Diff
		if c.window[old.Token] == 0 {
			delete(c.window, old.Token)
		}
	}
}

// CreditSnapshot returns a copy of the all-time difficulty-weighted
// credit per token. Two converged nodes return equal maps.
func (c *Chain) CreditSnapshot() map[string]uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]uint64, len(c.credit))
	for t, a := range c.credit {
		out[t] = a.credit
	}
	return out
}

// WindowWeights returns the PPLNS window's per-token weights in sorted
// token order, plus the total. The sort makes every consumer of the
// window — payout vectors, archives, federation settles — deterministic.
func (c *Chain) WindowWeights() ([]TokenWeight, uint64) {
	c.mu.RLock()
	tokens := make([]string, 0, len(c.window))
	for t := range c.window {
		tokens = append(tokens, t)
	}
	total := c.winTot
	weights := make([]TokenWeight, 0, len(tokens))
	sort.Strings(tokens)
	for _, t := range tokens {
		weights = append(weights, TokenWeight{Token: t, Weight: c.window[t]})
	}
	c.mu.RUnlock()
	return weights, total
}

// PayoutVector splits a block reward across the current PPLNS window:
// each account receives floor(reward × (100−fee)% × weight ⁄ total), in
// sorted-token order; rounding dust stays with the pool. It is a pure
// function of the window, so converged nodes produce identical vectors.
func (c *Chain) PayoutVector(reward uint64) []Payout {
	weights, _ := c.WindowWeights()
	return Split(reward, c.cfg.FeePercent, weights)
}

// Split is the payout rule itself, shared with the standalone pool's
// per-round settle: floor(reward × (100−feePercent)% × weight ⁄ Σ weights)
// to each weight in the order given, nothing when they sum to zero. The
// product is taken in 128 bits — an atomic-unit block reward times a
// vardiff-scale weight does not fit in 64.
func Split(reward uint64, feePercent int, weights []TokenWeight) []Payout {
	var total uint64
	for _, w := range weights {
		total += w.Weight
	}
	if total == 0 {
		return nil
	}
	userPart := reward * uint64(100-feePercent) / 100
	out := make([]Payout, 0, len(weights))
	for _, w := range weights {
		hi, lo := bits.Mul64(userPart, w.Weight)
		amount, _ := bits.Div64(hi, lo, total) // weight ≤ total, so the quotient fits
		out = append(out, Payout{Token: w.Token, Amount: amount})
	}
	return out
}

// EntriesFrom returns up to max entries whose claimed height is ≥ from,
// in canonical order — the ranged catch-up sync primitive. The returned
// entries are the chain's own (immutable by convention).
func (c *Chain) EntriesFrom(from uint64, max int) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pos := sort.Search(len(c.entries), func(i int) bool {
		return c.entries[i].Height >= from
	})
	n := len(c.entries) - pos
	if n > max {
		n = max
	}
	if n <= 0 {
		return nil
	}
	out := make([]*Entry, n)
	copy(out, c.entries[pos:pos+n])
	return out
}

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
// No reorg orphans an entry — every valid share stays in the sequence —
// which is what makes "zero lost credit" a structural property rather
// than an accounting promise.
//
// The sequence is not all held in memory. Behind a finality horizon the
// oldest entries fold, foldChunk at a time, into a base Checkpoint that
// keeps their count, the rolling tip after them and their per-account
// credit, so a chain holds at most Window + reorgDepth + foldChunk
// entries however long it grows. The fold is a function of the entry
// count alone, so while every entry reaches every node within reorgDepth
// entries of its slot, the tip, credit, window and payouts stay pure
// functions of the delivered set; an arrival that sorts into the folded
// history is refused (ErrBelowHorizon) and counted. DESIGN.md "Finality
// horizon" has the argument.
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

// defaultWindow is the PPLNS window size in entries: payouts are split
// over the last N shares of the canonical chain, difficulty-weighted.
const defaultWindow = 2048

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

// The finality horizon. A chain holds its newest Window + reorgDepth
// entries and folds the oldest foldChunk into its base each time it holds
// foldChunk more than that. reorgDepth is how late, in entries, an entry
// may reach a node and still be placed: 8× the worst honest gossip delay
// seen at 10k entries/s. foldChunk is a multiple of tipStride, so the
// rolling-hash marks re-base by whole slots.
const (
	reorgDepth = 8192
	foldChunk  = 4096
)

// Validation errors.
var (
	ErrDuplicate  = errors.New("sharechain: entry already in chain")
	errBadEntry   = errors.New("sharechain: structurally invalid entry")
	errHeightSkew = errors.New("sharechain: claimed height too far ahead of tip")
	ErrBadPoW     = errors.New("sharechain: proof of work does not verify")
	errUnverified = errors.New("sharechain: no verifier configured for remote entries")
	// ErrBelowHorizon refuses an entry that sorts into history the chain
	// has already folded into its base.
	ErrBelowHorizon = errors.New("sharechain: entry sorts below the finality horizon")
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

// Verifier checks the proofs of work of a batch of entries, writing entry
// i's verdict (nil: it verifies) to verdicts[i]. It takes the batch two
// at a time, so a paired hash can check both entries of each pair; the
// pool injects one backed by its pooled CryptoNight hashers. A nil
// verifier makes admission of unverified (remote) entries an error, never
// a silent admission.
type Verifier func(batch []*Entry, verdicts []error)

// Config parameterises a Chain.
type Config struct {
	// Window is the PPLNS window size in entries (defaultWindow if 0).
	Window int
	// Verify validates the PoW of unverified entries (gossiped-in
	// shares). Locally-accepted shares were already verified by the pool
	// and skip it.
	Verify Verifier
	// Metrics receives pool.sharechain_* instruments (nil: private).
	Metrics *metrics.Registry
}

// TokenWeight is one account's difficulty-weighted credit — inside the
// PPLNS window, or folded into a Checkpoint — in sorted-token order.
type TokenWeight struct {
	Token  string
	Weight uint64
}

// Payout is one account's cut of a reward, in sorted-token order.
type Payout struct {
	Token  string
	Amount uint64
}

// Checkpoint is the history a chain has folded below its finality
// horizon: enough to continue the rolling tip and the all-time credit
// without holding a single folded entry.
type Checkpoint struct {
	Count  uint64        // entries folded
	Height uint64        // claimed height of the last folded entry
	ID     [32]byte      // ID of the last folded entry
	Tip    [32]byte      // rolling tip hash after the last folded entry
	Credit []TokenWeight // all-time credit of the folded entries, sorted by token
}

// Chain is the share-chain: a canonically-ordered entry set with rolling
// tip hashes, all-time credit and incrementally-maintained PPLNS window
// aggregates. All methods are safe for concurrent use.
type Chain struct {
	cfg Config

	mu      sync.RWMutex
	base    Checkpoint          // folded history; Credit stays nil (account.folded holds it)
	entries []*Entry            // held entries after base, canonical order, IDs cached; also the dedupe index
	tip     [32]byte            // rolling hash through base and entries: tip(i) = SHA-256(tip(i-1) || ID(entry i))
	marks   [][32]byte          // marks[k] = tip after entries[tipStride·(k+1) − 1]: where a reorg's rebuild restarts
	credit  map[string]*account // all-time difficulty-weighted credit per token
	window  map[string]uint64   // credit inside the PPLNS window
	winTot  uint64              // total window weight

	// The horizon's sizes: the constants, except in tests that shrink them.
	reorgDepth, foldChunk int

	height       *metrics.Gauge
	reorgs       *metrics.Counter
	belowHorizon *metrics.Counter
	lateDups     *metrics.Counter
	paired       *metrics.Counter
}

// account is one token's all-time credit, and the chain's one copy of the
// token string: every entry of the account is re-pointed at it on insert,
// so a gossiped entry does not keep the string it was decoded with.
type account struct {
	token  string
	credit uint64 // all-time, folded entries included
	folded uint64 // the part of credit the base holds
}

// New builds an empty chain.
func New(cfg Config) *Chain {
	if cfg.Window <= 0 {
		cfg.Window = defaultWindow
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Chain{
		cfg:          cfg,
		credit:       map[string]*account{},
		window:       map[string]uint64{},
		reorgDepth:   reorgDepth,
		foldChunk:    foldChunk,
		height:       cfg.Metrics.Gauge("pool.sharechain_height"),
		reorgs:       cfg.Metrics.Counter("pool.sharechain_reorgs"),
		belowHorizon: cfg.Metrics.Counter("pool.sharechain_below_horizon"),
		lateDups:     cfg.Metrics.Counter("pool.sharechain_late_duplicates"),
		paired:       cfg.Metrics.Counter("pool.sharechain_paired_verifies"),
	}
}

// Len returns the number of entries in the chain, folded ones included.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int(c.base.Count) + len(c.entries)
}

// Tip returns the rolling tip hash and the entry count it covers. Two
// chains with equal tips hold identical entry sequences — the hash folds
// every ID in canonical order, through the base, so it is the
// convergence check.
func (c *Chain) Tip() ([32]byte, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tip, int(c.base.Count) + len(c.entries)
}

// TipHeight returns the highest claimed height in the chain (0 when
// empty). Because entries are height-ordered, it is the last entry's.
func (c *Chain) TipHeight() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tipHeightLocked()
}

func (c *Chain) tipHeightLocked() uint64 {
	if n := len(c.entries); n > 0 {
		return c.entries[n-1].Height
	}
	return c.base.Height
}

// NextHeight is the claimed height a locally-minted entry should carry:
// the current tip height plus one.
func (c *Chain) NextHeight() uint64 { return c.TipHeight() + 1 }

// searchLocked returns e's canonical position — the first entry not
// before it — and whether that entry is e itself. The sorted slice is the
// dedupe index: equal (height, ID) means equal entry.
func (c *Chain) searchLocked(e *Entry) (pos int, found bool) {
	e.ID() // before compares cached IDs; the chain's entries have theirs
	pos = sort.Search(len(c.entries), func(i int) bool { return !c.entries[i].before(e) })
	return pos, pos < len(c.entries) && !e.before(c.entries[pos])
}

// foldedLocked reports whether e (ID cached) sorts at or below the base's
// last entry, inside the history the chain has folded away.
func (c *Chain) foldedLocked(e *Entry) bool {
	if c.base.Count == 0 {
		return false
	}
	if e.Height != c.base.Height {
		return e.Height < c.base.Height
	}
	return bytes.Compare(e.id[:], c.base.ID[:]) <= 0
}

// placeLocked returns e's canonical position, or why the chain as it
// stands cannot take e.
func (c *Chain) placeLocked(e *Entry) (int, error) {
	pos, dup := c.searchLocked(e)
	switch {
	case dup:
		return pos, ErrDuplicate
	case c.foldedLocked(e):
		return pos, ErrBelowHorizon
	case e.Height > c.tipHeightLocked()+DefaultMaxHeightSkew:
		return pos, errHeightSkew
	}
	return pos, nil
}

// validate applies the structural checks shared by both insert paths.
func (c *Chain) validate(e *Entry) error {
	if e.Diff == 0 || e.Height == 0 || len(e.Token) == 0 ||
		len(e.Token) > MaxTokenLen || len(e.Blob) == 0 || len(e.Blob) > DefaultMaxBlobBytes {
		return errBadEntry
	}
	return nil
}

// Insert adds an entry to the chain. verified marks entries whose PoW the
// caller already checked (the local pool's accepted shares); an
// unverified entry (gossip, sync) is a batch of one for InsertUnverified.
//
// Returns whether the insertion displaced existing order (a reorg): the
// entry's canonical position preceded existing entries, so the rolling
// hashes after it were rebuilt. An entry that sorts into the folded
// history is refused with ErrBelowHorizon and counted; nothing else
// changes.
func (c *Chain) Insert(e *Entry, verified bool) (reorged bool, err error) {
	if !verified {
		c.InsertUnverified([]*Entry{e}, func(_ *Entry, r bool, er error) { reorged, err = r, er })
		return reorged, err
	}
	if err := c.validate(e); err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(e, true)
}

// InsertUnverified is the one admission path for entries whose PoW is not
// yet checked. Each entry is checked against the chain under the read
// lock; the survivors go to Config.Verify in one call, outside any lock,
// so verification of concurrent gossip parallelises like the pool's
// submit path, and a batch of two is one paired hash; each verified entry
// is then inserted under the write lock, re-checked there as Insert
// checks. done is called once per entry, in batch order, after the whole
// batch is placed and outside the lock, with what Insert would have
// returned for it.
func (c *Chain) InsertUnverified(batch []*Entry, done func(e *Entry, reorged bool, err error)) {
	errs := make([]error, len(batch))
	reorged := make([]bool, len(batch))
	survivors := make([]*Entry, 0, len(batch))
	c.mu.RLock()
	for i, e := range batch {
		if errs[i] = c.validate(e); errs[i] == nil {
			_, errs[i] = c.placeLocked(e)
		}
		switch errs[i] {
		case nil:
			survivors = append(survivors, e)
		case ErrBelowHorizon:
			c.belowHorizon.Inc()
		}
	}
	c.mu.RUnlock()

	if len(survivors) > 0 {
		verdicts := make([]error, len(survivors))
		if c.cfg.Verify == nil {
			for j := range verdicts {
				verdicts[j] = errUnverified
			}
		} else {
			c.cfg.Verify(survivors, verdicts)
			c.paired.Add(uint64(len(survivors) &^ 1))
		}
		j := 0
		for i := range batch {
			if errs[i] == nil {
				errs[i] = verdicts[j]
				j++
			}
		}
		c.mu.Lock()
		for i, e := range batch {
			if errs[i] == nil {
				reorged[i], errs[i] = c.insertLocked(e, false)
			}
		}
		c.mu.Unlock()
	}
	for i, e := range batch {
		done(e, reorged[i], errs[i])
	}
}

// insertLocked places one entry, structurally valid and (unless verified)
// already through the verifier, in the chain as it stands now: the check
// before the verify ran against a snapshot. A duplicate found only here
// raced another reader and lost after paying for a full verify.
func (c *Chain) insertLocked(e *Entry, verified bool) (reorged bool, err error) {
	var pos int
	switch pos, err = c.placeLocked(e); {
	case err == ErrBelowHorizon:
		c.belowHorizon.Inc()
	case err == ErrDuplicate && !verified:
		c.lateDups.Inc()
	}
	if err != nil {
		return false, err
	}
	c.entries = append(c.entries, nil)
	copy(c.entries[pos+1:], c.entries[pos:])
	c.entries[pos] = e
	acct := c.accountLocked(e.Token)
	e.Token = acct.token
	acct.credit += e.Diff

	reorged = pos != len(c.entries)-1
	c.rebuildTipsLocked(pos)
	if reorged {
		c.reorgs.Inc()
	}
	c.slideWindowLocked(pos)
	c.foldLocked()
	c.height.Set(int64(c.tipHeightLocked()))
	return reorged, nil
}

// tipStride is the spacing of the rolling-hash marks. A hash per held
// position would be a fifth of what the chain holds; one per 64 costs a
// reorg at most 63 extra hashes.
const tipStride = 64

// rebuildTipsLocked recomputes the rolling hash after an insert at pos. An
// append extends the old tip by one hash; a reorg restarts from the last
// checkpoint before pos and re-marks every checkpoint from there on.
func (c *Chain) rebuildTipsLocked(pos int) {
	start, prev := pos, c.tip
	if pos < len(c.entries)-1 {
		start = pos &^ (tipStride - 1)
		prev = c.base.Tip
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

// foldLocked folds the oldest foldChunk held entries into the base while
// the chain holds at least foldChunk more than Window + reorgDepth. The
// folded entries lie before the window's head, so the window is untouched;
// their credit moves to each account's folded part and the rolling tip
// after them is the mark that closes their last slot.
func (c *Chain) foldLocked() {
	for f := c.foldChunk; len(c.entries) >= c.cfg.Window+c.reorgDepth+f; {
		for _, e := range c.entries[:f] {
			c.credit[e.Token].folded += e.Diff
		}
		last := c.entries[f-1]
		c.base.Count += uint64(f)
		c.base.Height, c.base.ID = last.Height, last.id
		c.base.Tip = c.marks[f/tipStride-1]
		c.marks = c.marks[:copy(c.marks, c.marks[f/tipStride:])]
		c.dropHeldLocked(f)
	}
}

// dropHeldLocked forgets the first n held entries. It copies the rest
// down rather than reslicing, so the backing array stops pointing at the
// dropped entries and its capacity stays put.
func (c *Chain) dropHeldLocked(n int) {
	kept := copy(c.entries, c.entries[n:])
	clear(c.entries[kept:])
	c.entries = c.entries[:kept]
}

// Checkpoint returns the history the chain has folded below its horizon,
// and false while nothing has folded. A peer that has fallen behind the
// horizon adopts it (Adopt) before taking the held range.
func (c *Chain) Checkpoint() (Checkpoint, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.base.Count == 0 {
		return Checkpoint{}, false
	}
	cp := c.base
	for t, a := range c.credit {
		if a.folded > 0 {
			cp.Credit = append(cp.Credit, TokenWeight{Token: t, Weight: a.folded})
		}
	}
	sort.Slice(cp.Credit, func(i, j int) bool { return cp.Credit[i].Token < cp.Credit[j].Token })
	return cp, true
}

// Adopt makes cp the chain's base if it lies ahead of the current one
// (folds more entries) and reports whether it did. Held entries at or
// below cp's last entry are dropped; when the chain held more of them
// than cp folded, at least the difference were not part of cp, and that
// many are counted below the horizon. Credit, rolling tips and window are
// rebuilt from cp and the entries still held. Nothing in cp can be
// checked: it is taken on the word of the peer that sent it (DESIGN.md
// "Finality horizon", the trust assumption).
func (c *Chain) Adopt(cp Checkpoint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp.Count <= c.base.Count {
		return false
	}
	last := Entry{Height: cp.Height, id: cp.ID}
	below := sort.Search(len(c.entries), func(i int) bool { return last.before(c.entries[i]) })
	if had := c.base.Count + uint64(below); had > cp.Count {
		c.belowHorizon.Add(had - cp.Count)
	}
	c.dropHeldLocked(below)
	c.base = Checkpoint{Count: cp.Count, Height: cp.Height, ID: cp.ID, Tip: cp.Tip}

	// Held entries keep their token strings: a sync reader may be encoding
	// them outside the lock.
	c.credit = make(map[string]*account, len(cp.Credit))
	for _, w := range cp.Credit {
		acct := c.accountLocked(w.Token)
		acct.folded += w.Weight
		acct.credit += w.Weight
	}
	c.window, c.winTot = map[string]uint64{}, 0
	head := len(c.entries) - c.cfg.Window
	for i, e := range c.entries {
		c.accountLocked(e.Token).credit += e.Diff
		if i >= head {
			c.window[e.Token] += e.Diff
			c.winTot += e.Diff
		}
	}
	c.tip = cp.Tip
	c.rebuildTipsLocked(0)
	c.foldLocked()
	c.height.Set(int64(c.tipHeightLocked()))
	return true
}

// accountLocked returns token's account, creating it on first use.
func (c *Chain) accountLocked(token string) *account {
	acct := c.credit[token]
	if acct == nil {
		acct = &account{token: token}
		c.credit[token] = acct
	}
	return acct
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

// PayoutVector splits a block reward across the current PPLNS window by
// Split: each account receives its weight's share of the user part, in
// sorted-token order; rounding dust stays with the pool. It is a pure
// function of the window, so converged nodes produce identical vectors.
func (c *Chain) PayoutVector(reward uint64) []Payout {
	weights, _ := c.WindowWeights()
	return Split(reward, weights)
}

// poolFeePercent is the pool's cut of every found block (Coinhive's 30%).
// It lives here, in the one payout rule, so a standalone pool and every
// node of a federation cannot disagree on it.
const poolFeePercent = 30

// Split is the payout rule itself, shared with the standalone pool's
// per-round settle: floor(reward × (100−poolFeePercent)% × weight ⁄ Σ weights)
// to each weight in the order given, nothing when they sum to zero. The
// product is taken in 128 bits — an atomic-unit block reward times a
// vardiff-scale weight does not fit in 64.
func Split(reward uint64, weights []TokenWeight) []Payout {
	var total uint64
	for _, w := range weights {
		total += w.Weight
	}
	if total == 0 {
		return nil
	}
	userPart := reward * (100 - poolFeePercent) / 100
	out := make([]Payout, 0, len(weights))
	for _, w := range weights {
		hi, lo := bits.Mul64(userPart, w.Weight)
		amount, _ := bits.Div64(hi, lo, total) // weight ≤ total, so the quotient fits
		out = append(out, Payout{Token: w.Token, Amount: amount})
	}
	return out
}

// EntriesFrom returns up to max held entries whose claimed height is ≥
// from, in canonical order — the ranged catch-up sync primitive. A
// non-zero after narrows that to the entries sorting strictly after the
// one at (from, after), so a sync round resumes past its last batch even
// when the whole batch sits at one height. Folded entries are gone; a
// peer behind the horizon needs Checkpoint first. The returned entries
// are the chain's own (immutable by convention).
func (c *Chain) EntriesFrom(from uint64, after [32]byte, max int) []*Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// No entry's ID is zero, so a zero after sorts before every entry
	// at height from.
	last := Entry{Height: from, id: after}
	pos := sort.Search(len(c.entries), func(i int) bool { return last.before(c.entries[i]) })
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

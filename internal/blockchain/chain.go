package blockchain

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cryptonight"
)

// TimestampMedianWindow is the number of trailing blocks whose median
// timestamp a new block must exceed (Monero: 60).
const TimestampMedianWindow = 60

// Verification errors.
var (
	ErrBadPrev      = errors.New("blockchain: previous hash does not match tip")
	ErrBadVersion   = errors.New("blockchain: header version mismatch")
	ErrBadTimestamp = errors.New("blockchain: timestamp not above trailing median")
	ErrBadPoW       = errors.New("blockchain: proof of work below difficulty")
	ErrBadCoinbase  = errors.New("blockchain: invalid coinbase transaction")
	ErrKnownBlock   = errors.New("blockchain: block already in chain")
)

// Chain is a verifying, append-only block store. Each block's identifier
// and Merkle root are computed exactly once, at append time, and cached by
// height; every later consumer (tip polling, successor lookups, the §4.2
// watcher's root comparison) reads the cache instead of re-hashing.
type Chain struct {
	mu        sync.RWMutex
	params    Params // immutable after NewChain; readable without mu
	blocks    []*Block
	index     map[[32]byte]uint64 // block ID -> height
	ids       [][32]byte          // cached block IDs by height
	roots     [][32]byte          // cached Merkle roots by height
	cumDiff   []uint64            // cumulative difficulty
	generated uint64              // atomic units emitted so far
	tipID     [32]byte            // cached ID of blocks[len-1]
	nextDiff  uint64              // cached next-block difficulty
	tsScratch []uint64            // retarget/median scratch, reused under mu

	subMu  sync.Mutex
	subSeq int
	subs   []tipSub // copy-on-write: rebuilt on (un)subscribe, never mutated
}

// TipListener is notified after a block lands, with the new tip ID and its
// height. Listeners run synchronously on the appending goroutine, after the
// chain lock is released; they may read the chain and schedule work but
// must not block indefinitely.
type TipListener func(tip [32]byte, height uint64)

type tipSub struct {
	id int
	fn TipListener
}

// Subscribe registers a tip-change listener and returns its removal
// function. This is the event-driven alternative to polling TipID: the
// simulation watcher does work per block instead of per clock tick.
func (c *Chain) Subscribe(fn TipListener) (unsubscribe func()) {
	c.subMu.Lock()
	c.subSeq++
	id := c.subSeq
	next := make([]tipSub, 0, len(c.subs)+1)
	next = append(next, c.subs...)
	c.subs = append(next, tipSub{id: id, fn: fn})
	c.subMu.Unlock()
	return func() {
		c.subMu.Lock()
		next := make([]tipSub, 0, len(c.subs))
		for _, s := range c.subs {
			if s.id != id {
				next = append(next, s)
			}
		}
		c.subs = next
		c.subMu.Unlock()
	}
}

// notifyTip invokes listeners outside every chain lock. The subscriber
// slice is copy-on-write, so grabbing the current snapshot costs a field
// read and notifying allocates nothing per block. With concurrent appenders
// the per-listener delivery order follows append order only as closely as
// goroutine scheduling allows; the discrete-event simulation is
// single-threaded, where delivery is deterministic.
func (c *Chain) notifyTip(tip [32]byte, height uint64) {
	c.subMu.Lock()
	subs := c.subs
	c.subMu.Unlock()
	for _, s := range subs {
		s.fn(tip, height)
	}
}

// NewChain creates a chain holding only a genesis block with the given
// timestamp, paying the genesis reward to `to`.
func NewChain(p Params, genesisTimestamp uint64, to Address) (*Chain, error) {
	// Borrow-and-return validates the PoW variant up front and warms the
	// pool that append()'s out-of-lock verification draws from.
	h, err := cryptonight.GetHasher(p.PowVariant)
	if err != nil {
		return nil, err
	}
	cryptonight.PutHasher(h)
	c := &Chain{params: p, index: make(map[[32]byte]uint64)}
	g := &Block{
		Header: Header{
			MajorVersion: p.MajorVersion,
			MinorVersion: p.MinorVersion,
			Timestamp:    genesisTimestamp,
		},
		Coinbase: NewCoinbase(p.BaseReward(0), to, 0, []byte("genesis")),
	}
	root := g.MerkleRoot()
	c.blocks = append(c.blocks, g)
	c.tipID = g.ID()
	c.index[c.tipID] = 0
	c.ids = append(c.ids, c.tipID)
	c.roots = append(c.roots, root)
	c.cumDiff = append(c.cumDiff, 1)
	c.generated = g.Coinbase.Amount
	c.nextDiff = c.recomputeDifficultyLocked()
	return c, nil
}

// Params returns the consensus parameters.
func (c *Chain) Params() Params { return c.params }

// PreloadEmission sets the already-generated coin count, emulating a chain
// with history (the 2018 Monero chain had emitted ~16M XMR, which fixes the
// ~4-5 XMR block reward the paper's revenue numbers build on). It may only
// be called while the chain holds nothing but its genesis block.
func (c *Chain) PreloadEmission(alreadyGenerated uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.blocks) != 1 {
		panic("blockchain: PreloadEmission after blocks were appended")
	}
	c.generated = alreadyGenerated
}

// Height returns the tip height (genesis is height 0).
func (c *Chain) Height() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return uint64(len(c.blocks) - 1)
}

// Tip returns the most recent block.
func (c *Chain) Tip() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1]
}

// TipID returns the most recent block's identifier (cached: callers poll
// it at high frequency to detect tip changes).
func (c *Chain) TipID() [32]byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tipID
}

// Generated returns the total atomic units emitted so far.
func (c *Chain) Generated() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.generated
}

// BlockByHeight returns the block at height h, or nil.
func (c *Chain) BlockByHeight(h uint64) *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if h >= uint64(len(c.blocks)) {
		return nil
	}
	return c.blocks[h]
}

// BlockByID returns the block with the given identifier and its height.
func (c *Chain) BlockByID(id [32]byte) (*Block, uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.index[id]
	if !ok {
		return nil, 0, false
	}
	return c.blocks[h], h, true
}

// SuccessorOf returns the block mined directly on top of the block with the
// given identifier. This is the §4.2 primitive: given the prev-pointer from
// a pool's PoW input, fetch the block that actually extended it.
func (c *Chain) SuccessorOf(id [32]byte) (*Block, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.index[id]
	if !ok || h+1 >= uint64(len(c.blocks)) {
		return nil, false
	}
	return c.blocks[h+1], true
}

// SuccessorInfo is the append-time-cached summary of the block mined on top
// of a given block: everything the §4.2 attribution sweep needs, with no
// hashing.
type SuccessorInfo struct {
	Height    uint64
	Timestamp uint64
	Reward    uint64
	ID        [32]byte
	Root      [32]byte
}

// SuccessorInfoOf is SuccessorOf without the re-hashing: the successor's ID
// and Merkle root come from the chain's append-time cache.
func (c *Chain) SuccessorInfoOf(id [32]byte) (SuccessorInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.index[id]
	if !ok || h+1 >= uint64(len(c.blocks)) {
		return SuccessorInfo{}, false
	}
	succ := c.blocks[h+1]
	return SuccessorInfo{
		Height:    h + 1,
		Timestamp: succ.Timestamp,
		Reward:    succ.Coinbase.Amount,
		ID:        c.ids[h+1],
		Root:      c.roots[h+1],
	}, true
}

// NextDifficulty returns the difficulty required of the next block. The
// value only changes when a block lands, so it is computed once per append
// and served from cache here — callers on the share-verification hot path
// (one NextDifficulty per submitted share) pay a field read, not an
// O(window) retarget.
func (c *Chain) NextDifficulty() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nextDiff
}

// recomputeDifficultyLocked runs the windowed retarget over scratch buffers.
// The caller holds the write lock.
func (c *Chain) recomputeDifficultyLocked() uint64 {
	// Only the trailing retarget window matters; materialising every
	// timestamp since genesis would make each call O(chain length).
	n := len(c.blocks)
	start := 0
	if n > c.params.DifficultyWindow {
		start = n - c.params.DifficultyWindow
	}
	ts := c.timestampScratchLocked(n - start)
	for i := start; i < n; i++ {
		ts[i-start] = c.blocks[i].Timestamp
	}
	return nextDifficulty(ts, c.cumDiff[start:], uint64(c.params.TargetBlockTime.Seconds()),
		c.params.DifficultyWindow, c.params.DifficultyCut, c.params.MinDifficulty)
}

// timestampScratchLocked returns an n-length reusable uint64 buffer.
func (c *Chain) timestampScratchLocked(n int) []uint64 {
	if cap(c.tsScratch) < n {
		c.tsScratch = make([]uint64, 0, n+n/2)
	}
	return c.tsScratch[:n]
}

// BaseReward returns the reward the next block's coinbase must claim.
func (c *Chain) BaseReward() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.params.BaseReward(c.generated)
}

// NewTemplate assembles an unmined block on top of the current tip. The
// caller (a pool or solo miner) supplies the timestamp, payee, tx_extra and
// the mempool transaction hashes to include.
func (c *Chain) NewTemplate(timestamp uint64, to Address, extra []byte, txHashes [][32]byte) *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	height := uint64(len(c.blocks))
	return &Block{
		Header: Header{
			MajorVersion: c.params.MajorVersion,
			MinorVersion: c.params.MinorVersion,
			Timestamp:    timestamp,
			PrevHash:     c.tipID, // cached — recomputing tip.ID() costs three Keccaks per template
		},
		Coinbase: NewCoinbase(c.params.BaseReward(c.generated), to, height+60, extra),
		TxHashes: append([][32]byte(nil), txHashes...),
	}
}

// medianTimestampLocked returns the median of the trailing
// TimestampMedianWindow block timestamps. The caller holds the write lock.
func (c *Chain) medianTimestampLocked() uint64 {
	n := len(c.blocks)
	w := TimestampMedianWindow
	if n < w {
		w = n
	}
	ts := c.timestampScratchLocked(w)
	for i := 0; i < w; i++ {
		ts[i] = c.blocks[n-w+i].Timestamp
	}
	slices.Sort(ts)
	return ts[len(ts)/2]
}

// Append verifies b against consensus rules and extends the chain.
func (c *Chain) Append(b *Block) error {
	tip, height, err := c.append(b, true)
	if err != nil {
		return err
	}
	c.notifyTip(tip, height)
	return nil
}

// AppendUnchecked extends the chain without PoW verification. The
// discrete-event network simulator uses this for background miners whose
// blocks are sampled from the difficulty-implied arrival process rather
// than hashed (hashing half a million simulated strangers' blocks would
// dominate runtime without changing any measured quantity).
func (c *Chain) AppendUnchecked(b *Block) error {
	tip, height, err := c.append(b, false)
	if err != nil {
		return err
	}
	c.notifyTip(tip, height)
	return nil
}

// blobScratch pools hashing-blob buffers so append() can serialise blocks
// without holding any lock and without allocating at steady state.
var blobScratch = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 512)
	return &b
}}

// append validates and links b. The block's Merkle root, ID and (when
// verifying) PoW hash depend only on the block's own bytes, so they are
// computed before c.mu is taken: a CryptoNight scratchpad walk costs
// hundreds of microseconds, and holding the chain lock for it would stall
// every template build and tip read behind one block's verification — the
// same verify-outside-the-lock rule the pool applies to shares. The
// chain-state checks (prev, dup, timestamp median, reward, difficulty)
// run against the then-current tip under the write lock.
func (c *Chain) append(b *Block, verifyPoW bool) (tip [32]byte, height uint64, err error) {
	if verifyPoW && (b.MajorVersion != c.params.MajorVersion || b.MinorVersion != c.params.MinorVersion) {
		return tip, 0, ErrBadVersion
	}
	// Fail fast on a stale parent before paying for serialisation and
	// hashing; the authoritative check re-runs under the write lock.
	c.mu.RLock()
	tipNow := c.tipID
	c.mu.RUnlock()
	if b.PrevHash != tipNow {
		return tip, 0, ErrBadPrev
	}

	root := b.MerkleRoot()
	bufp := blobScratch.Get().(*[]byte)
	blob := b.appendBlobWithRoot((*bufp)[:0], root)
	id := IDFromBlob(blob)
	var pow [32]byte
	if verifyPoW {
		pow = cryptonight.Sum(blob, c.params.PowVariant)
	}
	*bufp = blob
	blobScratch.Put(bufp)

	c.mu.Lock()
	defer c.mu.Unlock()
	if b.PrevHash != c.tipID {
		return tip, 0, ErrBadPrev
	}
	if _, dup := c.index[id]; dup {
		return tip, 0, ErrKnownBlock
	}
	if verifyPoW {
		if len(c.blocks) > 1 && b.Timestamp <= c.medianTimestampLocked() {
			return tip, 0, ErrBadTimestamp
		}
		if !b.Coinbase.Coinbase {
			return tip, 0, fmt.Errorf("%w: first transaction not a coinbase", ErrBadCoinbase)
		}
		// Simulated mempool transactions are fee-less, so the coinbase must
		// claim exactly the emission-curve reward (the paper likewise sums
		// block rewards when computing Coinhive's XMR turnover).
		if want := c.params.BaseReward(c.generated); b.Coinbase.Amount != want {
			return tip, 0, fmt.Errorf("%w: claims %d, want %d", ErrBadCoinbase, b.Coinbase.Amount, want)
		}
	}
	diff := c.nextDiff
	if verifyPoW {
		if !cryptonight.CheckDifficulty(pow, diff) {
			return tip, 0, fmt.Errorf("%w (difficulty %d)", ErrBadPoW, diff)
		}
	}

	height = uint64(len(c.blocks))
	c.blocks = append(c.blocks, b)
	c.tipID = id
	c.index[id] = height
	c.ids = append(c.ids, id)
	c.roots = append(c.roots, root)
	c.cumDiff = append(c.cumDiff, c.cumDiff[len(c.cumDiff)-1]+diff)
	c.generated += b.Coinbase.Amount
	c.nextDiff = c.recomputeDifficultyLocked()
	return id, height, nil
}

// Blocks returns blocks in the half-open height interval [from, to).
func (c *Chain) Blocks(from, to uint64) []*Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if to > uint64(len(c.blocks)) {
		to = uint64(len(c.blocks))
	}
	if from >= to {
		return nil
	}
	out := make([]*Block, to-from)
	copy(out, c.blocks[from:to])
	return out
}

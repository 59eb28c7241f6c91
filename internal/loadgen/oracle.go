package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cryptonight"
	"repro/internal/session"
)

// Oracle pre-grinds valid nonces per distinct PoW input and replays them
// to every session holding that input. This is the trick that makes
// thousand-session swarms possible on one CPU: the pool hands out at
// most backends×slots distinct blobs per chain tip (the paper's "at most
// 128 different PoW inputs per block"), so the swarm pays the
// CryptoNight cost once per (input, sequence) — every session after the
// first pays only protocol cost.
//
// Solutions are sequence-indexed: SolveSeq(job, k) is the k-th distinct
// nonce for the input, ground lazily by continuing the nonce search past
// the previous solution. Honest sessions advance their own per-input
// sequence on every credited share, so no session ever resubmits a
// (job, nonce) pair the pool's duplicate memo has already seen — replaying
// one nonce is now exclusively the dup-submit attacker's job. Sessions on
// different accounts may share a sequence slot: the pool's memo is
// per-account, exactly like the real service's (absent) cross-account
// defense.
type Oracle struct {
	variant   cryptonight.Variant
	maxHashes int

	mu      sync.Mutex
	entries map[string]*oracleEntry
	useSeq  uint64 // LRU clock for eviction, under mu
	grinds  atomic.Uint64
}

// oracleMaxEntries bounds the grind table. Distinct PoW inputs are
// bounded by tips seen × backends × slots during a run; without a cap a
// long scale run under 1Hz tip refreshes grows the table forever. The
// grind is deterministic from nonce 0, so evicting a still-referenced
// input is safe — a session that comes back to it just pays the
// re-grind, it never changes which (nonce, result) a sequence maps to.
const oracleMaxEntries = 1024

type oracleSolution struct {
	nonce uint32
	sum   [32]byte
}

type oracleEntry struct {
	lastUse uint64 // LRU stamp, under Oracle.mu

	mu   sync.Mutex
	sols []oracleSolution
	next uint32 // nonce the next grind resumes from
	err  error
}

// NewOracle builds an oracle for the given PoW profile. maxHashes bounds
// the grind per solution (0 means 1<<16); at the low share difficulties a
// load target runs with, the expected cost is a handful of hashes.
func NewOracle(v cryptonight.Variant, maxHashes int) *Oracle {
	if maxHashes <= 0 {
		maxHashes = 1 << 16
	}
	return &Oracle{variant: v, maxHashes: maxHashes, entries: map[string]*oracleEntry{}}
}

// SolveSeq returns the seq-th distinct nonce/result pair meeting the
// job's share target, grinding forward lazily on first demand. The grind
// itself runs outside the entry lock (CryptoNight under a mutex would
// serialise every worker behind one hash); two workers racing to extend
// the same entry may duplicate a grind, and the loser's work is simply
// discarded — rare, bounded, and cheaper than holding the lock.
func (o *Oracle) SolveSeq(job session.Job, seq int) (uint32, [32]byte, error) {
	// The wire strings identify the PoW input independent of the
	// refresh-scoped job ID, so re-issued jobs for the same template hit
	// the cache.
	key := job.WireBlob + "|" + job.WireTarget
	o.mu.Lock()
	e, ok := o.entries[key]
	if !ok {
		if len(o.entries) >= oracleMaxEntries {
			o.evictOldestLocked()
		}
		e = &oracleEntry{}
		o.entries[key] = e
	}
	o.useSeq++
	e.lastUse = o.useSeq
	o.mu.Unlock()

	for {
		e.mu.Lock()
		if e.err != nil {
			err := e.err
			e.mu.Unlock()
			return 0, [32]byte{}, err
		}
		if seq < len(e.sols) {
			s := e.sols[seq]
			e.mu.Unlock()
			return s.nonce, s.sum, nil
		}
		start := e.next
		e.mu.Unlock()

		nonce, sum, err := o.grind(job, start)

		e.mu.Lock()
		if start == e.next { // we extend; a racing loser re-reads instead
			if err != nil {
				e.err = err
			} else {
				e.sols = append(e.sols, oracleSolution{nonce: nonce, sum: sum})
				e.next = nonce + 1
				o.grinds.Add(1)
			}
		}
		e.mu.Unlock()
	}
}

func (o *Oracle) grind(job session.Job, start uint32) (uint32, [32]byte, error) {
	h, err := cryptonight.GetHasher(o.variant)
	if err != nil {
		return 0, [32]byte{}, err
	}
	defer cryptonight.PutHasher(h)
	nonce, sum, _, found := h.Grind(job.Blob, job.NonceOffset, job.Target, start, o.maxHashes)
	if !found {
		return 0, [32]byte{}, fmt.Errorf("loadgen: no share within %d hashes from nonce %d for target %08x (share difficulty too high for load generation)",
			o.maxHashes, start, job.Target)
	}
	return nonce, sum, nil
}

// evictOldestLocked drops the least-recently-used entry. The scan is
// O(entries), paid only on an insert into a full table — once per
// distinct PoW input past the cap, never per share.
func (o *Oracle) evictOldestLocked() {
	var oldestKey string
	var oldest uint64
	first := true
	for k, e := range o.entries {
		if first || e.lastUse < oldest {
			first = false
			oldestKey, oldest = k, e.lastUse
		}
	}
	delete(o.entries, oldestKey)
}

// Grinds reports how many solutions were actually ground (cache misses).
func (o *Oracle) Grinds() uint64 { return o.grinds.Load() }

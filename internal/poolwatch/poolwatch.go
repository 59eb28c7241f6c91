// Package poolwatch implements the paper's §4.2 methodology for associating
// blocks in a privacy-preserving blockchain with a mining pool:
//
//  1. connect to every pool endpoint and keep requesting fresh PoW inputs,
//  2. revert the pool's blob obfuscation and parse each input,
//  3. cluster the inputs by their previous-block pointer,
//  4. for every block later mined on top of that pointer, compare its
//     transaction Merkle root against the clustered inputs' roots — a match
//     proves the block was assembled by the observed pool, because the
//     root commits to the pool's own coinbase transaction ("we could never
//     by accident see a Merkle tree root of another miner").
//
// The result is a lower bound on the pool's mined blocks, from which hash
// rate share and revenue follow.
package poolwatch

import (
	"sync"
	"time"

	"repro/internal/blockchain"
	"repro/internal/simclock"
	"repro/internal/stratum"
)

// JobSource yields PoW inputs for an endpoint/slot, with ok=false when the
// service is unreachable.
type JobSource interface {
	PollJob(endpoint, slot int) (stratum.Job, bool)
}

// AttributedBlock is a chain block proven to originate from the pool.
type AttributedBlock struct {
	height    uint64
	Timestamp uint64
	Reward    uint64
}

// Config parameterises a Watcher.
type Config struct {
	Source JobSource
	Chain  *blockchain.Chain
	// Endpoints is how many endpoints to poll (paper: all 32).
	Endpoints int
	// SlotsPerEndpoint is how many rotating inputs each endpoint reveals
	// per block interval (paper: "we never obtain more than 8").
	SlotsPerEndpoint int
}

// maxPendingClusters bounds memory for prev-pointers awaiting a successor
// block: past it, the oldest cluster is dropped unswept.
const maxPendingClusters = 64

// Watcher accumulates PoW inputs and attributes mined blocks.
type Watcher struct {
	cfg Config

	mu         sync.Mutex
	clusters   map[[32]byte]*cluster // keyed by prev-block pointer
	order      [][32]byte            // cluster insertion order, for pruning
	attributed []AttributedBlock
	polls      int
	pollFails  int
	maxPerPrev int    // most distinct inputs observed for one prev pointer
	blobBuf    []byte // wire-blob decode scratch, reused under mu
}

type cluster struct {
	roots map[[32]byte]bool
}

// New builds a Watcher.
func New(cfg Config) *Watcher {
	if cfg.Endpoints == 0 {
		cfg.Endpoints = 32
	}
	if cfg.SlotsPerEndpoint == 0 {
		cfg.SlotsPerEndpoint = 8
	}
	return &Watcher{cfg: cfg, clusters: map[[32]byte]*cluster{}}
}

// pollOnce requests a single PoW input (the 500 ms unit of the paper's
// loop) and records it.
func (w *Watcher) pollOnce(endpoint, slot int) {
	job, ok := w.cfg.Source.PollJob(endpoint, slot)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.polls++
	if !ok {
		w.pollFails++
		return
	}
	w.recordLocked(job)
}

// PollAllEndpoints polls every endpoint across every slot — the coverage
// the paper reaches by polling each endpoint for a whole block interval.
func (w *Watcher) PollAllEndpoints() {
	for ep := 0; ep < w.cfg.Endpoints; ep++ {
		for s := 0; s < w.cfg.SlotsPerEndpoint; s++ {
			w.pollOnce(ep, s)
		}
	}
}

// recordLocked parses an obfuscated job and clusters it by prev pointer.
// Decoding runs through a reusable scratch buffer — parsing a blob is a hex
// decode plus a few varint reads, cheaper than the blob-string memo table
// it replaces, and allocation-free.
func (w *Watcher) recordLocked(job stratum.Job) {
	blob, err := stratum.AppendDecodedBlob(w.blobBuf[:0], job.Blob)
	if blob != nil {
		w.blobBuf = blob // keep the (possibly grown) scratch
	}
	if err != nil {
		return
	}
	stratum.ObfuscateBlob(blob) // revert, as the official miner does
	hdr, root, _, err := blockchain.ParseHashingBlob(blob)
	if err != nil {
		return
	}
	c, ok := w.clusters[hdr.PrevHash]
	if !ok {
		c = &cluster{roots: map[[32]byte]bool{}}
		w.clusters[hdr.PrevHash] = c
		w.order = append(w.order, hdr.PrevHash)
		w.pruneLocked()
	}
	c.roots[root] = true
	if len(c.roots) > w.maxPerPrev {
		w.maxPerPrev = len(c.roots)
	}
}

func (w *Watcher) pruneLocked() {
	for len(w.order) > maxPendingClusters {
		old := w.order[0]
		w.order = w.order[1:]
		delete(w.clusters, old)
	}
}

// Sweep attributes blocks: for every cluster whose prev pointer now has a
// successor on chain, the successor's Merkle root is checked against the
// recorded inputs. Matched or not, resolved clusters are dropped (their
// question has been answered). The successor's root and ID come from the
// chain's append-time cache, so a sweep performs no hashing.
func (w *Watcher) Sweep() {
	w.mu.Lock()
	defer w.mu.Unlock()
	remaining := w.order[:0]
	for _, prev := range w.order {
		succ, ok := w.cfg.Chain.SuccessorInfoOf(prev)
		if !ok {
			remaining = append(remaining, prev)
			continue
		}
		c := w.clusters[prev]
		if c.roots[succ.Root] {
			w.attributed = append(w.attributed, AttributedBlock{
				height:    succ.Height,
				Timestamp: succ.Timestamp,
				Reward:    succ.Reward,
			})
		}
		delete(w.clusters, prev)
	}
	w.order = remaining
}

// Run schedules the watcher on a simulation clock: a full endpoint sweep
// whenever the tip changes (checked at checkInterval granularity) plus a
// Sweep pass. It returns a cancel function.
//
// The observable behaviour is that of the historical fixed-tick loop — the
// tip is inspected at multiples of checkInterval from the moment Run is
// called, so attribution output for a fixed seed is bit-identical — but the
// implementation is event-driven: a chain-tip subscription schedules one
// poll event at the next tick boundary after a block lands. A 28-day
// campaign therefore does work proportional to blocks and jobs, not clock
// ticks (≈20k events instead of 1.2M at a 2s tick).
func (w *Watcher) Run(sim *simclock.Sim, checkInterval time.Duration) (cancel func()) {
	t0 := sim.Now()
	var (
		mu      sync.Mutex
		stopped bool
		pending bool // a poll event is already scheduled
		lastTip [32]byte
	)
	poll := func() {
		mu.Lock()
		pending = false
		dead := stopped
		mu.Unlock()
		if dead {
			return
		}
		tip := w.cfg.Chain.TipID()
		mu.Lock()
		changed := tip != lastTip
		lastTip = tip
		mu.Unlock()
		if changed {
			w.PollAllEndpoints()
			w.Sweep()
		}
	}
	schedule := func() {
		mu.Lock()
		if stopped || pending {
			mu.Unlock()
			return
		}
		pending = true
		mu.Unlock()
		// The strictly-next boundary on the t0 + k·checkInterval grid. For a
		// block landing exactly ON a grid point the historical loop's
		// behaviour depended on event seq ordering; block times carry
		// nanosecond jitter (simnet adds +1ns), so that collision has
		// measure zero and strictly-next is an arbitrary tie-break.
		now := sim.Now()
		k := now.Sub(t0)/checkInterval + 1
		sim.Schedule(t0.Add(time.Duration(k)*checkInterval), poll)
	}
	unsub := w.cfg.Chain.Subscribe(func([32]byte, uint64) { schedule() })
	// The historical loop's first tick fired even without a preceding block,
	// capturing jobs for the boot-time tip; reproduce it.
	schedule()
	return func() {
		mu.Lock()
		stopped = true
		mu.Unlock()
		unsub()
	}
}

// Attributed returns the blocks proven to come from the pool, in
// attribution order.
func (w *Watcher) Attributed() []AttributedBlock {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]AttributedBlock(nil), w.attributed...)
}

// Stats summarises the watcher's observations.
type Stats struct {
	Polls            int
	PollFailures     int
	MaxInputsPerPrev int // the paper's "at most 128 different PoW inputs"
	Attributed       int
}

// StatsSnapshot returns current counters.
func (w *Watcher) StatsSnapshot() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Polls:            w.polls,
		PollFailures:     w.pollFails,
		MaxInputsPerPrev: w.maxPerPrev,
		Attributed:       len(w.attributed),
	}
}

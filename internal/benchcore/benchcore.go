// Package benchcore holds the bodies of the repo's core performance
// benchmarks — the Keccak hash core, the block-template/ID paths, the
// simulation clock, pool share verification and one simulated Figure-5
// day. Both the per-package `go test -bench` entry points and cmd/bench
// (which writes BENCH_core.json) delegate here, so the committed perf
// trajectory measures exactly the workload the test benchmarks report.
package benchcore

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/cryptonight"
	"repro/internal/experiments"
	"repro/internal/keccak"
	"repro/internal/poolwatch"
	"repro/internal/simclock"
	"repro/internal/stratum"
)

// CryptonightHashTest measures one CryptoNight hash of a 76-byte hashing
// blob under the Test profile — the unit of work behind every simulated
// web-miner hash and every pool-side share verification.
func CryptonightHashTest(b *testing.B) { cryptonightHash(b, cryptonight.Test) }

// CryptonightHashLite is the same measurement under the 1 MB Lite profile.
func CryptonightHashLite(b *testing.B) { cryptonightHash(b, cryptonight.Lite) }

func cryptonightHash(b *testing.B, v cryptonight.Variant) {
	h, err := cryptonight.GetHasher(v)
	if err != nil {
		b.Fatal(err)
	}
	defer cryptonight.PutHasher(h)
	blob := make([]byte, 76)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sum(blob)
	}
}

// CryptonightGrindTest measures one nonce attempt of the Grind kernel
// (splice + hash + compact-target check) under the Test profile; the
// unmeetable target 0 makes every op exactly one hash.
func CryptonightGrindTest(b *testing.B) {
	h, err := cryptonight.GetHasher(cryptonight.Test)
	if err != nil {
		b.Fatal(err)
	}
	defer cryptonight.PutHasher(h)
	blob := make([]byte, 76)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Grind(blob, 39, 0, uint32(i), 1)
	}
}

// KeccakPermute measures the unrolled Keccak-f[1600] permutation.
func KeccakPermute(b *testing.B) {
	var a [25]uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keccak.Permute(&a)
	}
}

// KeccakSum256 hashes a 76-byte input — the size of a block hashing blob,
// the dominant call site in the simulation.
func KeccakSum256(b *testing.B) {
	data := make([]byte, 76)
	b.SetBytes(76)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keccak.Sum256(data)
	}
}

// NewBenchChain builds a low-difficulty chain with a short warm-up so the
// template and append benchmarks see a realistic trailing window.
func NewBenchChain(tb testing.TB) *blockchain.Chain {
	tb.Helper()
	p := blockchain.SimParams()
	p.MinDifficulty = 1
	c, err := blockchain.NewChain(p, 1524700800, blockchain.AddressFromString("genesis"))
	if err != nil {
		tb.Fatal(err)
	}
	ts := uint64(1524700800)
	for i := 0; i < 8; i++ {
		ts += 120
		t := c.NewTemplate(ts, blockchain.AddressFromString("miner"), []byte{byte(i)}, nil)
		if err := c.AppendUnchecked(t); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// NewTemplate measures the full per-slot cost a pool pays on a tip change:
// assembling the template and deriving its hashing blob (coinbase hash,
// Merkle root, header serialisation).
func NewTemplate(b *testing.B) {
	c := NewBenchChain(b)
	extra := []byte{0xC4, 1, 2, 0, 0, 0, 0, 1}
	var blob []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl := c.NewTemplate(1524710000, blockchain.AddressFromString("pool"), extra, nil)
		blob = tmpl.AppendHashingBlob(blob[:0])
	}
	_ = blob
}

// BlockID measures block-identifier hashing, the dominant Keccak consumer
// on the append path.
func BlockID(b *testing.B) {
	c := NewBenchChain(b)
	blk := c.NewTemplate(1524710000, blockchain.AddressFromString("pool"), []byte{1, 2, 3}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.ID()
	}
}

// AppendUnchecked measures the simulation's background-miner block path end
// to end (template, dup check, ID computation, bookkeeping).
func AppendUnchecked(b *testing.B) {
	c := NewBenchChain(b)
	ts := uint64(1524710000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts += 120
		t := c.NewTemplate(ts, blockchain.AddressFromString("bg"),
			[]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)}, nil)
		if err := c.AppendUnchecked(t); err != nil {
			b.Fatal(err)
		}
	}
}

// SchedulePop measures one simclock schedule/pop cycle with a prebuilt
// handler — allocation-free at steady state.
func SchedulePop(b *testing.B) {
	s := simclock.New(time.Date(2018, 4, 26, 0, 0, 0, 0, time.UTC))
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ScheduleAfter(time.Millisecond, fn)
		s.RunFor(2 * time.Millisecond)
	}
}

// SubmitShare measures pool-side verification of premined shares (the
// CryptoNight check dominates; jobs stay valid because the tip is pinned).
// The deck of 16 — one share per backend — is replayed under a fresh site
// key each pass, since the pool credits a (job, nonce) pair once per
// account.
func SubmitShare(b *testing.B) {
	w, err := experiments.NewWorld(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC),
		5.5e6, 462e6, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	var wallet blockchain.Address
	copy(wallet[:], "bench-wallet")
	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain: w.Chain, Wallet: wallet, Clock: w.Sim, ShareDifficulty: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	h, err := cryptonight.GetHasher(pool.Chain().Params().PowVariant)
	if err != nil {
		b.Fatal(err)
	}
	defer cryptonight.PutHasher(h)
	type share struct {
		jobID string
		nonce uint32
		sum   [32]byte
	}
	shares := make([]share, 16)
	for i := range shares {
		job := pool.Job(i%pool.NumEndpoints(), i, false)
		blob, err := stratum.DecodeBlob(job.Blob)
		if err != nil {
			b.Fatal(err)
		}
		stratum.ObfuscateBlob(blob)
		target, err := stratum.DecodeTarget(job.Target)
		if err != nil {
			b.Fatal(err)
		}
		hdr, _, _, err := blockchain.ParseHashingBlob(blob)
		if err != nil {
			b.Fatal(err)
		}
		n, sum, _, found := h.Grind(blob, hdr.NonceOffset(), target, 0, 1<<30)
		if !found {
			b.Fatal("no share in 2^30 nonces")
		}
		shares[i] = share{jobID: job.JobID, nonce: n, sum: sum}
	}
	tokens := make([]string, b.N/len(shares)+1)
	for i := range tokens {
		tokens[i] = "bench-" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shares[i%len(shares)]
		if _, err := pool.SubmitShare(tokens[i/len(shares)], s.jobID, s.nonce, s.sum, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// PollAllEndpoints measures one full watcher sweep over the pool's 32
// endpoints × 8 slots.
func PollAllEndpoints(b *testing.B) {
	w, err := experiments.NewWorld(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC),
		5.5e6, 462e6, nil, 5)
	if err != nil {
		b.Fatal(err)
	}
	watcher := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		watcher.PollAllEndpoints()
	}
}

// Fig5Day runs one simulated day of the Figure 5 observation campaign —
// network, pool and watcher — per iteration: the end-to-end number the
// hash-core and event-loop optimisations target.
func Fig5Day(b *testing.B) {
	start := time.Date(2018, 4, 26, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := experiments.NewWorld(start.Add(-3*time.Hour), experiments.PoolHashRate,
			experiments.NetworkHashRate, experiments.CoinhiveActivity, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		watcher := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain})
		w.Net.Start()
		stop := watcher.Run(w.Sim, 2*time.Second)
		w.Sim.RunUntil(start)
		w.Sim.RunFor(24 * time.Hour)
		stop()
		watcher.Sweep()
		if len(watcher.Attributed()) == 0 {
			b.Fatal("one simulated day attributed no blocks")
		}
	}
}

package blockchain_test

import (
	"testing"

	"repro/internal/blockchain"
)

// newBenchChain builds a low-difficulty chain with a short warm-up so the
// template and append benchmarks see a realistic trailing window.
func newBenchChain(tb testing.TB) *blockchain.Chain {
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

// BenchmarkNewTemplate measures the full per-slot cost a pool pays on a tip
// change: assembling the template and deriving its hashing blob (coinbase
// hash, Merkle root, header serialisation).
func BenchmarkNewTemplate(b *testing.B) {
	c := newBenchChain(b)
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

// BenchmarkBlockID measures block-identifier hashing, the dominant Keccak
// consumer on the append path.
func BenchmarkBlockID(b *testing.B) {
	c := newBenchChain(b)
	blk := c.NewTemplate(1524710000, blockchain.AddressFromString("pool"), []byte{1, 2, 3}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.ID()
	}
}

// BenchmarkAppendUnchecked measures the simulation's background-miner block
// path end to end (template, dup check, ID computation, bookkeeping).
func BenchmarkAppendUnchecked(b *testing.B) {
	c := newBenchChain(b)
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

// Block-ID hashing is the dominant Keccak consumer on the append path; the
// perf contract on the 1-CPU CI box is structural: zero allocations per ID.
func TestBlockIDAllocatesNothing(t *testing.T) {
	c := newBenchChain(t)
	blk := c.NewTemplate(1524710000, blockchain.AddressFromString("pool"), []byte{1, 2, 3}, nil)
	if avg := testing.AllocsPerRun(200, func() { blk.ID() }); avg != 0 {
		t.Errorf("Block.ID: %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { blk.Coinbase.Hash() }); avg != 0 {
		t.Errorf("Transaction.Hash: %.1f allocs/op, want 0", avg)
	}
	var blob []byte
	blob = blk.AppendHashingBlob(blob[:0]) // warm the scratch
	if avg := testing.AllocsPerRun(200, func() { blob = blk.AppendHashingBlob(blob[:0]) }); avg != 0 {
		t.Errorf("AppendHashingBlob into scratch: %.1f allocs/op, want 0", avg)
	}
}

// The append path must reuse its serialisation and retarget scratch: at
// steady state an AppendUnchecked performs a bounded number of small
// allocations (the template handed in aside), independent of chain length.
func TestAppendSteadyStateAllocsBounded(t *testing.T) {
	c := newBenchChain(t)
	ts := uint64(1524710000)
	avg := testing.AllocsPerRun(100, func() {
		ts += 120
		b := c.NewTemplate(ts, blockchain.AddressFromString("bg"),
			[]byte{byte(ts), byte(ts >> 8), byte(ts >> 16), byte(ts >> 24)}, nil)
		if err := c.AppendUnchecked(b); err != nil {
			t.Fatal(err)
		}
	})
	// Template + coinbase extra + amortised growth of the per-height slices.
	if avg > 8 {
		t.Errorf("AppendUnchecked steady state: %.1f allocs/op, want ≤ 8", avg)
	}
}

package blockchain

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/cryptonight"
)

func testParams() Params {
	p := SimParams()
	p.MinDifficulty = 1
	return p
}

func mineOnto(t *testing.T, c *Chain, ts uint64, to Address, extra []byte) *Block {
	t.Helper()
	b := c.NewTemplate(ts, to, extra, nil)
	h, err := cryptonight.NewHasher(c.Params().PowVariant)
	if err != nil {
		t.Fatal(err)
	}
	diff := c.NextDifficulty()
	for n := uint32(0); ; n++ {
		b.Nonce = n
		if cryptonight.CheckDifficulty(b.PowHash(h), diff) {
			break
		}
		if n > 1_000_000 {
			t.Fatal("no nonce found within bound")
		}
	}
	if err := c.Append(b); err != nil {
		t.Fatalf("Append: %v", err)
	}
	return b
}

// TestTransactionKnownAnswer pins the wire encoding and the transaction
// ID: varint version, unlock time and amount, the coinbase flag byte, the
// 32-byte payee, varint fee, then the length-prefixed extra and payload.
func TestTransactionKnownAnswer(t *testing.T) {
	tx := Transaction{
		Version:    2,
		UnlockTime: 77,
		Coinbase:   true,
		Amount:     123456789,
		To:         AddressFromString("coinhive-wallet"),
		Fee:        42,
		Extra:      []byte{0xde, 0xad, 0xbe, 0xef},
		Payload:    []byte("outputs"),
	}
	const (
		wantWire = "024d01959aef3a30dcd86e96768a1b76ded988de06e7d757f02aa0a13cc71444f79157d65816192a04deadbeef076f757470757473"
		wantHash = "c464fd8578479932a55f934a9906310065580875243ed74c8911ab313040bb21"
	)
	if got := hex.EncodeToString(tx.Serialize(nil)); got != wantWire {
		t.Errorf("Serialize = %s, want %s", got, wantWire)
	}
	if got := tx.Hash(); hex.EncodeToString(got[:]) != wantHash {
		t.Errorf("Hash = %x, want %s", got, wantHash)
	}
}

func TestHashingBlobParse(t *testing.T) {
	b := &Block{
		Header: Header{MajorVersion: 7, MinorVersion: 7, Timestamp: 1525000000,
			PrevHash: AddressFromString("prev"), Nonce: 42},
		Coinbase: NewCoinbase(1000, AddressFromString("pool"), 60, nil),
		TxHashes: [][32]byte{AddressFromString("t1"), AddressFromString("t2"), AddressFromString("t3")},
	}
	blob := b.HashingBlob()
	h, root, numTx, err := ParseHashingBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h != b.Header {
		t.Errorf("header mismatch: %+v vs %+v", h, b.Header)
	}
	if root != b.MerkleRoot() {
		t.Error("parsed Merkle root differs")
	}
	if numTx != 4 {
		t.Errorf("numTx = %d, want 4", numTx)
	}
}

func TestNonceSplice(t *testing.T) {
	b := &Block{
		Header:   Header{MajorVersion: 7, MinorVersion: 7, Timestamp: 1525000000, Nonce: 0},
		Coinbase: NewCoinbase(10, AddressFromString("x"), 0, nil),
	}
	blob := b.HashingBlob()
	SpliceNonce(blob, b.NonceOffset(), 0xA1B2C3D4)
	b.Nonce = 0xA1B2C3D4
	if !bytes.Equal(blob, b.HashingBlob()) {
		t.Error("SpliceNonce result differs from re-serialisation")
	}
}

func TestMerkleRootCommitsToCoinbaseExtra(t *testing.T) {
	// The pool's per-backend extra nonce must alter the Merkle root: this
	// is what makes the paper's 128-distinct-PoW-inputs observation work.
	mk := func(extra []byte) [32]byte {
		b := &Block{
			Header:   Header{MajorVersion: 7, MinorVersion: 7, Timestamp: 1},
			Coinbase: NewCoinbase(10, AddressFromString("pool"), 0, extra),
		}
		return b.MerkleRoot()
	}
	if mk([]byte{0}) == mk([]byte{1}) {
		t.Error("coinbase extra does not alter Merkle root")
	}
}

func TestEmissionCurve(t *testing.T) {
	p := MainnetLike(cryptonight.Test)
	r0 := p.BaseReward(0)
	r1 := p.BaseReward(r0)
	if r1 >= r0 {
		t.Errorf("reward must decrease: r0=%d r1=%d", r0, r1)
	}
	// Tail emission floor.
	if got := p.BaseReward(p.MoneySupply - 1); got != p.TailEmission {
		t.Errorf("near-exhausted supply reward = %d, want tail %d", got, p.TailEmission)
	}
	if got := p.BaseReward(p.MoneySupply); got != p.TailEmission {
		t.Errorf("exhausted supply reward = %d, want tail %d", got, p.TailEmission)
	}
}

func TestQuickEmissionMonotoneNonIncreasing(t *testing.T) {
	p := MainnetLike(cryptonight.Test)
	f := func(a, b uint64) bool {
		if a > b {
			a, b = b, a
		}
		return p.BaseReward(a) >= p.BaseReward(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChainGenesisAndAppend(t *testing.T) {
	c, err := NewChain(testParams(), 1_525_000_000, AddressFromString("genesis"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Height() != 0 {
		t.Fatalf("genesis height = %d", c.Height())
	}
	b1 := mineOnto(t, c, 1_525_000_120, AddressFromString("miner-a"), []byte("e1"))
	if c.Height() != 1 {
		t.Fatalf("height after one block = %d", c.Height())
	}
	if c.Tip().ID() != b1.ID() {
		t.Error("tip is not the appended block")
	}
	// Lookup path: the §4.2 successor of genesis is block 1.
	succ, ok := c.SuccessorInfoOf(c.BlockByHeight(0).ID())
	if !ok || succ.Height != 1 || succ.ID != b1.ID() {
		t.Errorf("SuccessorInfoOf(genesis) = %+v, %v; want block 1", succ, ok)
	}
	if _, ok := c.SuccessorInfoOf(b1.ID()); ok {
		t.Error("the tip has a successor")
	}
}

func TestChainRejectsBadBlocks(t *testing.T) {
	c, _ := NewChain(testParams(), 1_525_000_000, AddressFromString("g"))
	mineOnto(t, c, 1_525_000_120, AddressFromString("m"), nil)

	// Wrong prev.
	bad := c.NewTemplate(1_525_000_240, AddressFromString("m"), nil, nil)
	bad.PrevHash = AddressFromString("bogus")
	if err := c.Append(bad); err != ErrBadPrev {
		t.Errorf("wrong prev: err = %v, want ErrBadPrev", err)
	}
	// Wrong version.
	bad = c.NewTemplate(1_525_000_240, AddressFromString("m"), nil, nil)
	bad.MajorVersion = 6
	if err := c.Append(bad); err != ErrBadVersion {
		t.Errorf("wrong version: err = %v, want ErrBadVersion", err)
	}
	// Wrong reward.
	bad = c.NewTemplate(1_525_000_240, AddressFromString("m"), nil, nil)
	bad.Coinbase.Amount++
	if err := c.Append(bad); !errorsIs(err, ErrBadCoinbase) {
		t.Errorf("wrong reward: err = %v, want ErrBadCoinbase", err)
	}
	// Not a coinbase.
	bad = c.NewTemplate(1_525_000_240, AddressFromString("m"), nil, nil)
	bad.Coinbase.Coinbase = false
	if err := c.Append(bad); !errorsIs(err, ErrBadCoinbase) {
		t.Errorf("non-coinbase: err = %v, want ErrBadCoinbase", err)
	}
}

func errorsIs(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestChainRejectsUnworkedBlock(t *testing.T) {
	p := testParams()
	p.MinDifficulty = 1 << 28 // effectively unmineable in a test
	c, _ := NewChain(p, 1_525_000_000, AddressFromString("g"))
	b := c.NewTemplate(1_525_000_120, AddressFromString("m"), nil, nil)
	if err := c.Append(b); !errorsIs(err, ErrBadPoW) {
		t.Errorf("unworked block: err = %v, want ErrBadPoW", err)
	}
}

func TestTimestampMedianRule(t *testing.T) {
	c, _ := NewChain(testParams(), 1_525_000_000, AddressFromString("g"))
	ts := uint64(1_525_000_000)
	for i := 0; i < 5; i++ {
		ts += 120
		mineOnto(t, c, ts, AddressFromString("m"), []byte{byte(i)})
	}
	// A block whose timestamp is at/below the trailing median must fail.
	b := c.NewTemplate(1_525_000_000, AddressFromString("m"), nil, nil)
	h, _ := cryptonight.NewHasher(c.Params().PowVariant)
	diff := c.NextDifficulty()
	for n := uint32(0); ; n++ {
		b.Nonce = n
		if cryptonight.CheckDifficulty(b.PowHash(h), diff) {
			break
		}
	}
	if err := c.Append(b); err != ErrBadTimestamp {
		t.Errorf("stale timestamp: err = %v, want ErrBadTimestamp", err)
	}
}

func TestNextDifficultyRisesWithFasterBlocks(t *testing.T) {
	// Blocks arriving every 60 s against a 120 s target must raise
	// difficulty relative to on-target arrivals.
	mk := func(interval uint64) uint64 {
		var ts, cum []uint64
		d := uint64(1000)
		for i := uint64(0); i < 100; i++ {
			ts = append(ts, i*interval)
			if i == 0 {
				cum = append(cum, d)
			} else {
				cum = append(cum, cum[i-1]+d)
			}
		}
		return NextDifficulty(ts, cum, 120, 720, 60, 1)
	}
	fast, slow, on := mk(60), mk(240), mk(120)
	if !(fast > on && on > slow) {
		t.Errorf("difficulty ordering violated: fast=%d on=%d slow=%d", fast, on, slow)
	}
}

func TestNextDifficultyWindowing(t *testing.T) {
	// Only the trailing window may matter.
	var ts, cum []uint64
	for i := uint64(0); i < 200; i++ {
		ts = append(ts, i*120)
		cum = append(cum, (i+1)*1000)
	}
	full := NextDifficulty(ts, cum, 120, 50, 5, 1)
	tail := NextDifficulty(ts[150:], cum[150:], 120, 50, 5, 1)
	if full != tail {
		t.Errorf("windowed difficulty %d != tail-only %d", full, tail)
	}
}

func TestChainEmissionAccounting(t *testing.T) {
	c, _ := NewChain(testParams(), 1_525_000_000, AddressFromString("g"))
	before := c.Generated()
	want := c.BaseReward()
	mineOnto(t, c, 1_525_000_120, AddressFromString("m"), nil)
	if got := c.Generated() - before; got != want {
		t.Errorf("emission delta = %d, want %d", got, want)
	}
}

func TestBlocksRange(t *testing.T) {
	c, _ := NewChain(testParams(), 1_525_000_000, AddressFromString("g"))
	ts := uint64(1_525_000_000)
	for i := 0; i < 4; i++ {
		ts += 120
		mineOnto(t, c, ts, AddressFromString("m"), []byte{byte(i)})
	}
	got := c.Blocks(1, 3)
	if len(got) != 2 {
		t.Fatalf("Blocks(1,3) returned %d blocks", len(got))
	}
	if got[0].ID() != c.BlockByHeight(1).ID() {
		t.Error("range does not start at requested height")
	}
	if c.Blocks(3, 2) != nil {
		t.Error("inverted range must be empty")
	}
	if got := c.Blocks(2, 99); len(got) != 3 {
		t.Errorf("clamped range len = %d, want 3", len(got))
	}
}

func BenchmarkHashingBlob(b *testing.B) {
	blk := &Block{
		Header:   Header{MajorVersion: 7, MinorVersion: 7, Timestamp: 1525000000},
		Coinbase: NewCoinbase(1000, AddressFromString("pool"), 60, []byte{1, 2}),
		TxHashes: make([][32]byte, 16),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.HashingBlob()
	}
}

package sharechain

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// model is the share-chain's specification: sort the entry set by
// (height, ID) and fold left. Everything Chain maintains incrementally —
// position by binary search, rolling tips, the sliding window, interned
// tokens, 128-bit payout arithmetic — must give what this gives.
type model struct {
	tip     [32]byte
	credit  map[string]uint64
	weights []TokenWeight
	total   uint64
	payouts []Payout
}

func fold(set []*Entry, window, feePercent int, reward uint64) model {
	sorted := append([]*Entry(nil), set...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].ID(), sorted[j].ID()
		if sorted[i].Height != sorted[j].Height {
			return sorted[i].Height < sorted[j].Height
		}
		return bytes.Compare(a[:], b[:]) < 0
	})
	m := model{credit: map[string]uint64{}}
	win := map[string]uint64{}
	for i, e := range sorted {
		id := e.ID()
		m.tip = sha256.Sum256(append(m.tip[:], id[:]...))
		m.credit[e.Token] += e.Diff
		if i >= len(sorted)-window {
			win[e.Token] += e.Diff
			m.total += e.Diff
		}
	}
	for token, w := range win {
		m.weights = append(m.weights, TokenWeight{token, w})
	}
	sort.Slice(m.weights, func(i, j int) bool { return m.weights[i].Token < m.weights[j].Token })
	userPart := new(big.Int).SetUint64(reward * uint64(100-feePercent) / 100)
	for _, w := range m.weights {
		amt := new(big.Int).Mul(userPart, new(big.Int).SetUint64(w.Weight))
		m.payouts = append(m.payouts, Payout{w.Token, amt.Div(amt, new(big.Int).SetUint64(m.total)).Uint64()})
	}
	return m
}

// TestChainMatchesModel delivers a random entry set — heights colliding,
// several windows long, vardiff-scale weights — in a random order with
// re-deliveries mixed in, and after every batch holds the chain to the
// model of exactly the entries delivered so far. Early batches land in a
// chain shorter than the window; later ones fall on both sides of its head.
func TestChainMatchesModel(t *testing.T) {
	const window, fee, reward = 48, 30, 35_184_372_088_832 // the sim chain's block reward, atomic units
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set := make([]*Entry, 300+rng.Intn(200))
		for i := range set {
			set[i] = mkEntry(uint64(1+i/3+rng.Intn(4)), fmt.Sprintf("tok%d", rng.Intn(9)), 1<<(20+rng.Intn(21)), byte(i))
			set[i].Nonce = uint32(i) // mkEntry's salt is a byte; keep 500 entries distinct
		}
		c := New(Config{Window: window, FeePercent: fee})
		order := rng.Perm(len(set))
		var delivered []*Entry
		for len(order) > 0 {
			batch := order[:min(len(order), 1+rng.Intn(40))]
			order = order[len(batch):]
			for _, i := range batch {
				if rng.Intn(4) == 0 && len(delivered) > 0 { // a re-delivery first
					dup := *delivered[rng.Intn(len(delivered))]
					dup.id = [32]byte{}
					if !c.Has(&dup) {
						t.Fatalf("seed %d: Has denies a delivered entry", seed)
					}
					if _, err := c.Insert(&dup, true); !errors.Is(err, ErrDuplicate) {
						t.Fatalf("seed %d: re-delivery: %v, want ErrDuplicate", seed, err)
					}
				}
				e := *set[i]
				if c.Has(&e) {
					t.Fatalf("seed %d: Has claims an undelivered entry", seed)
				}
				if _, err := c.Insert(&e, true); err != nil {
					t.Fatalf("seed %d: insert: %v", seed, err)
				}
				delivered = append(delivered, set[i])
			}
			want := fold(delivered, window, fee, reward)
			tip, n := c.Tip()
			weights, total := c.WindowWeights()
			got := model{tip, c.CreditSnapshot(), weights, total, c.PayoutVector(reward)}
			if n != len(delivered) || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %d entries in:\n got %+v\nwant %+v", seed, len(delivered), got, want)
			}
		}
	}
}

// TestPayoutsAtVardiffScaleWeights: a block reward in atomic units times a
// window weight passes 2^64 once the weight passes ~750k — a single share
// at a vardiff tier of 2^20. The split must still hand out the whole user
// part but for less than one atomic unit per account.
func TestPayoutsAtVardiffScaleWeights(t *testing.T) {
	const reward = 35_184_372_088_832
	const userPart = reward * 70 / 100
	for shift := 20; shift <= 40; shift += 4 {
		c := New(Config{Window: 16, FeePercent: 30})
		for i := 0; i < 6; i++ {
			if _, err := c.Insert(mkEntry(uint64(1+i), fmt.Sprintf("miner%d", i%3), uint64(1+i%2)<<shift, byte(i)), true); err != nil {
				t.Fatal(err)
			}
		}
		payouts := c.PayoutVector(reward)
		var sum uint64
		for _, p := range payouts {
			sum += p.Amount
		}
		if len(payouts) != 3 || sum > userPart || userPart >= sum+uint64(len(payouts)) {
			t.Errorf("diff 2^%d: payouts %v sum to %d of a %d user part", shift, payouts, sum, uint64(userPart))
		}
	}
}

// TestHeapBytesPerEntry pins what a chain holds per entry: a federation
// node keeps every share, so this times its share rate is its memory growth.
// Entries arrive as gossip decodes them — own Token string, own 76-byte Blob.
func TestHeapBytesPerEntry(t *testing.T) {
	const n = 80_000
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	c := New(Config{})
	for i := 0; i < n; i++ {
		e := mkEntry(uint64(1+i/3), fmt.Sprintf("site-key-%02d", i%64), 256, byte(i))
		e.Nonce = uint32(i)
		if _, err := c.Insert(e, true); err != nil {
			t.Fatal(err)
		}
	}
	perEntry := (heap() - before) / n
	runtime.KeepAlive(c)
	t.Logf("%d heap bytes per entry at %d entries", perEntry, n)
	if perEntry > 300 {
		t.Errorf("chain holds %d heap bytes per entry, want ≤ 300", perEntry)
	}
}

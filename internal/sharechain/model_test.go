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
	"sync"
	"testing"

	"repro/internal/metrics"
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
	sorted := canonical(set)
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

// canonical returns set sorted into the chain's order, IDs cached.
func canonical(set []*Entry) []*Entry {
	sorted := append([]*Entry(nil), set...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].ID(), sorted[j].ID()
		if sorted[i].Height != sorted[j].Height {
			return sorted[i].Height < sorted[j].Height
		}
		return bytes.Compare(a[:], b[:]) < 0
	})
	return sorted
}

// has reports whether e is in the chain, under the read lock the
// admission pre-check takes.
func (c *Chain) has(e *Entry) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, found := c.searchLocked(e)
	return found
}

// horizon shrinks c's finality horizon so a test can fold many times over
// a few hundred entries. foldChunk must stay a multiple of tipStride.
func horizon(c *Chain, reorgDepth, foldChunk int) *Chain {
	c.reorgDepth, c.foldChunk = reorgDepth, foldChunk
	return c
}

const modelWindow, modelFee, modelReward = 48, 30, 35_184_372_088_832 // the sim chain's block reward, atomic units

// modelSet draws a random entry set: heights colliding, several windows
// long, vardiff-scale weights.
func modelSet(rng *rand.Rand) []*Entry {
	set := make([]*Entry, 300+rng.Intn(200))
	for i := range set {
		set[i] = mkEntry(uint64(1+i/3+rng.Intn(4)), fmt.Sprintf("tok%d", rng.Intn(9)), 1<<(20+rng.Intn(21)), byte(i))
		set[i].Nonce = uint32(i) // mkEntry's salt is a byte; keep 500 entries distinct
	}
	return set
}

// lateOrder is a delivery order in which every entry arrives before depth
// entries that sort after it have: its canonical rank plus a jitter below
// depth.
func lateOrder(set []*Entry, depth int, rng *rand.Rand) []int {
	rank := map[*Entry]int{}
	for r, e := range canonical(set) {
		rank[e] = r
	}
	type slot struct{ at, i int }
	slots := make([]slot, len(set))
	for i, e := range set {
		slots[i] = slot{rank[e] + rng.Intn(depth), i}
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	order := make([]int, len(slots))
	for k, s := range slots {
		order[k] = s.i
	}
	return order
}

// deliver feeds set to c in order, in batches of 1–40 with re-deliveries
// mixed in, and after every batch holds c to the model of exactly the
// entries it accepted: tip, count, credit, window and payouts, plus has,
// ErrDuplicate for a held re-delivery and ErrBelowHorizon for a folded
// one, every refusal counted, and never more held than the horizon
// allows. Delivered verified, each entry is its own Insert; unverified,
// each batch, re-deliveries included, is one InsertUnverified (c's
// verifier must accept everything). It returns what c accepted and how
// many first deliveries it refused.
func deliver(t *testing.T, c *Chain, reg *metrics.Registry, set []*Entry, order []int, verified bool, rng *rand.Rand) (accepted []*Entry, refused int) {
	t.Helper()
	// A delivery is a first one of src, or a re-delivery (src nil) that
	// must be refused with want.
	type delivery struct {
		e, src *Entry
		want   error
	}
	var counted uint64
	check := func(d delivery, err error) {
		switch {
		case d.src == nil:
			if !errors.Is(err, d.want) {
				t.Fatalf("re-delivery: %v, want %v", err, d.want)
			}
		case err == nil:
			accepted = append(accepted, d.src)
		case errors.Is(err, ErrBelowHorizon):
			refused++
			counted++
		default:
			t.Fatalf("insert: %v", err)
		}
	}
	for len(order) > 0 {
		batch := order[:min(len(order), 1+rng.Intn(40))]
		order = order[len(batch):]
		var queued []delivery
		put := func(d delivery) {
			if verified {
				_, err := c.Insert(d.e, true)
				check(d, err)
			} else {
				queued = append(queued, d)
			}
		}
		for _, i := range batch {
			if rng.Intn(4) == 0 && len(accepted) > 0 { // a re-delivery first
				dup := *accepted[rng.Intn(len(accepted))]
				dup.id = [32]byte{}
				dup.ID()
				held, want := !c.foldedLocked(&dup), ErrDuplicate
				if !held {
					want = ErrBelowHorizon
					counted++
				}
				if c.has(&dup) != held {
					t.Fatalf("has(re-delivery) = %v, want %v", !held, held)
				}
				put(delivery{e: &dup, want: want})
			}
			e := *set[i]
			if c.has(&e) {
				t.Fatalf("has claims an undelivered entry")
			}
			put(delivery{e: &e, src: set[i]})
		}
		if !verified {
			entries := make([]*Entry, len(queued))
			for k, d := range queued {
				entries[k] = d.e
			}
			k := 0
			c.InsertUnverified(entries, func(_ *Entry, _ bool, err error) {
				check(queued[k], err)
				k++
			})
		}
		want := fold(accepted, modelWindow, modelFee, modelReward)
		tip, n := c.Tip()
		weights, total := c.WindowWeights()
		got := model{tip, c.CreditSnapshot(), weights, total, c.PayoutVector(modelReward)}
		if n != len(accepted) || c.Len() != n || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d entries accepted:\n got %+v\nwant %+v", len(accepted), got, want)
		}
		if held := len(c.entries); held > c.cfg.Window+c.reorgDepth+c.foldChunk {
			t.Fatalf("holds %d entries, horizon allows %d", held, c.cfg.Window+c.reorgDepth+c.foldChunk)
		}
		if got := reg.Counter("pool.sharechain_below_horizon").Load(); got != counted {
			t.Fatalf("pool.sharechain_below_horizon = %d, want %d", got, counted)
		}
	}
	return accepted, refused
}

// TestChainMatchesModel delivers a random entry set in three ways, and
// after every batch holds the chain to the model of what it accepted. Any
// order into a chain too short to fold: everything is accepted — the
// model of everything delivered. Lateness below reorgDepth into a chain
// whose horizon is shrunk so it folds several times: still everything
// accepted, still the model of everything delivered, the finality
// horizon's canonical claim. Any order into the shrunk chain, each batch
// through the unverified path as one InsertUnverified: entries later than
// the bound are refused and counted, whether before the verify or after
// it, and the chain is the model of the rest. Early batches land in a
// chain shorter than the window; later ones fall on both sides of its
// head.
func TestChainMatchesModel(t *testing.T) {
	const depth, chunk = 32, 64
	lateRefused := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set := modelSet(rng)
		build := func(shrunk bool) (*Chain, *metrics.Registry) {
			reg := metrics.NewRegistry()
			c := New(Config{Window: modelWindow, Metrics: reg, Verify: func([]*Entry, []error) {}})
			if shrunk {
				horizon(c, depth, chunk)
			}
			return c, reg
		}

		c, reg := build(false)
		if acc, refused := deliver(t, c, reg, set, rng.Perm(len(set)), true, rng); refused != 0 || len(acc) != len(set) || c.base.Count != 0 {
			t.Fatalf("seed %d, unfolded: %d of %d accepted, %d refused, %d folded", seed, len(acc), len(set), refused, c.base.Count)
		}

		c, reg = build(true)
		if acc, refused := deliver(t, c, reg, set, lateOrder(set, depth, rng), true, rng); refused != 0 || len(acc) != len(set) {
			t.Fatalf("seed %d, lateness < %d: %d of %d accepted, %d refused", seed, depth, len(acc), len(set), refused)
		}
		if folds := c.base.Count / chunk; folds < 3 {
			t.Fatalf("seed %d: folded %d times, want several", seed, folds)
		}

		c, reg = build(true)
		_, refused := deliver(t, c, reg, set, rng.Perm(len(set)), false, rng)
		lateRefused += refused
		if got := reg.Counter("pool.sharechain_batched_verifies").Load(); got == 0 {
			t.Fatalf("seed %d: no batch of two or more reached the verifier", seed)
		}
	}
	if lateRefused == 0 {
		t.Fatalf("no seed delivered an entry later than the horizon")
	}
}

// TestHorizonBoundsHeldEntries feeds a chain 10× Window + reorgDepth
// entries at the real sizes: it never holds more than Window + reorgDepth
// + foldChunk, folds by whole chunks, and still counts every entry.
func TestHorizonBoundsHeldEntries(t *testing.T) {
	c := New(Config{})
	limit := c.cfg.Window + reorgDepth + foldChunk
	n := 10 * (c.cfg.Window + reorgDepth)
	for i := 0; i < n; i++ {
		e := mkEntry(uint64(1+i/3), fmt.Sprintf("site-key-%02d", i%64), 256, byte(i))
		e.Nonce = uint32(i)
		if _, err := c.Insert(e, true); err != nil {
			t.Fatal(err)
		}
		if held := len(c.entries); held > limit {
			t.Fatalf("after %d inserts the chain holds %d entries, want ≤ %d", i+1, held, limit)
		}
	}
	if _, count := c.Tip(); count != n || c.Len() != n {
		t.Fatalf("Tip count %d, Len %d, want %d", count, c.Len(), n)
	}
	if c.base.Count%foldChunk != 0 || int(c.base.Count)+len(c.entries) != n || len(c.entries) < c.cfg.Window+reorgDepth {
		t.Fatalf("base %d + held %d: not folded by whole chunks behind the horizon", c.base.Count, len(c.entries))
	}
	var sum uint64
	for _, v := range c.CreditSnapshot() {
		sum += v
	}
	if sum != uint64(n)*256 {
		t.Fatalf("all-time credit %d, want %d", sum, n*256)
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
		c := New(Config{Window: 16})
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

// TestHeapBytesPerEntry pins what a chain holds per held entry. Behind the
// finality horizon a node holds at most Window + reorgDepth + foldChunk
// entries, so this times that bound is its share-chain memory, however
// long it runs; the folded entries must really be freed for it to hold.
// Entries arrive as gossip decodes them — own Token string, own 76-byte
// Blob.
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
	held := uint64(len(c.entries))
	perEntry := (heap() - before) / held
	runtime.KeepAlive(c)
	t.Logf("%d heap bytes per held entry, %d of %d entries held", perEntry, held, n)
	if perEntry > 300 {
		t.Errorf("chain holds %d heap bytes per entry, want ≤ 300", perEntry)
	}
}

// TestConcurrentInsertFoldAndRead: writers insert — half of them verified
// entries one at a time, half unverified pairs through InsertUnverified —
// while readers call has, EntriesFrom, Checkpoint, Tip and WindowWeights,
// and the shrunk horizon folds under them many times. However the writers
// interleave, the chain ends as the model of what it accepted. Run it
// with -race.
func TestConcurrentInsertFoldAndRead(t *testing.T) {
	const writers = 4
	rng := rand.New(rand.NewSource(11))
	set := modelSet(rng)
	order := lateOrder(set, 32, rng)
	c := horizon(New(Config{Window: modelWindow, Verify: func([]*Entry, []error) {}}), 32, 64)

	var wg, readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		rng := rand.New(rand.NewSource(int64(r)))
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				probe := *set[rng.Intn(len(set))]
				probe.id = [32]byte{}
				c.has(&probe)
				c.EntriesFrom(probe.Height, [32]byte{}, 16)
				c.Checkpoint()
				c.Tip()
				c.WindowWeights()
			}
		}()
	}
	accepted := make([][]*Entry, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*Entry
			for k := w; k < len(order); k += writers {
				mine = append(mine, set[order[k]])
			}
			step := 1 + w%2
			for i := 0; i < len(mine); i += step {
				src := mine[i:min(i+step, len(mine))]
				batch := make([]*Entry, len(src))
				for j, e := range src {
					fresh := *e
					batch[j] = &fresh
				}
				admit := func(j int, err error) {
					switch {
					case err == nil:
						accepted[w] = append(accepted[w], src[j])
					case !errors.Is(err, ErrBelowHorizon):
						t.Errorf("insert: %v", err)
					}
				}
				if step == 1 {
					_, err := c.Insert(batch[0], true)
					admit(0, err)
					continue
				}
				j := 0
				c.InsertUnverified(batch, func(_ *Entry, _ bool, err error) {
					admit(j, err)
					j++
				})
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	var all []*Entry
	for _, a := range accepted {
		all = append(all, a...)
	}
	want := fold(all, modelWindow, modelFee, modelReward)
	tip, n := c.Tip()
	weights, total := c.WindowWeights()
	got := model{tip, c.CreditSnapshot(), weights, total, c.PayoutVector(modelReward)}
	if n != len(all) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d entries accepted:\n got %+v\nwant %+v", len(all), got, want)
	}
	if c.base.Count == 0 {
		t.Fatalf("the horizon never folded")
	}
}

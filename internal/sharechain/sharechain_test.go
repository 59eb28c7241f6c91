package sharechain

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// mkEntry builds a structurally valid test entry. The blob content is
// arbitrary — these tests insert with verified=true, exercising ordering
// and accounting, not PoW.
func mkEntry(height uint64, token string, diff uint64, salt byte) *Entry {
	blob := make([]byte, 76)
	blob[0] = salt
	blob[1] = byte(height)
	blob[2] = byte(diff)
	copy(blob[3:], token)
	return &Entry{Height: height, Token: token, Diff: diff, Nonce: uint32(salt), Blob: blob}
}

// TestInsertionOrderIndependence is the convergence property in miniature:
// any permutation of the same entry set yields bit-identical tip hashes,
// credit maps, window weights and payout vectors.
func TestInsertionOrderIndependence(t *testing.T) {
	var base []*Entry
	for i := 0; i < 200; i++ {
		// Heights interleave and collide on purpose: concurrent mints at
		// different nodes claim equal heights and must tie-break by ID.
		h := uint64(1 + i/3)
		base = append(base, mkEntry(h, fmt.Sprintf("tok%d", i%7), uint64(1+i%5), byte(i)))
	}
	build := func(perm []int) *Chain {
		c := New(Config{Window: 32})
		for _, i := range perm {
			e := *base[i] // fresh copy: cached IDs must not leak between chains
			e.id = [32]byte{}
			if _, err := c.Insert(&e, true); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		return c
	}
	ref := build(rand.New(rand.NewSource(1)).Perm(len(base)))
	refTip, refN := ref.Tip()
	for seed := int64(2); seed < 6; seed++ {
		c := build(rand.New(rand.NewSource(seed)).Perm(len(base)))
		tip, n := c.Tip()
		if tip != refTip || n != refN {
			t.Fatalf("seed %d: tip diverged: %x/%d vs %x/%d", seed, tip, n, refTip, refN)
		}
		if !reflect.DeepEqual(c.CreditSnapshot(), ref.CreditSnapshot()) {
			t.Fatalf("seed %d: credit diverged", seed)
		}
		w1, t1 := c.WindowWeights()
		w2, t2 := ref.WindowWeights()
		if t1 != t2 || !reflect.DeepEqual(w1, w2) {
			t.Fatalf("seed %d: window diverged", seed)
		}
		if !reflect.DeepEqual(c.PayoutVector(1_000_000), ref.PayoutVector(1_000_000)) {
			t.Fatalf("seed %d: payout vector diverged", seed)
		}
	}
}

func TestAppendVsReorgAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Window: 8, Metrics: reg})
	for h := uint64(1); h <= 5; h++ {
		reorged, err := c.Insert(mkEntry(h, "a", 2, byte(h)), true)
		if err != nil || reorged {
			t.Fatalf("append h=%d: reorged=%v err=%v", h, reorged, err)
		}
	}
	if got := reg.Counter("pool.sharechain_reorgs").Load(); got != 0 {
		t.Fatalf("reorgs after pure appends = %d", got)
	}
	// A late entry at height 2 lands mid-chain: reorg.
	reorged, err := c.Insert(mkEntry(2, "b", 3, 0xEE), true)
	if err != nil || !reorged {
		t.Fatalf("late insert: reorged=%v err=%v", reorged, err)
	}
	if got := reg.Counter("pool.sharechain_reorgs").Load(); got != 1 {
		t.Fatalf("reorgs = %d, want 1", got)
	}
	// It landed inside the window (6 entries ≤ Window), so it is credited
	// there too, with nothing pushed off the head.
	weights, total := c.WindowWeights()
	if want := []TokenWeight{{"a", 10}, {"b", 3}}; total != 13 || !reflect.DeepEqual(weights, want) {
		t.Fatalf("window after reorg: %v / %d, want %v / 13", weights, total, want)
	}
	// The displaced chain still holds every entry: zero lost credit.
	credit := c.CreditSnapshot()
	if credit["a"] != 10 || credit["b"] != 3 {
		t.Fatalf("credit after reorg: %v", credit)
	}
	if c.Len() != 6 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestWindowSlidesAndPayout(t *testing.T) {
	c := New(Config{Window: 3})
	c.Insert(mkEntry(1, "old", 100, 1), true)
	c.Insert(mkEntry(2, "a", 10, 2), true)
	c.Insert(mkEntry(3, "b", 20, 3), true)
	c.Insert(mkEntry(4, "a", 30, 4), true)
	// Window = last 3 entries: a:10, b:20, a:30 → a:40, b:20, total 60.
	weights, total := c.WindowWeights()
	if total != 60 {
		t.Fatalf("window total = %d", total)
	}
	want := []TokenWeight{{"a", 40}, {"b", 20}}
	if !reflect.DeepEqual(weights, want) {
		t.Fatalf("weights = %v", weights)
	}
	// Reward 1000: user part 700, a: 700*40/60=466, b: 700*20/60=233.
	pay := c.PayoutVector(1000)
	wantPay := []Payout{{"a", 466}, {"b", 233}}
	if !reflect.DeepEqual(pay, wantPay) {
		t.Fatalf("payout = %v", pay)
	}
	// All-time credit still includes the slid-out entry.
	if c.CreditSnapshot()["old"] != 100 {
		t.Fatalf("all-time credit lost the window-expired entry")
	}
}

func TestDuplicateAndValidation(t *testing.T) {
	c := New(Config{Window: 4})
	e := mkEntry(1, "a", 5, 9)
	if _, err := c.Insert(e, true); err != nil {
		t.Fatal(err)
	}
	dup := *e
	dup.id = [32]byte{}
	if _, err := c.Insert(&dup, true); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup insert: %v", err)
	}
	bad := []*Entry{
		{Height: 1, Token: "a", Diff: 0, Blob: []byte{1}},          // zero diff
		{Height: 0, Token: "a", Diff: 1, Blob: []byte{1}},          // zero height
		{Height: 1, Token: "", Diff: 1, Blob: []byte{1}},           // empty token
		{Height: 1, Token: "a", Diff: 1, Blob: nil},                // empty blob
		{Height: 1, Token: "a", Diff: 1, Blob: make([]byte, 4096)}, // oversize blob
	}
	for i, b := range bad {
		if _, err := c.Insert(b, true); !errors.Is(err, errBadEntry) {
			t.Fatalf("bad[%d]: %v", i, err)
		}
	}
	if _, err := c.Insert(mkEntry(1+DefaultMaxHeightSkew+1, "a", 1, 7), true); !errors.Is(err, errHeightSkew) {
		t.Fatalf("skew: expected ErrHeightSkew")
	}
}

// TestVerifierGatesRemoteEntries: unverified entries reach the chain only
// through the verifier, a batch at a time. Each case delivers one batch to
// a fresh chain with a horizon at height 100, and names the verdict each
// entry must get and the batches the verifier must see: only entries that
// pass the checks before the verify reach it, its verdict is final per
// entry, and a duplicate that appears while it runs is counted as late
// for that entry only.
func TestVerifierGatesRemoteEntries(t *testing.T) {
	// No verifier: remote entries are refused outright.
	c := New(Config{Window: 4})
	if _, err := c.Insert(mkEntry(1, "a", 1, 1), false); !errors.Is(err, errUnverified) {
		t.Fatalf("nil verifier: %v", err)
	}

	good, good2 := mkEntry(101, "good", 1, 1), mkEntry(102, "good", 1, 2)
	evil := mkEntry(101, "evil", 1, 3)
	late := mkEntry(50, "late", 1, 4)
	racer := mkEntry(102, "racer", 1, 5) // a local insert admits its twin mid-verify
	cases := []struct {
		name     string
		batch    []*Entry
		want     []error
		seen     []int // the sizes of the batches the verifier sees
		lateDups uint64
	}{
		{"bad", []*Entry{evil}, []error{ErrBadPoW}, []int{1}, 0},
		{"good", []*Entry{good}, []error{nil}, []int{1}, 0},
		{"good+bad pair", []*Entry{good, evil}, []error{nil, ErrBadPoW}, []int{2}, 0},
		{"pair, one below the horizon", []*Entry{late, good}, []error{ErrBelowHorizon, nil}, []int{1}, 0},
		{"pair racing a local insert", []*Entry{good, racer}, []error{nil, ErrDuplicate}, []int{2}, 1},
		{"pair, both refused before the verify", []*Entry{late, {Height: 101, Token: "zero", Blob: []byte{1}}}, []error{ErrBelowHorizon, errBadEntry}, nil, 0},
		{"good pair", []*Entry{good, good2}, []error{nil, nil}, []int{2}, 0},
	}
	for _, tc := range cases {
		reg := metrics.NewRegistry()
		var seen []int
		var c *Chain
		c = New(Config{Metrics: reg, Verify: func(batch []*Entry, verdicts []error) {
			seen = append(seen, len(batch))
			for i, e := range batch {
				switch e.Token {
				case "evil":
					verdicts[i] = ErrBadPoW
				case "racer":
					twin := *e
					twin.id = [32]byte{}
					if _, err := c.Insert(&twin, true); err != nil {
						t.Fatalf("%s: local twin: %v", tc.name, err)
					}
				}
			}
		}})
		c.Adopt(Checkpoint{Count: 50, Height: 100})
		batch := make([]*Entry, len(tc.batch))
		for i, e := range tc.batch {
			fresh := *e
			batch[i] = &fresh
		}
		var got []error
		c.InsertUnverified(batch, func(e *Entry, _ bool, err error) {
			if e != batch[len(got)] {
				t.Fatalf("%s: done called out of batch order", tc.name)
			}
			got = append(got, err)
		})
		if !reflect.DeepEqual(got, tc.want) || !reflect.DeepEqual(seen, tc.seen) {
			t.Errorf("%s: verdicts %v, verifier saw batches %v; want %v, %v", tc.name, got, seen, tc.want, tc.seen)
		}
		for i, e := range batch {
			if held := tc.want[i] == nil || tc.want[i] == ErrDuplicate; c.has(e) != held {
				t.Errorf("%s: entry %d held = %v, want %v", tc.name, i, !held, held)
			}
		}
		// Local (verified) entries never touch the verifier, and a local
		// duplicate is no late one.
		seen = nil
		if _, err := c.Insert(mkEntry(103, "evil", 1, 6), true); err != nil || seen != nil {
			t.Errorf("%s: local insert: err=%v, verifier saw %v", tc.name, err, seen)
		}
		if _, err := c.Insert(mkEntry(103, "evil", 1, 6), true); !errors.Is(err, ErrDuplicate) {
			t.Errorf("%s: local duplicate: %v", tc.name, err)
		}
		var paired uint64
		for _, n := range tc.seen {
			paired += uint64(n &^ 1)
		}
		if got := reg.Counter("pool.sharechain_late_duplicates").Load(); got != tc.lateDups {
			t.Errorf("%s: pool.sharechain_late_duplicates = %d, want %d", tc.name, got, tc.lateDups)
		}
		if got := reg.Counter("pool.sharechain_paired_verifies").Load(); got != paired {
			t.Errorf("%s: pool.sharechain_paired_verifies = %d, want %d", tc.name, got, paired)
		}
	}
}

func TestEntriesFromRanged(t *testing.T) {
	c := New(Config{Window: 16})
	for h := uint64(1); h <= 10; h++ {
		c.Insert(mkEntry(h, "a", 1, byte(h)), true)
	}
	got := c.EntriesFrom(4, [32]byte{}, 3)
	if len(got) != 3 || got[0].Height != 4 || got[2].Height != 6 {
		t.Fatalf("EntriesFrom(4,3): %v", got)
	}
	if got := c.EntriesFrom(11, [32]byte{}, 10); got != nil {
		t.Fatalf("past-end range returned entries")
	}
	if got := c.EntriesFrom(0, [32]byte{}, 1000); len(got) != 10 {
		t.Fatalf("full range = %d entries", len(got))
	}

	// A non-zero after resumes strictly past the named entry, so paging
	// through more entries at one height than a page holds visits each
	// exactly once.
	for salt := 20; salt < 30; salt++ {
		c.Insert(mkEntry(5, "b", 1, byte(salt)), true)
	}
	seen := map[[32]byte]bool{}
	for from, after := uint64(0), ([32]byte{}); ; {
		page := c.EntriesFrom(from, after, 3)
		if len(page) == 0 {
			break
		}
		for _, e := range page {
			if seen[e.ID()] {
				t.Fatalf("entry at height %d paged twice", e.Height)
			}
			seen[e.ID()] = true
		}
		last := page[len(page)-1]
		from, after = last.Height, last.ID()
	}
	if len(seen) != 20 {
		t.Fatalf("paged %d entries, want 20", len(seen))
	}
}

func TestTipHeightAndNextHeight(t *testing.T) {
	c := New(Config{Window: 4})
	if c.TipHeight() != 0 || c.NextHeight() != 1 {
		t.Fatalf("empty chain heights wrong")
	}
	c.Insert(mkEntry(7, "a", 1, 1), true)
	if c.TipHeight() != 7 || c.NextHeight() != 8 {
		t.Fatalf("heights after insert: tip=%d", c.TipHeight())
	}
}

// shrunkChain builds a chain with window 8 and a horizon shrunk to
// reorgDepth 8, foldChunk 64.
func shrunkChain(cfg Config) *Chain {
	cfg.Window = 8
	c := New(cfg)
	c.reorgDepth, c.foldChunk = 8, 64
	return c
}

// fill inserts the standard test entries at heights from..to, one per
// height, over three accounts: the same entries into every chain.
func fill(c *Chain, from, to int) *Chain {
	for h := from; h <= to; h++ {
		e := mkEntry(uint64(h), fmt.Sprintf("acct%d", h%3), uint64(1+h%5), byte(h))
		e.Nonce = uint32(h)
		if _, err := c.Insert(e, true); err != nil {
			panic(err)
		}
	}
	return c
}

// TestBelowHorizonRefused: an arrival that sorts into the folded history
// is refused before its PoW is checked, counted, and changes nothing
// else; one just above the horizon is still placed.
func TestBelowHorizonRefused(t *testing.T) {
	reg := metrics.NewRegistry()
	verifies := 0
	c := fill(shrunkChain(Config{Metrics: reg, Verify: func(batch []*Entry, _ []error) { verifies += len(batch) }}), 1, 300)
	cp, ok := c.Checkpoint()
	if !ok || cp.Count != 256 || cp.Height != 256 {
		t.Fatalf("checkpoint after 300 entries: %+v, %v", cp, ok)
	}
	tip, n := c.Tip()
	credit := c.CreditSnapshot()
	weights, total := c.WindowWeights()
	for _, h := range []uint64{1, 200, 256} {
		if _, err := c.Insert(mkEntry(h, "late", 7, 0xEE), false); !errors.Is(err, ErrBelowHorizon) {
			t.Fatalf("height %d under a horizon at 256: %v, want ErrBelowHorizon", h, err)
		}
	}
	if got := reg.Counter("pool.sharechain_below_horizon").Load(); got != 3 {
		t.Fatalf("pool.sharechain_below_horizon = %d, want 3", got)
	}
	tip2, n2 := c.Tip()
	w2, t2 := c.WindowWeights()
	if verifies != 0 || tip2 != tip || n2 != n || !reflect.DeepEqual(c.CreditSnapshot(), credit) || t2 != total || !reflect.DeepEqual(w2, weights) {
		t.Fatalf("a refused arrival changed the chain (verifies %d)", verifies)
	}
	if _, err := c.Insert(mkEntry(257, "late", 7, 0xEE), false); err != nil {
		t.Fatalf("first height above the horizon: %v", err)
	}
}

// TestLateDuplicateCounted: a remote entry that passes the lock-free
// duplicate check, pays for its verify, and then finds a copy under the
// write lock is counted as a late duplicate; a duplicate caught before
// the verify is not.
func TestLateDuplicateCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	var c *Chain
	c = New(Config{Metrics: reg, Verify: func(batch []*Entry, verdicts []error) {
		// Another reader admits the same entry while this one verifies.
		twin := *batch[0]
		twin.id = [32]byte{}
		_, verdicts[0] = c.Insert(&twin, true)
	}})
	if _, err := c.Insert(mkEntry(1, "a", 1, 1), false); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("racing insert: %v, want ErrDuplicate", err)
	}
	if _, err := c.Insert(mkEntry(1, "a", 1, 1), false); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("plain duplicate: %v, want ErrDuplicate", err)
	}
	if got := reg.Counter("pool.sharechain_late_duplicates").Load(); got != 1 {
		t.Fatalf("pool.sharechain_late_duplicates = %d, want 1", got)
	}
}

// TestAdoptCheckpoint: a chain that adopts a folded chain's checkpoint
// and then takes its held range is that chain — tip, count, credit,
// window and payouts — whether it started empty, behind, or holding
// entries the source never saw below the checkpoint (dropped, and
// counted). A checkpoint not ahead of the base is refused.
func TestAdoptCheckpoint(t *testing.T) {
	src := fill(shrunkChain(Config{}), 1, 500)
	cp, ok := src.Checkpoint()
	if !ok || cp.Count != 448 {
		t.Fatalf("checkpoint after 500 entries: %+v, %v", cp, ok)
	}
	catchUp := func(name string, c *Chain) {
		t.Helper()
		if !c.Adopt(cp) {
			t.Fatalf("%s: refused a checkpoint ahead of its base", name)
		}
		if c.TipHeight() < cp.Height || c.Len() < int(cp.Count) {
			t.Fatalf("%s: after adopting, tip height %d, len %d", name, c.TipHeight(), c.Len())
		}
		for _, e := range src.EntriesFrom(0, [32]byte{}, 1<<20) {
			twin := *e
			twin.id = [32]byte{}
			if _, err := c.Insert(&twin, true); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Fatalf("%s: held range: %v", name, err)
			}
		}
		tip, n := c.Tip()
		wantTip, wantN := src.Tip()
		w, tot := c.WindowWeights()
		wantW, wantTot := src.WindowWeights()
		if tip != wantTip || n != wantN || !reflect.DeepEqual(c.CreditSnapshot(), src.CreditSnapshot()) ||
			tot != wantTot || !reflect.DeepEqual(w, wantW) || !reflect.DeepEqual(c.PayoutVector(1e6), src.PayoutVector(1e6)) {
			t.Fatalf("%s: differs from the source after catching up (count %d vs %d)", name, n, wantN)
		}
		if c.Adopt(cp) {
			t.Fatalf("%s: adopted a checkpoint that is not ahead of its base", name)
		}
	}

	catchUp("empty", shrunkChain(Config{}))

	reg := metrics.NewRegistry()
	catchUp("behind", fill(shrunkChain(Config{Metrics: reg}), 1, 100))
	if got := reg.Counter("pool.sharechain_below_horizon").Load(); got != 0 {
		t.Fatalf("behind: counted %d lost, held only entries the checkpoint folded", got)
	}

	reg = metrics.NewRegistry()
	diverged := shrunkChain(Config{Metrics: reg})
	for h := uint64(10); h <= 11; h++ {
		if _, err := diverged.Insert(mkEntry(h, "stray", 1, 0xEE), true); err != nil {
			t.Fatal(err)
		}
	}
	catchUp("diverged", fill(diverged, 1, int(cp.Count)))
	if got := reg.Counter("pool.sharechain_below_horizon").Load(); got != 2 {
		t.Fatalf("diverged: counted %d lost, want the 2 strays", got)
	}
}

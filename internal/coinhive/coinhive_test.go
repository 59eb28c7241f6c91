package coinhive

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockchain"
	"repro/internal/cryptonight"
	"repro/internal/simclock"
	"repro/internal/stratum"
)

func newTestPool(t *testing.T, shareDiff uint64, mut ...func(*PoolConfig)) *Pool {
	t.Helper()
	p := blockchain.SimParams()
	// Keep the network difficulty far above the share difficulty so a test
	// share never accidentally completes a block (at genesis the retarget
	// would otherwise emit difficulty 1 and every share would win).
	p.MinDifficulty = 1 << 40
	chain, err := blockchain.NewChain(p, 1_525_000_000, blockchain.AddressFromString("genesis"))
	if err != nil {
		t.Fatal(err)
	}
	sim := simclock.New(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC))
	cfg := PoolConfig{
		Chain:           chain,
		Wallet:          blockchain.AddressFromString("coinhive-wallet"),
		Clock:           sim,
		ShareDifficulty: shareDiff,
	}
	for _, m := range mut {
		m(&cfg)
	}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestIDCodecRoundTrip(t *testing.T) {
	// The ID sequence is bijective base-36: after "z" comes "00" (all
	// two-character IDs), after "zz" comes "000", and so on — every string
	// in [a-z0-9]{1..4} is eventually assigned, giving the 1,727,604-ID
	// space the paper enumerated.
	cases := map[uint64]string{
		0: "0", 9: "9", 10: "a", 35: "z",
		36: "00", 36 + 35: "0z", 36 + 36: "10", 36 + 36*36 - 1: "zz",
		36 + 36*36: "000",
	}
	for idx, want := range cases {
		if got := idForIndex(idx); got != want {
			t.Errorf("IDForIndex(%d) = %q, want %q", idx, got, want)
		}
	}
}

// TestQuickIDCodec: IDs stay within the 8-byte buffer and distinct
// creation indices never share an ID, so enumeration visits each link once.
func TestQuickIDCodec(t *testing.T) {
	f := func(i, j uint32) bool {
		id := idForIndex(uint64(i))
		if len(id) == 0 || len(id) > 8 {
			return false
		}
		return i == j || id != idForIndex(uint64(j))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIDSpaceMatchesPaperCount(t *testing.T) {
	// Up to 4 characters: 36 + 36² + 36³ + 36⁴ IDs. The paper enumerated
	// 1,709,203 active links within that space.
	space := uint64(36 + 36*36 + 36*36*36 + 36*36*36*36)
	if space != 1_727_604 {
		t.Fatalf("4-char ID space = %d", space)
	}
	if got := idForIndex(space - 1); len(got) != 4 {
		t.Errorf("last 4-char ID = %q", got)
	}
	if got := idForIndex(space); len(got) != 5 {
		t.Errorf("first 5-char ID = %q", got)
	}
}

func TestLinkStoreLifecycle(t *testing.T) {
	s := newLinkStore()
	id := s.Create("tokenA", "https://youtu.be/x", 100)
	if id != "0" {
		t.Errorf("first id = %q", id)
	}
	if _, err := s.destination(id); err == nil {
		t.Error("unresolved link revealed its destination")
	}
	if _, err := s.credit(id, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := s.destination(id); err == nil {
		t.Error("partially resolved link revealed its destination")
	}
	s.credit(id, 60)
	url, err := s.destination(id)
	if err != nil || url != "https://youtu.be/x" {
		t.Errorf("Destination = (%q, %v)", url, err)
	}
	if _, err := s.get("zz"); err != errNoSuchLink {
		t.Errorf("missing link: err = %v", err)
	}
}

func TestJobTopology(t *testing.T) {
	pool := newTestPool(t, 16)
	if pool.NumEndpoints() != 32 {
		t.Fatalf("endpoints = %d, want 32", pool.NumEndpoints())
	}
	// Polling every endpoint across all slots must reveal exactly
	// 16 backends × 8 templates = 128 distinct PoW inputs, and one
	// endpoint alone at most 8 (the paper's key §4.2 observation).
	distinct := map[string]bool{}
	perEndpoint := map[string]bool{}
	for ep := 0; ep < pool.NumEndpoints(); ep++ {
		for slot := 0; slot < 20; slot++ { // oversample slots
			j := pool.Job(ep, slot, false)
			blob, err := stratum.DecodeBlob(j.Blob)
			if err != nil {
				t.Fatal(err)
			}
			distinct[string(blob)] = true
			if ep == 0 {
				perEndpoint[string(blob)] = true
			}
		}
	}
	if len(distinct) != 128 {
		t.Errorf("distinct PoW inputs = %d, want 128", len(distinct))
	}
	if len(perEndpoint) != 8 {
		t.Errorf("distinct inputs on one endpoint = %d, want 8", len(perEndpoint))
	}
	// Two endpoints sharing a backend serve the same inputs.
	j1 := pool.Job(3, 5, false)
	j2 := pool.Job(3+DefaultNumBackends, 5, false)
	if j1.Blob != j2.Blob {
		t.Error("paired endpoints serve different inputs")
	}
}

func TestJobIDCodecRoundTrip(t *testing.T) {
	cases := []jobRef{
		{0, 1, 0, 256},
		{15, 4294967295, 7, 256},
		{3, 42, 5, 16},
		{9, 0, 1, 16},
		{0, 1, 0, 1},
		{15, 4294967295, 7, 4096},
		{9, 7, 3, 8},
	}
	for _, c := range cases {
		id := makeJobID(c.backend, c.seq, c.slot, c.diff)
		ref, ok := parseJobID(id)
		if !ok || ref != c {
			t.Errorf("round trip %+v via %q -> (%+v,%v)", c, id, ref, ok)
		}
	}
	// Every job ID names its difficulty: the suffix-less and "-L" forms
	// of earlier versions are malformed.
	for _, bad := range []string{"", "-", "1-", "1-2", "x-1-2", "1-x-2", "1-2-x", "99999", "-1-2-3", "1-2-3", "1-2-3-L",
		"1-2-3-d", "1-2-3-dx", "1-2-3-d0", "1-2-3-d-1", "1-2-3-L-d", "1-2-3-d16-L", "1-2-d16", "x-2-3-d16"} {
		if _, ok := parseJobID(bad); ok {
			t.Errorf("parseJobID(%q) accepted malformed ID", bad)
		}
	}
}

func TestJobBlobIsObfuscated(t *testing.T) {
	pool := newTestPool(t, 16)
	j := pool.Job(0, 0, false)
	blob, _ := stratum.DecodeBlob(j.Blob)
	// As served, the blob must NOT parse as a clean hashing blob whose
	// prev-hash references the actual tip; after deobfuscation it must.
	_, _, _, errRaw := blockchain.ParseHashingBlob(blob)
	stratum.ObfuscateBlob(blob)
	hdr, root, _, err := blockchain.ParseHashingBlob(blob)
	if err != nil {
		t.Fatalf("deobfuscated blob does not parse: %v", err)
	}
	if hdr.PrevHash != pool.Chain().TipID() {
		t.Error("deobfuscated blob does not reference the tip")
	}
	if root == [32]byte{} {
		t.Error("empty merkle root")
	}
	// The raw blob either fails to parse or parses with a garbled prev.
	if errRaw == nil {
		raw, _ := stratum.DecodeBlob(j.Blob)
		h2, _, _, _ := blockchain.ParseHashingBlob(raw)
		if h2.PrevHash == pool.Chain().TipID() {
			t.Error("served blob was not obfuscated")
		}
	}
}

// mineShare grinds a valid share for the given job, searching from the
// optional start nonce (so a test can mint distinct shares for one job —
// the duplicate memo rejects a replayed nonce by design).
func mineShare(t *testing.T, pool *Pool, j stratum.Job, start ...uint32) (uint32, [32]byte) {
	t.Helper()
	var from uint32
	if len(start) > 0 {
		from = start[0]
	}
	blob, err := stratum.DecodeBlob(j.Blob)
	if err != nil {
		t.Fatal(err)
	}
	stratum.ObfuscateBlob(blob)
	target, err := stratum.DecodeTarget(j.Target)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, _, err := blockchain.ParseHashingBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	_ = hdr
	h, err := cryptonight.NewHasher(pool.Chain().Params().PowVariant)
	if err != nil {
		t.Fatal(err)
	}
	off := hdr.NonceOffset()
	for n := from; n < from+1_000_000; n++ {
		blockchain.SpliceNonce(blob, off, n)
		sum := h.Sum(blob)
		if cryptonight.CheckCompactTarget(sum, target) {
			return n, sum
		}
	}
	t.Fatal("no share found")
	return 0, [32]byte{}
}

func TestSubmitShareCreditsAccount(t *testing.T) {
	pool := newTestPool(t, 16)
	pool.authorize("site-xyz")
	j := pool.Job(0, 0, false)
	nonce, sum := mineShare(t, pool, j)
	if _, err := pool.SubmitShare("site-xyz", j.JobID, nonce, sum, ""); err != nil {
		t.Fatalf("SubmitShare: %v", err)
	}
	a, ok := pool.AccountSnapshot("site-xyz")
	if !ok || a.TotalHashes != 16 {
		t.Errorf("account = %+v", a)
	}
	st := pool.StatsSnapshot()
	if st.SharesOK != 1 || st.SharesBad != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSubmitShareRejectsForgeries(t *testing.T) {
	pool := newTestPool(t, 16)
	j := pool.Job(0, 0, false)
	nonce, sum := mineShare(t, pool, j)
	// Wrong result bytes.
	bad := sum
	bad[0] ^= 1
	if _, err := pool.SubmitShare("t", j.JobID, nonce, bad, ""); err != ErrBadShare {
		t.Errorf("forged result: err = %v", err)
	}
	// Unknown job.
	if _, err := pool.SubmitShare("t", "99999", nonce, sum, ""); err != errUnknownJob {
		t.Errorf("unknown job: err = %v", err)
	}
	// Self-elected difficulty: one no tier serves (vardiff is off) must
	// not resolve. Which served tier a session may claim is the engine's
	// check (TestStaticAndLinkTiersRefuseEachOther).
	if _, err := pool.SubmitShare("t", strings.TrimSuffix(j.JobID, "16")+"1", nonce, sum, ""); err != errUnknownJob {
		t.Errorf("forged difficulty: err = %v", err)
	}
	// Well-formed but never-minted ID (a generation the shard never reached).
	if _, err := pool.SubmitShare("t", "0-999999-0-d16", nonce, sum, ""); err != errUnknownJob {
		t.Errorf("fabricated generation: err = %v", err)
	}
	// Replay after tip change: force a new tip via ProduceWinningBlock.
	// Unlike the forgeries above, this identifier was really minted, so
	// the rejection names it stale.
	if _, err := pool.ProduceWinningBlock(1_525_000_300, 0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.SubmitShare("t", j.JobID, nonce, sum, ""); err != errStaleJob {
		t.Errorf("stale job: err = %v", err)
	}
}

func TestProduceWinningBlockSettlesRevenue(t *testing.T) {
	pool := newTestPool(t, 16)
	pool.authorize("heavy-user")
	// Credit some round hashes so the 70% goes somewhere.
	j := pool.Job(0, 0, false)
	nonce, sum := mineShare(t, pool, j)
	if _, err := pool.SubmitShare("heavy-user", j.JobID, nonce, sum, ""); err != nil {
		t.Fatal(err)
	}
	heightBefore := pool.Chain().Height()
	blk, err := pool.ProduceWinningBlock(1_525_000_300, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Chain().Height() != heightBefore+1 {
		t.Error("block not appended")
	}
	reward := blk.Coinbase.Amount
	st := pool.StatsSnapshot()
	if st.BlocksFound != 1 {
		t.Errorf("blocks found = %d", st.BlocksFound)
	}
	a, _ := pool.AccountSnapshot("heavy-user")
	wantUser := reward * 70 / 100
	if a.BalanceAtomic != wantUser {
		t.Errorf("user balance = %d, want %d (70%% of %d)", a.BalanceAtomic, wantUser, reward)
	}
	if st.KeptAtomic != reward-wantUser {
		t.Errorf("pool kept = %d, want %d", st.KeptAtomic, reward-wantUser)
	}
	if st.PaidAtomic+st.KeptAtomic != reward {
		t.Error("payout does not conserve the reward")
	}
}

func TestRevenueSplitProportionalToHashes(t *testing.T) {
	pool := newTestPool(t, 16)
	// Two users, 3:1 share ratio.
	for i := 0; i < 4; i++ {
		token := "big"
		if i == 3 {
			token = "small"
		}
		j := pool.Job(i, i, false)
		nonce, sum := mineShare(t, pool, j)
		if _, err := pool.SubmitShare(token, j.JobID, nonce, sum, ""); err != nil {
			t.Fatal(err)
		}
	}
	blk, err := pool.ProduceWinningBlock(1_525_000_300, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	userPart := blk.Coinbase.Amount * 70 / 100
	big, _ := pool.AccountSnapshot("big")
	small, _ := pool.AccountSnapshot("small")
	if big.BalanceAtomic != userPart*3/4 {
		t.Errorf("big = %d, want %d", big.BalanceAtomic, userPart*3/4)
	}
	if small.BalanceAtomic != userPart/4 {
		t.Errorf("small = %d, want %d", small.BalanceAtomic, userPart/4)
	}
}

// TestRoundPayoutsAtVardiffScaleWeights: two equal miners at a vardiff tier
// of 2^20 split the sim chain's user part in half — userPart × weight does
// not fit in 64 bits there, and the remainder used to land in kept.
func TestRoundPayoutsAtVardiffScaleWeights(t *testing.T) {
	pool := newTestPool(t, 16)
	const reward = 35_184_372_088_832
	const userPart = reward * 70 / 100
	for shift := 20; shift <= 40; shift += 10 {
		payouts := pool.roundPayouts(reward, map[string]uint64{"a": 1 << shift, "b": 1 << shift})
		if len(payouts) != 2 || payouts[0].Amount != userPart/2 || payouts[1].Amount != userPart/2 {
			t.Errorf("weights 2^%d: payouts %v, want two of %d", shift, payouts, uint64(userPart/2))
		}
	}
}

func TestShareCreditsLinkGoal(t *testing.T) {
	pool := newTestPool(t, 16)
	id := pool.Links().Create("creator", "https://example.org/file", 32)
	// Two 16-hash shares meet the 32-hash goal.
	for i := 0; i < 2; i++ {
		j := pool.Job(0, i, false)
		nonce, sum := mineShare(t, pool, j)
		if _, err := pool.SubmitShare("creator", j.JobID, nonce, sum, id); err != nil {
			t.Fatal(err)
		}
	}
	url, err := pool.Links().destination(id)
	if err != nil || url != "https://example.org/file" {
		t.Errorf("Destination = (%q, %v)", url, err)
	}
}

func TestMinerScriptCarriesBlocklistMarkers(t *testing.T) {
	for _, marker := range []string{"coinhive.min.js", "CoinHive.Anonymous", "cryptonight.wasm"} {
		if !strings.Contains(minerScript, marker) {
			t.Errorf("miner script lacks marker %q", marker)
		}
	}
}

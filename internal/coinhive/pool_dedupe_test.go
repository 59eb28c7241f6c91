package coinhive

import (
	"fmt"
	"testing"
)

// TestPoolDuplicateShareRejected pins the pool-layer dedupe beneath the
// engine's session memo: the same (job, nonce) can never credit the same
// account twice, whatever session or transport it arrives through.
func TestPoolDuplicateShareRejected(t *testing.T) {
	pool := newTestPool(t, 16)
	j := pool.Job(0, 0, false)
	nonce, sum := mineShare(t, pool, j)

	if _, err := pool.SubmitShare("dup-site", j.JobID, nonce, sum, ""); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// The replay is rejected by name and credits nothing.
	if _, err := pool.SubmitShare("dup-site", j.JobID, nonce, sum, ""); err != errDuplicateShare {
		t.Fatalf("replay: err = %v, want ErrDuplicateShare", err)
	}
	st := pool.StatsSnapshot()
	if st.SharesOK != 1 || st.SharesDuplicate != 1 {
		t.Errorf("SharesOK=%d SharesDuplicate=%d, want 1,1", st.SharesOK, st.SharesDuplicate)
	}
	if a, ok := pool.AccountSnapshot("dup-site"); !ok || a.TotalHashes != 16 {
		t.Errorf("account credit = %d, want 16 (one share at difficulty 16)", a.TotalHashes)
	}

	// The memo is per-account, mirroring the subject service's (absent)
	// cross-account defense: another account may submit the same share,
	// including one that shares dup-site's lock stripe.
	other := "other-site"
	for i := 0; pool.stripeFor(other) != pool.stripeFor("dup-site"); i++ {
		other = fmt.Sprintf("other-site-%d", i)
	}
	if _, err := pool.SubmitShare(other, j.JobID, nonce, sum, ""); err != nil {
		t.Errorf("cross-account share on the same stripe rejected: %v", err)
	}

	// A distinct nonce on the same job still credits the first account.
	nonce2, sum2 := mineShare(t, pool, j, nonce+1)
	if _, err := pool.SubmitShare("dup-site", j.JobID, nonce2, sum2, ""); err != nil {
		t.Errorf("fresh nonce rejected: %v", err)
	}
	if a, _ := pool.AccountSnapshot("dup-site"); a.TotalHashes != 32 {
		t.Errorf("credit after fresh nonce = %d, want 32", a.TotalHashes)
	}
}

// TestPoolDuplicateAcrossTiersRejected pins the tier-independence of the
// dedupe key: a retargeted job ID names the same PoW blob as its static
// and other-tier siblings, so one nonce is credited once — never once per
// difficulty tier. Keying the memo on the full ID string would let a
// miner straddling a retarget resubmit the same hash under the old- and
// new-tier IDs for double credit.
func TestPoolDuplicateAcrossTiersRejected(t *testing.T) {
	pool := newTestPool(t, 16, func(c *PoolConfig) {
		c.Vardiff = VardiffConfig{TargetSharesPerMin: 240, MinDifficulty: 1, MaxDifficulty: 4096}
	})
	jLow := pool.jobWire(0, 0, 4).job
	jHigh := pool.jobWire(0, 0, 32).job
	jStatic := pool.Job(0, 0, false)
	// One hash ground against the hardest tier meets every lower target.
	nonce, sum := mineShare(t, pool, jHigh)

	if out, err := pool.SubmitShare("tier-site", jLow.JobID, nonce, sum, ""); err != nil || out.diff != 4 {
		t.Fatalf("low-tier submit: diff=%d err=%v, want 4,nil", out.diff, err)
	}
	// The same nonce under any sibling tier's ID is the same work.
	if _, err := pool.SubmitShare("tier-site", jHigh.JobID, nonce, sum, ""); err != errDuplicateShare {
		t.Errorf("high-tier replay: err = %v, want ErrDuplicateShare", err)
	}
	if _, err := pool.SubmitShare("tier-site", jStatic.JobID, nonce, sum, ""); err != errDuplicateShare {
		t.Errorf("static-tier replay: err = %v, want ErrDuplicateShare", err)
	}
	if a, _ := pool.AccountSnapshot("tier-site"); a.TotalHashes != 4 {
		t.Errorf("credit = %d, want 4 (the one tier actually paid)", a.TotalHashes)
	}
	if st := pool.StatsSnapshot(); st.SharesOK != 1 || st.SharesDuplicate != 2 {
		t.Errorf("SharesOK=%d SharesDuplicate=%d, want 1,2", st.SharesOK, st.SharesDuplicate)
	}
}

// TestPoolShareMemoRingEviction pins the memo's bounded-memory contract:
// it remembers only the most recent shareMemoSize shares per account, so
// an ancient share replays successfully (the window is an abuse bound,
// not a ledger) while anything inside the window stays rejected.
func TestPoolShareMemoRingEviction(t *testing.T) {
	pool := newTestPool(t, 16)
	j := pool.Job(0, 0, false)

	shares := make([]struct {
		nonce uint32
		sum   [32]byte
	}, shareMemoSize+1)
	next := uint32(0)
	for i := range shares {
		shares[i].nonce, shares[i].sum = mineShare(t, pool, j, next)
		next = shares[i].nonce + 1
		if _, err := pool.SubmitShare("ring-site", j.JobID, shares[i].nonce, shares[i].sum, ""); err != nil {
			t.Fatalf("share %d: %v", i, err)
		}
	}
	// Shares 1..128 occupy the 128-slot ring; share 0 has been evicted.
	if _, err := pool.SubmitShare("ring-site", j.JobID, shares[shareMemoSize].nonce, shares[shareMemoSize].sum, ""); err != errDuplicateShare {
		t.Errorf("in-window replay: err = %v, want ErrDuplicateShare", err)
	}
	if _, err := pool.SubmitShare("ring-site", j.JobID, shares[0].nonce, shares[0].sum, ""); err != nil {
		t.Errorf("evicted share replay: err = %v, want credit (outside the memo window)", err)
	}
}

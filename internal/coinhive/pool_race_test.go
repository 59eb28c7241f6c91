package coinhive

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stratum"
)

// preminedShare is a solved job ready for submission. Jobs stay live
// until the tip moves, so submitting one exercises the full verify+credit
// path — exactly what the race tests below need.
type preminedShare struct {
	jobID string
	nonce uint32
	sum   [32]byte
}

// premineShares solves n distinct shares: jobs cycle through endpoints
// and slots, and a job met again is solved past its last nonce, so the
// duplicate memo never sees one share twice.
func premineShares(t *testing.T, pool *Pool, n int) []preminedShare {
	t.Helper()
	shares := make([]preminedShare, n)
	next := map[string]uint32{}
	for i := range shares {
		j := pool.Job(i%pool.NumEndpoints(), i, false)
		nonce, sum := mineShare(t, pool, j, next[j.JobID])
		next[j.JobID] = nonce + 1
		shares[i] = preminedShare{jobID: j.JobID, nonce: nonce, sum: sum}
	}
	return shares
}

// TestPoolConcurrentSubmitJobStats hammers one Pool from 10 goroutines:
// valid submitters, forging submitters, job pollers and stats readers, all
// at once. Run under -race this is the shard/stripe layout's proof of
// data-race freedom; the counter assertions prove no share is lost or
// double-counted under contention.
func TestPoolConcurrentSubmitJobStats(t *testing.T) {
	pool := newTestPool(t, 8)
	const (
		submitters = 4
		forgers    = 2
		rounds     = 40
	)
	// Every valid submission is a share of its own, and the forgers forge
	// from 16 shares no submitter credits, so each forgery fails at the
	// verify rather than at the duplicate memo.
	shares := premineShares(t, pool, submitters*rounds+16)
	forgeable := shares[submitters*rounds:]
	var accepted, rejected atomic.Uint64
	var wg sync.WaitGroup

	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := shares[g*rounds+i]
				if _, err := pool.SubmitShare("conc-site", s.jobID, s.nonce, s.sum, ""); err != nil {
					t.Errorf("valid share rejected: %v", err)
					return
				}
				accepted.Add(1)
			}
		}(g)
	}
	for g := 0; g < forgers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := forgeable[(g*rounds+i)%len(forgeable)]
				bad := s.sum
				bad[0] ^= 0xFF
				if _, err := pool.SubmitShare("conc-site", s.jobID, s.nonce, bad, ""); err != ErrBadShare {
					t.Errorf("forged share: err = %v, want ErrBadShare", err)
					return
				}
				rejected.Add(1)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < submitters*rounds; i++ {
			j := pool.Job(i%pool.NumEndpoints(), i, i%3 == 0)
			if j.JobID == "" || j.Blob == "" {
				t.Error("empty job under contention")
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var bq [32]byte
		for i := 0; i < submitters*rounds; i++ {
			if _, err := stratum.DecodeBlob(pool.Job(i, i, false).Blob); err != nil {
				t.Errorf("job blob corrupt under contention: %v", err)
				return
			}
			if _, err := pool.SubmitShare("conc-site", "not-a-job", 0, bq, ""); err != errUnknownJob {
				t.Errorf("unknown job: err = %v", err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < submitters*rounds; i++ {
				st := pool.StatsSnapshot()
				if st.SharesOK > uint64(submitters*rounds) {
					t.Errorf("SharesOK overshot: %d", st.SharesOK)
					return
				}
				pool.AccountSnapshot("conc-site")
				pool.RefreshIfStale()
			}
		}()
	}
	wg.Wait()

	st := pool.StatsSnapshot()
	if st.SharesOK != accepted.Load() {
		t.Errorf("SharesOK = %d, want %d", st.SharesOK, accepted.Load())
	}
	// Forgeries plus the stats goroutine's unknown-job probes.
	wantBad := rejected.Load() + uint64(submitters*rounds)
	if st.SharesBad != wantBad {
		t.Errorf("SharesBad = %d, want %d", st.SharesBad, wantBad)
	}
	a, ok := pool.AccountSnapshot("conc-site")
	if !ok || a.TotalHashes != accepted.Load()*8 {
		t.Errorf("account credit = %d, want %d", a.TotalHashes, accepted.Load()*8)
	}
}

// TestPoolConcurrentSettlement races share submission against winning
// blocks (tip changes, shard refreshes, reward settlement). Stale shares
// may be rejected, but the revenue conservation invariant must hold
// exactly: every found block's reward splits into paid + kept.
func TestPoolConcurrentSettlement(t *testing.T) {
	pool := newTestPool(t, 8)
	shares := premineShares(t, pool, 8*25)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s := shares[g*25+i]
				_, err := pool.SubmitShare("settle-site", s.jobID, s.nonce, s.sum, "")
				if err != nil && err != errStaleJob {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts := uint64(1_525_000_300)
		for i := 0; i < 5; i++ {
			ts += 200
			if _, err := pool.ProduceWinningBlock(ts, i, uint32(i*37)); err != nil {
				t.Errorf("ProduceWinningBlock: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	st := pool.StatsSnapshot()
	if st.BlocksFound != 5 {
		t.Fatalf("blocks found = %d, want 5", st.BlocksFound)
	}
	var rewards uint64
	for _, fb := range pool.FoundBlocks() {
		rewards += fb.Reward
	}
	if st.PaidAtomic+st.KeptAtomic != rewards {
		t.Errorf("paid %d + kept %d != total rewards %d", st.PaidAtomic, st.KeptAtomic, rewards)
	}
}

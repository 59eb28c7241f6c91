package coinhive

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/cryptonight"
	"repro/internal/stratum"
)

// rejectPool is newTestPool with vardiff on (so tier IDs are meaningful)
// and a memory archive behind the hook, so each reject reason's archive
// event can be read back.
func rejectPool(t *testing.T) (*Pool, *archive.MemStore, *archive.Recorder) {
	t.Helper()
	store := archive.NewMemStore(1 << 10)
	rec := archive.NewRecorder(store, nil, 0)
	t.Cleanup(func() { rec.Close() })
	pool := newTestPool(t, 16, func(c *PoolConfig) {
		c.Vardiff = VardiffConfig{TargetSharesPerMin: 240, MinDifficulty: 1, MaxDifficulty: 4096}
		c.Archive = rec
	})
	return pool, store, rec
}

// lowShare returns a nonce whose (correct) hash misses the job's target.
func lowShare(t *testing.T, pool *Pool, j stratum.Job) (uint32, [32]byte) {
	t.Helper()
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
	h, err := cryptonight.NewHasher(pool.Chain().Params().PowVariant)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint32(0); n < 1000; n++ {
		blockchain.SpliceNonce(blob, hdr.NonceOffset(), n)
		if sum := h.Sum(blob); !cryptonight.CheckCompactTarget(sum, target) {
			return n, sum
		}
	}
	t.Fatal("every nonce met the target")
	return 0, [32]byte{}
}

// waitSubmittersAtShard blocks until n goroutines sit in the pool's
// template lookup waiting for the shard lock the caller holds — i.e.
// until n submitters are past the duplicate pre-check.
func waitSubmittersAtShard(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*RWMutex).RLock") && strings.Contains(g, "coinhive.(*Pool).") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("%d submitters never reached the shard lock", n)
}

// TestSubmitShareRejectReasons pins what every way out of SubmitShare
// other than credit looks like from outside: the error, one
// pool.shares_bad, pool.shares_duplicate for the two duplicate exits
// only, and one archive event of the reason's kind.
func TestSubmitShareRejectReasons(t *testing.T) {
	type share struct {
		jobID string
		nonce uint32
		sum   [32]byte
	}
	mined := func(t *testing.T, pool *Pool) share {
		j := pool.Job(0, 0, false)
		nonce, sum := mineShare(t, pool, j)
		return share{j.JobID, nonce, sum}
	}
	withID := func(id string) func(*testing.T, *Pool) share {
		return func(t *testing.T, pool *Pool) share {
			s := mined(t, pool)
			s.jobID = id
			return s
		}
	}
	cases := []struct {
		name string
		// prepare runs before the counters are read and returns the share
		// whose submission must be rejected.
		prepare  func(t *testing.T, pool *Pool) share
		wantErr  error
		wantKind archive.Kind
		wantDup  bool
		// twice submits the share from two goroutines that have both
		// passed the pre-verify duplicate check: one is credited, the
		// other is the rejection under test.
		twice bool
	}{
		{name: "malformed ID", prepare: withID("not-a-job"), wantErr: errUnknownJob, wantKind: archive.KindShareRejected},
		{name: "backend out of range", prepare: withID("99-1-0-d16"), wantErr: errUnknownJob, wantKind: archive.KindShareRejected},
		{name: "slot out of range", prepare: withID("0-1-99-d16"), wantErr: errUnknownJob, wantKind: archive.KindShareRejected},
		{name: "forged vardiff tier", prepare: withID("0-1-0-d8192"), wantErr: errUnknownJob, wantKind: archive.KindShareRejected},
		{name: "pre-verify duplicate", prepare: func(t *testing.T, pool *Pool) share {
			s := mined(t, pool)
			if _, err := pool.SubmitShare("site", s.jobID, s.nonce, s.sum, ""); err != nil {
				t.Fatal(err)
			}
			return s
		}, wantErr: errDuplicateShare, wantKind: archive.KindShareDuplicate, wantDup: true},
		{name: "stale", prepare: func(t *testing.T, pool *Pool) share {
			s := mined(t, pool)
			if _, err := pool.ProduceWinningBlock(1_525_000_300, 0, 7); err != nil {
				t.Fatal(err)
			}
			return s
		}, wantErr: errStaleJob, wantKind: archive.KindShareStale},
		{name: "never issued", prepare: withID("0-999999-0-d16"), wantErr: errUnknownJob, wantKind: archive.KindShareRejected},
		// The link tier's ID at the next generation: a well-formed ID at a
		// served difficulty that the shard has not minted yet.
		{name: "never issued link tier", prepare: func(t *testing.T, pool *Pool) share {
			s := mined(t, pool)
			ref, _ := parseJobID(s.jobID)
			s.jobID = makeJobID(ref.backend, ref.seq+1, ref.slot, pool.cfg.LinkShareDifficulty)
			return s
		}, wantErr: errUnknownJob, wantKind: archive.KindShareRejected},
		{name: "bad hash", prepare: func(t *testing.T, pool *Pool) share {
			s := mined(t, pool)
			s.sum[0] ^= 1
			return s
		}, wantErr: ErrBadShare, wantKind: archive.KindShareRejected},
		{name: "low hash", prepare: func(t *testing.T, pool *Pool) share {
			j := pool.Job(0, 0, false)
			nonce, sum := lowShare(t, pool, j)
			return share{j.JobID, nonce, sum}
		}, wantErr: errLowShare, wantKind: archive.KindShareRejected},
		{name: "credit-time duplicate", prepare: mined, twice: true,
			wantErr: errDuplicateShare, wantKind: archive.KindShareDuplicate, wantDup: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pool, store, rec := rejectPool(t)
			s := tc.prepare(t, pool)
			rec.Flush()
			before := pool.StatsSnapshot()
			_, cursor, _ := store.Next(archive.Cursor{}, make([]archive.Event, 1<<10)) // the whole ring

			var errs []error
			if tc.twice {
				sh := pool.backends[0]
				sh.mu.Lock()
				done := make(chan error, 2)
				for i := 0; i < 2; i++ {
					go func() {
						_, err := pool.SubmitShare("site", s.jobID, s.nonce, s.sum, "")
						done <- err
					}()
				}
				waitSubmittersAtShard(t, 2)
				sh.mu.Unlock()
				errs = []error{<-done, <-done}
				if errs[0] == nil {
					errs[0], errs[1] = errs[1], errs[0]
				}
				if errs[1] != nil {
					t.Fatalf("neither concurrent submission was credited: %v, %v", errs[0], errs[1])
				}
			} else {
				_, err := pool.SubmitShare("site", s.jobID, s.nonce, s.sum, "")
				errs = []error{err}
			}
			if errs[0] != tc.wantErr {
				t.Errorf("err = %v, want %v", errs[0], tc.wantErr)
			}

			rec.Flush()
			after := pool.StatsSnapshot()
			if got := after.SharesBad - before.SharesBad; got != 1 {
				t.Errorf("pool.shares_bad moved by %d, want 1", got)
			}
			wantDup := uint64(0)
			if tc.wantDup {
				wantDup = 1
			}
			if got := after.SharesDuplicate - before.SharesDuplicate; got != wantDup {
				t.Errorf("pool.shares_duplicate moved by %d, want %d", got, wantDup)
			}
			if got := after.SharesOK - before.SharesOK; got != uint64(len(errs)-1) {
				t.Errorf("pool.shares_ok moved by %d, want %d", got, len(errs)-1)
			}
			evs := make([]archive.Event, 8)
			n, _, _ := store.Next(cursor, evs)
			var rejects []archive.Event
			for _, ev := range evs[:n] {
				if ev.Kind != archive.KindShareAccepted {
					rejects = append(rejects, ev)
				}
			}
			if n != len(errs) || len(rejects) != 1 {
				t.Fatalf("archived %d events (%d rejections), want %d (1): %+v", n, len(rejects), len(errs), evs[:n])
			}
			if ev := rejects[0]; ev.Kind != tc.wantKind || ev.Actor != "site" || ev.Ref != s.jobID || ev.Aux != uint64(s.nonce) {
				t.Errorf("archived %+v, want kind %v for site/%s/%d", ev, tc.wantKind, s.jobID, s.nonce)
			}
		})
	}
}

// FuzzParseJobID: arbitrary strings never panic the parser, anything it
// accepts re-encodes to an ID that parses to the same fields, and every
// minted ID parses back to what it was minted from.
func FuzzParseJobID(f *testing.F) {
	for _, seed := range []string{"0-1-0-d256", "15-4294967295-7-d16", "3-42-5-L", "9-7-3-d8", "", "-", "1-2--d4", "1-2-3-d0", "1-2-3-L-d"} {
		f.Add(seed, 0, uint32(0), 0, uint64(1))
	}
	f.Add("", 15, uint32(1<<31), 7, uint64(16))
	f.Add("", 3, uint32(9), 2, uint64(4096))
	f.Fuzz(func(t *testing.T, id string, backend int, seq uint32, slot int, diff uint64) {
		if ref, ok := parseJobID(id); ok {
			again, ok := parseJobID(makeJobID(ref.backend, ref.seq, ref.slot, ref.diff))
			if !ok || again != ref {
				t.Fatalf("parseJobID(%q) = %+v does not survive re-encoding", id, ref)
			}
		}
		// What the pool mints: non-negative indices, a non-zero difficulty.
		if backend < 0 || slot < 0 || diff == 0 {
			return
		}
		minted := makeJobID(backend, seq, slot, diff)
		if ref, ok := parseJobID(minted); !ok || ref != (jobRef{backend, seq, slot, diff}) {
			t.Fatalf("parseJobID(makeJobID(%d,%d,%d,%d) = %q) = (%+v,%v)",
				backend, seq, slot, diff, minted, ref, ok)
		}
	})
}

// TestStaticAndLinkTiersRefuseEachOther pins the served-tier rule with
// vardiff off: a session may submit only the difficulty it is served. A
// static session's share that meets only the link target, sent under
// the link-tier ID of its own slot, is a forged tier — and so is a link
// session's share under the static-tier ID, which would credit its link
// goal at the wrong difficulty. Each gets the forged-tier answer a
// vardiff session gets: server.shares_forged, the offense scored, a
// re-job, and no credit.
func TestStaticAndLinkTiersRefuseEachOther(t *testing.T) {
	pool := newTestPool(t, 256, func(c *PoolConfig) {
		c.Ban = BanConfig{BanThreshold: 1000, BanDuration: time.Minute}
	})
	eng := NewEngine(pool)
	forged := pool.Metrics().Counter("server.shares_forged")
	// grind returns a share for j whose hash misses the static target
	// unless meetsStatic, so it meets only the tier j names.
	grind := func(j stratum.Job, meetsStatic bool) (uint32, [32]byte) {
		static := cryptonight.DifficultyForTarget(pool.cfg.ShareDifficulty)
		for from := uint32(0); ; {
			nonce, sum := mineShare(t, pool, j, from)
			if cryptonight.CheckCompactTarget(sum, static) == meetsStatic {
				return nonce, sum
			}
			from = nonce + 1
		}
	}
	cases := []struct {
		name, user string
		// claimLink: the session submits under the link tier's ID for its
		// own slot; otherwise under the static tier's.
		claimLink bool
	}{
		{"static session claims the link tier", "", true},
		{"link session claims the static tier", "link:" + pool.Links().Create("tier-site", "https://example.org", 1<<20), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			site := "site-" + tc.name
			ms := eng.NewSession(0)
			defer ms.Close()
			ms.Step(Command{Kind: CmdOpen, Auth: stratum.Auth{SiteKey: site, Type: "anonymous", User: tc.user}})
			if !ms.authed.Load() {
				t.Fatal("session did not open")
			}
			claimed := pool.Job(0, ms.slot, tc.claimLink)
			nonce, sum := grind(claimed, !tc.claimLink)
			forged0 := forged.Load()
			evs := ms.Step(Command{Kind: CmdSubmit, JobID: claimed.JobID, Nonce: nonce, Result: sum})
			if len(evs) != 1 || evs[0].Kind != EvJob || !evs[0].stale {
				t.Fatalf("replies %+v, want one stale re-job", evs)
			}
			if got := forged.Load() - forged0; got != 1 {
				t.Errorf("server.shares_forged moved by %d, want 1", got)
			}
			if score, _ := eng.AbuseState(site); score != 10 {
				t.Errorf("banscore = %v, want one offense (10)", score)
			}
			if a, _ := pool.AccountSnapshot(site); a.TotalHashes != 0 {
				t.Errorf("credited %d hashes for a forged tier, want 0", a.TotalHashes)
			}
		})
	}
}

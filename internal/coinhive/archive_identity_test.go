package coinhive_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/coinhive"
	"repro/internal/session"
	"repro/internal/stratum"
)

// drainStore reads every event the store holds, from the zero cursor.
func drainStore(t *testing.T, s archive.Store) []archive.Event {
	t.Helper()
	var (
		out []archive.Event
		cur archive.Cursor
		buf [64]archive.Event
	)
	for {
		n, next, err := s.Next(cur, buf[:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
		cur = next
	}
}

// TestArchiveReplayMatchesLiveAttribution is the acceptance bar for the
// durable archive: attribution recomputed from the file-backed event log
// must agree bit-for-bit with the live pool's own books — same blocks,
// same owners, same credit — on one share stream that ran both paths.
func TestArchiveReplayMatchesLiveAttribution(t *testing.T) {
	dir := t.TempDir()
	fstore, err := archive.OpenFileStore(dir, archive.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := archive.NewRecorder(fstore, nil, 0)
	_, _, pool := startService(t, 16, func(c *coinhive.PoolConfig) {
		c.Archive = rec
	})

	// Three accounts at a 3:2:1 share ratio, mined across distinct
	// backend/slot jobs so every share is fresh work.
	tokens := []string{"site-alpha", "site-beta", "site-gamma"}
	counts := []int{3, 2, 1}
	slot := 0
	for i, token := range tokens {
		for n := 0; n < counts[i]; n++ {
			wire := pool.Job(slot, slot, false)
			slot++
			job, err := session.DecodeJob(wire)
			if err != nil {
				t.Fatal(err)
			}
			nonce, sum := grindShare(t, pool, job)
			if _, err := pool.SubmitShare(token, wire.JobID, nonce, sum, ""); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Two settlements: payouts archive against two distinct heights.
	if _, err := pool.ProduceWinningBlock(1_525_100_000, 0, 7); err != nil {
		t.Fatal(err)
	}
	wire := pool.Job(9, 9, false)
	job, err := session.DecodeJob(wire)
	if err != nil {
		t.Fatal(err)
	}
	nonce, sum := grindShare(t, pool, job)
	if _, err := pool.SubmitShare("site-alpha", wire.JobID, nonce, sum, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.ProduceWinningBlock(1_525_100_060, 3, 42); err != nil {
		t.Fatal(err)
	}

	// Close drains the queue, fsyncs and closes the file store — the
	// same path a daemon shutdown takes before -from-archive replay.
	rec.Close()
	reopened, err := archive.OpenFileStore(dir, archive.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	res, err := archive.Replay(reopened)
	if err != nil {
		t.Fatal(err)
	}

	st := pool.StatsSnapshot()
	if res.SharesAccepted != st.SharesOK {
		t.Errorf("replayed %d accepted shares, live pool counted %d", res.SharesAccepted, st.SharesOK)
	}
	if res.ChainHeight != pool.Chain().Height() {
		t.Errorf("replayed chain height %d, live %d", res.ChainHeight, pool.Chain().Height())
	}

	live := pool.FoundBlocks()
	if len(res.Blocks) != len(live) {
		t.Fatalf("replayed %d blocks, live found %d", len(res.Blocks), len(live))
	}
	for i, b := range live {
		r := res.Blocks[i]
		if r.Height != b.Height || r.Timestamp != b.Timestamp ||
			r.Backend != b.Backend || r.Reward != b.Reward {
			t.Errorf("block %d diverges: replay %+v, live %+v", i, r, b)
		}
	}

	if len(res.Credit) != len(tokens) {
		t.Errorf("replay credits %d accounts, want %d", len(res.Credit), len(tokens))
	}
	for _, token := range tokens {
		acct, ok := pool.AccountSnapshot(token)
		if !ok {
			t.Fatalf("live account %q missing", token)
		}
		if res.Credit[token] != acct.TotalHashes {
			t.Errorf("%s: replayed credit %d, live %d", token, res.Credit[token], acct.TotalHashes)
		}
		if res.Paid[token] != acct.BalanceAtomic {
			t.Errorf("%s: replayed payout %d, live balance %d", token, res.Paid[token], acct.BalanceAtomic)
		}
	}
}

// TestCrossTransportArchiveIdentical extends the defended cross-transport
// identity bar to the archive layer: the same hostile-then-honest share
// stream driven over ws and raw TCP must leave byte-identical archived
// event sequences. The frozen test clock keeps timestamps equal, so any
// divergence is a real transport-dependent emission.
func TestCrossTransportArchiveIdentical(t *testing.T) {
	const siteKey = "xarchive-key"

	run := func(t *testing.T, dial func(srv *httptestServerPair) (*session.Session, error)) []archive.Event {
		store := archive.NewMemStore(1 << 12)
		rec := archive.NewRecorder(store, nil, 0)
		srv := newServicePair(t, 4, func(c *coinhive.PoolConfig) {
			c.Vardiff = coinhive.VardiffConfig{
				TargetSharesPerMin: 240,
				MinDifficulty:      1,
				MaxDifficulty:      4096,
			}
			c.Ban = coinhive.BanConfig{
				BanThreshold: 40,
				BanDuration:  time.Minute,
			}
			c.Archive = rec
		})
		sess, err := dial(srv)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sess.Timeout = 5 * time.Second
		_, job, err := sess.Login()
		if err != nil {
			t.Fatal(err)
		}

		// Four accepts fill the vardiff window (deterministic ×8 retarget),
		// one grace share rides the old tier, then a duplicate flood ends
		// in a ban — the full defended repertoire, every step archived.
		var nonce uint32
		var sum [32]byte
		submitOne := func(needJob bool) {
			t.Helper()
			if err := sess.Submit(job.ID, nonce, sum); err != nil {
				t.Fatal(err)
			}
			accepted := false
			for !accepted || needJob {
				env, err := sess.ReadEnvelope()
				if err != nil {
					t.Fatal(err)
				}
				switch env.Type {
				case stratum.TypeHashAccepted:
					accepted = true
				case stratum.TypeJob:
					needJob = false
				default:
					t.Fatalf("unexpected %s", env.Type)
				}
			}
		}
		for i := 0; i < 4; i++ {
			if i == 0 {
				nonce, sum = grindShare(t, srv.pool, job)
			} else {
				nonce, sum = grindShare(t, srv.pool, job, nonce+1)
			}
			submitOne(!sess.ServerClocked() || i == 3)
		}
		nonce, sum = grindShare(t, srv.pool, job, nonce+1)
		submitOne(!sess.ServerClocked())
		for i := 0; i < 4; i++ {
			if err := sess.Submit(job.ID, nonce, sum); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.ReadEnvelope(); err != nil {
				t.Fatal(err)
			}
		}

		// Flush is the read barrier: every Record before it is in the store.
		rec.Flush()
		return drainStore(t, store)
	}

	wsEvents := run(t, func(srv *httptestServerPair) (*session.Session, error) {
		return session.Dial(srv.wsURL(1), stratum.Auth{SiteKey: siteKey, Type: "anonymous"})
	})
	tcpEvents := run(t, func(srv *httptestServerPair) (*session.Session, error) {
		return session.Dial("tcp://"+srv.tcpAddr, stratum.Auth{SiteKey: siteKey, Type: "anonymous"})
	})

	if len(wsEvents) != len(tcpEvents) {
		t.Fatalf("event counts diverge: ws %d, tcp %d\n ws=%+v\ntcp=%+v",
			len(wsEvents), len(tcpEvents), wsEvents, tcpEvents)
	}
	// Byte-level comparison over the wire encoding: the bar is an
	// identical durable record, not merely equivalent structs.
	var wsBytes, tcpBytes []byte
	for i := range wsEvents {
		wsBytes = archive.AppendRecord(wsBytes, &wsEvents[i])
		tcpBytes = archive.AppendRecord(tcpBytes, &tcpEvents[i])
	}
	if !bytes.Equal(wsBytes, tcpBytes) {
		for i := range wsEvents {
			if wsEvents[i] != tcpEvents[i] {
				t.Errorf("event %d diverges:\n ws=%+v\ntcp=%+v", i, wsEvents[i], tcpEvents[i])
			}
		}
		t.Fatal("archived byte streams diverge")
	}
	if len(wsEvents) == 0 {
		t.Fatal("no events archived")
	}
}

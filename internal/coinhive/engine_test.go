package coinhive_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/coinhive"
	"repro/internal/cryptonight"
	"repro/internal/session"
	"repro/internal/stratum"
)

// startStratum attaches a raw-TCP stratum front to an existing ws
// service, sharing its engine, and returns the listener address. A
// non-zero keepalive window must be configured here, before Serve.
func startStratum(t *testing.T, handler *coinhive.Server, keepalive ...time.Duration) (*coinhive.StratumServer, string) {
	t.Helper()
	ss := coinhive.NewStratumServer(handler.Engine())
	if len(keepalive) > 0 {
		ss.SetKeepaliveWindow(keepalive[0])
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve(ln)
	t.Cleanup(ss.Shutdown)
	return ss, ln.Addr().String()
}

// grindShare finds one nonce meeting the job's share target, searching
// from the optional start nonce (so callers can mint distinct shares for
// one job — the duplicate memos reject a replayed nonce by design).
func grindShare(t *testing.T, pool *coinhive.Pool, job session.Job, start ...uint32) (uint32, [32]byte) {
	t.Helper()
	var from uint32
	if len(start) > 0 {
		from = start[0]
	}
	h, err := cryptonight.GetHasher(pool.Chain().Params().PowVariant)
	if err != nil {
		t.Fatal(err)
	}
	defer cryptonight.PutHasher(h)
	nonce, sum, _, found := h.Grind(job.Blob, job.NonceOffset, job.Target, from, 1<<16)
	if !found {
		t.Fatal("no share found within 1<<16 hashes")
	}
	return nonce, sum
}

// TestCrossTransportAccountingIdentical drives the same share stream
// through each dialect against identically-seeded pools and requires the
// accounting to match exactly — the acceptance bar for "both transports
// drive the same engine".
func TestCrossTransportAccountingIdentical(t *testing.T) {
	const siteKey = "xdialect-key"
	const shares = 3

	// Two identically-seeded services: fixed genesis timestamp and
	// clock, so templates (and therefore jobs) are byte-identical.
	run := func(t *testing.T, dial func(srv *httptestServerPair) (*session.Session, error)) (coinhive.Stats, coinhive.Account, []string) {
		srv := newServicePair(t, 4)
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
		var jobIDs []string
		var nonce uint32
		var sum [32]byte
		for i := 0; i < shares; i++ {
			// A fresh nonce per share: the duplicate memos reject a replay
			// of the previous (job, nonce) by design.
			if i == 0 {
				nonce, sum = grindShare(t, srv.pool, job)
			} else {
				nonce, sum = grindShare(t, srv.pool, job, nonce+1)
			}
			jobIDs = append(jobIDs, job.ID)
			if err := sess.Submit(job.ID, nonce, sum); err != nil {
				t.Fatal(err)
			}
			// One exchange: the server-clocked dialect resolves on the
			// accept, the client-clocked one on the reply job behind it.
			accepted := false
			for done := false; !done; {
				env, err := sess.ReadEnvelope()
				if err != nil {
					t.Fatal(err)
				}
				switch env.Type {
				case stratum.TypeHashAccepted:
					accepted = true
					done = sess.ServerClocked()
				case stratum.TypeJob:
					if !accepted {
						t.Fatalf("job before accept on share %d", i)
					}
					var j stratum.Job
					if err := env.Decode(&j); err != nil {
						t.Fatal(err)
					}
					job, err = session.DecodeJob(j)
					if err != nil {
						t.Fatal(err)
					}
					done = true
				default:
					t.Fatalf("unexpected %s", env.Type)
				}
			}
		}
		acct, ok := srv.pool.AccountSnapshot(siteKey)
		if !ok {
			t.Fatal("account missing")
		}
		return srv.pool.StatsSnapshot(), acct, jobIDs
	}

	wsStats, wsAcct, wsJobs := run(t, func(srv *httptestServerPair) (*session.Session, error) {
		return session.Dial(srv.wsURL(1), stratum.Auth{SiteKey: siteKey, Type: "anonymous"})
	})
	tcpStats, tcpAcct, tcpJobs := run(t, func(srv *httptestServerPair) (*session.Session, error) {
		return session.Dial("tcp://"+srv.tcpAddr, stratum.Auth{SiteKey: siteKey, Type: "anonymous"})
	})

	// Identically-seeded pools must mint identical jobs for the first
	// session regardless of dialect…
	for i := range wsJobs {
		if wsJobs[i] != tcpJobs[i] {
			t.Errorf("share %d: job ID ws=%q tcp=%q", i, wsJobs[i], tcpJobs[i])
		}
	}
	// …and the same share stream must account identically.
	if wsStats != tcpStats {
		t.Errorf("stats diverge:\n ws=%+v\ntcp=%+v", wsStats, tcpStats)
	}
	if wsAcct.TotalHashes != tcpAcct.TotalHashes || wsAcct.TotalHashes == 0 {
		t.Errorf("credit diverges: ws=%d tcp=%d", wsAcct.TotalHashes, tcpAcct.TotalHashes)
	}
	if wsStats.SharesOK != shares {
		t.Errorf("SharesOK = %d, want %d", wsStats.SharesOK, shares)
	}
}

// httptestServerPair is one service with both fronts up.
type httptestServerPair struct {
	httpURL string
	tcpAddr string
	pool    *coinhive.Pool
	handler *coinhive.Server
}

func (s *httptestServerPair) wsURL(n int) string {
	return "ws" + strings.TrimPrefix(s.httpURL, "http") + fmt.Sprintf("/proxy%d", n)
}

// newServicePair boots identically-seeded ws + TCP fronts over one pool.
// The ws endpoint to use for cross-transport comparisons is /proxy1: the
// TCP front assigns its first connection endpoint 1 as well, and both
// engines hand their first session rotation slot 1.
func newServicePair(t *testing.T, shareDiff uint64, mut ...func(*coinhive.PoolConfig)) *httptestServerPair {
	t.Helper()
	srv, handler, pool := startService(t, shareDiff, mut...)
	_, addr := startStratum(t, handler)
	return &httptestServerPair{
		httpURL: srv.URL,
		tcpAddr: addr,
		pool:    pool,
		handler: handler,
	}
}

// TestStaleShareCountedAndRejobbed moves the chain tip under a live ws
// session and submits the now-stale share: the dialect answer is a
// silent fresh job, and the engine must count it in pool.shares_stale /
// StatsSnapshot.
func TestStaleShareCountedAndRejobbed(t *testing.T) {
	srv, _, pool := startService(t, 4)
	sess, err := session.Dial(wsProxyURL(srv, 0), stratum.Auth{SiteKey: "stale-key", Type: "anonymous"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.Timeout = 5 * time.Second
	_, job, err := sess.Login()
	if err != nil {
		t.Fatal(err)
	}
	nonce, sum := grindShare(t, pool, job)

	// The tip moves while the miner grinds.
	if _, err := pool.ProduceWinningBlock(1_525_100_000, 0, 7); err != nil {
		t.Fatal(err)
	}

	if err := sess.Submit(job.ID, nonce, sum); err != nil {
		t.Fatal(err)
	}
	env, err := sess.ReadEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != stratum.TypeJob {
		t.Fatalf("stale submit reply = %s, want silent job re-issue", env.Type)
	}

	st := pool.StatsSnapshot()
	if st.SharesStale != 1 {
		t.Errorf("SharesStale = %d, want 1", st.SharesStale)
	}
	if st.SharesOK != 0 {
		t.Errorf("SharesOK = %d, want 0", st.SharesOK)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "pool.shares_stale counter 1") {
		t.Errorf("/metrics missing pool.shares_stale:\n%s", text)
	}
}

// TestSessionsReleasedOnDisconnect: every way a miner leaves — a ws close
// handshake, a ws or TCP connection severed without one — releases its
// session. The fronts stop tracking the conn and server.sessions returns
// to zero, so a swarm that reconnects under the same site keys (the second
// round) is counted afresh instead of on top of its ghosts.
func TestSessionsReleasedOnDisconnect(t *testing.T) {
	srv, handler, pool := startService(t, 4)
	ss, addr := startStratum(t, handler)
	live := pool.Metrics().Gauge("server.sessions")
	for round := 0; round < 2; round++ {
		var sess []*session.Session
		for i, url := range []string{wsProxyURL(srv, 0), wsProxyURL(srv, 1), "tcp://" + addr} {
			s, err := session.Dial(url, stratum.Auth{SiteKey: fmt.Sprintf("leave-%d", i), Type: "anonymous"})
			if err != nil {
				t.Fatal(err)
			}
			s.Timeout = 5 * time.Second
			if _, _, err := s.Login(); err != nil {
				t.Fatal(err)
			}
			sess = append(sess, s)
		}
		if n := live.Load(); n != 3 {
			t.Fatalf("round %d: server.sessions = %d with 3 miners logged in", round, n)
		}
		_ = sess[0].Close() // ws close handshake
		_ = sess[1].Abort() // ws severed
		_ = sess[2].Abort() // TCP severed (the dialect has no handshake)
		if !handler.Drained(2*time.Second) || !ss.Drained(2*time.Second) {
			t.Fatalf("round %d: a front still tracks a departed conn", round)
		}
		deadline := time.Now().Add(2 * time.Second)
		for live.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: server.sessions = %d after every miner left", round, live.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestLoginHammerRateLimitedThenBanned drives the reconnect hammer on
// each dialect: logins on one site key past the bucket's burst are
// refused by name, and each refusal scores toward the ban that then turns
// every login away. The frozen test clock never refills the bucket.
func TestLoginHammerRateLimitedThenBanned(t *testing.T) {
	srv, handler, _ := startService(t, 4, func(c *coinhive.PoolConfig) {
		c.Ban = coinhive.BanConfig{
			BanThreshold:    40,
			BanDuration:     time.Minute,
			LoginRatePerSec: 1,
		}
	})
	_, addr := startStratum(t, handler)
	for _, url := range []string{wsProxyURL(srv, 0), "tcp://" + addr} {
		login := func() error {
			s, err := session.Dial(url, stratum.Auth{SiteKey: "hammer-" + url[:3], Type: "anonymous"})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Abort()
			s.Timeout = 5 * time.Second
			_, _, err = s.Login()
			return err
		}
		// Ten logins spend the burst; refusals 1-3 score 10 each and the
		// fourth reaches the threshold, so it is answered with the ban.
		for i := 1; i <= 15; i++ {
			err := login()
			switch {
			case i <= 10 && err != nil:
				t.Fatalf("%s login %d inside the burst: %v", url, i, err)
			case i > 10 && i <= 13 && (err == nil || !strings.Contains(err.Error(), stratum.RateLimitedMessage)):
				t.Fatalf("%s login %d: err = %v, want %q", url, i, err, stratum.RateLimitedMessage)
			case i > 13 && !errors.Is(err, session.ErrBanned):
				t.Fatalf("%s login %d: err = %v, want ErrBanned", url, i, err)
			}
		}
	}
}

// TestCaptchaVerifiedMessageType pins the satellite: a solved captcha
// session receives a dedicated captcha_verified push (not the old
// link_resolved reuse), carrying a token the backend can redeem.
func TestCaptchaVerifiedMessageType(t *testing.T) {
	srv, _, pool := startService(t, 8)
	cap := pool.Captchas().Create("widget-site", 8) // one 8-hash share solves it

	sess, err := session.Dial(wsProxyURL(srv, 0), stratum.Auth{
		SiteKey: "widget-site", Type: "anonymous", User: "captcha:" + cap.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.Timeout = 5 * time.Second
	_, job, err := sess.Login()
	if err != nil {
		t.Fatal(err)
	}
	nonce, sum := grindShare(t, pool, job)
	if err := sess.Submit(job.ID, nonce, sum); err != nil {
		t.Fatal(err)
	}

	var cv stratum.CaptchaVerified
	for cv.Token == "" {
		env, err := sess.ReadEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		switch env.Type {
		case stratum.TypeHashAccepted:
		case stratum.TypeCaptchaVerified:
			if err := env.Decode(&cv); err != nil {
				t.Fatal(err)
			}
		case stratum.TypeLinkResolved:
			t.Fatal("captcha completion still rides the link_resolved push")
		default:
			t.Fatalf("unexpected %s before captcha_verified", env.Type)
		}
	}
	if cv.ID != cap.ID {
		t.Errorf("captcha_verified.ID = %q, want %q", cv.ID, cap.ID)
	}
	if err := pool.Captchas().Verify(cap.ID, cv.Token); err != nil {
		t.Errorf("pushed token does not verify: %v", err)
	}
}

// TestCrossTransportDefenseIdentical is the defended twin of
// TestCrossTransportAccountingIdentical: the same hostile-then-honest
// session driven through each dialect against identically-seeded
// defended pools must retarget, credit, reject and ban identically.
//
// The frozen test clock makes the vardiff window read an infinite
// cadence, so the retarget path is deterministic: after the 4-accept
// warm-up the difficulty steps by the full ×8 cap, 4 → 32.
func TestCrossTransportDefenseIdentical(t *testing.T) {
	const siteKey = "xdefense-key"
	defended := func(c *coinhive.PoolConfig) {
		c.Vardiff = coinhive.VardiffConfig{
			TargetSharesPerMin: 240,
			MinDifficulty:      1,
			MaxDifficulty:      4096,
		}
		c.Ban = coinhive.BanConfig{
			BanThreshold: 40,
			BanDuration:  time.Minute,
		}
	}

	run := func(t *testing.T, dial func(srv *httptestServerPair) (*session.Session, error)) (coinhive.Stats, coinhive.Account, float64, time.Time) {
		srv := newServicePair(t, 4, defended)
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
		if !strings.HasSuffix(job.ID, "-d4") {
			t.Fatalf("first job %q not minted at the starting tier", job.ID)
		}

		// Four accepts at difficulty 4 fill the vardiff window; the
		// fourth triggers the retarget, whose new job both dialects must
		// deliver (ws as its routine re-job, TCP as a push notification).
		var nonce uint32
		var sum [32]byte
		var retargetJob session.Job
		submitOne := func(i int, needJob bool) {
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
					if !accepted {
						t.Fatalf("share %d: job before accept", i)
					}
					var j stratum.Job
					if err := env.Decode(&j); err != nil {
						t.Fatal(err)
					}
					if retargetJob, err = session.DecodeJob(j); err != nil {
						t.Fatal(err)
					}
					needJob = false
				default:
					t.Fatalf("share %d: unexpected %s", i, env.Type)
				}
			}
		}
		for i := 0; i < 4; i++ {
			if i == 0 {
				nonce, sum = grindShare(t, srv.pool, job)
			} else {
				nonce, sum = grindShare(t, srv.pool, job, nonce+1)
			}
			submitOne(i, !sess.ServerClocked() || i == 3)
		}
		if !strings.HasSuffix(retargetJob.ID, "-d32") {
			t.Fatalf("retarget job %q, want the ×8 step to difficulty 32", retargetJob.ID)
		}

		// One in-flight share on the old tier rides the prevDiff grace:
		// still accepted, credited at the difficulty it was ground for.
		nonce, sum = grindShare(t, srv.pool, job, nonce+1)
		submitOne(4, !sess.ServerClocked())

		// The duplicate flood: replaying the just-paid share is named and
		// scored (10 a hit); the fourth offense crosses the threshold.
		for i := 0; i < 3; i++ {
			if err := sess.Submit(job.ID, nonce, sum); err != nil {
				t.Fatal(err)
			}
			env, err := sess.ReadEnvelope()
			if err != nil || env.Type != stratum.TypeError {
				t.Fatalf("replay %d: got %s (%v), want error", i+1, env.Type, err)
			}
			var e stratum.Error
			if err := env.Decode(&e); err != nil || e.Error != stratum.DuplicateShareMessage {
				t.Fatalf("replay %d: error = %q (%v), want %q", i+1, e.Error, err, stratum.DuplicateShareMessage)
			}
		}
		if err := sess.Submit(job.ID, nonce, sum); err != nil {
			t.Fatal(err)
		}
		if env, err := sess.ReadEnvelope(); err != nil || env.Type != stratum.TypeBanned {
			t.Fatalf("fourth replay: got %s (%v), want banned", env.Type, err)
		}

		// The ban outlives the connection on both dialects.
		if s2, err := dial(srv); err == nil {
			_, _, err = s2.Login()
			s2.Close()
			if !errors.Is(err, session.ErrBanned) {
				t.Fatalf("relogin after ban: err = %v, want ErrBanned", err)
			}
		}

		stats := srv.pool.StatsSnapshot()
		acct, ok := srv.pool.AccountSnapshot(siteKey)
		if !ok {
			t.Fatal("account missing")
		}
		score, until := srv.handler.Engine().AbuseState(siteKey)
		return stats, acct, score, until
	}

	wsStats, wsAcct, wsScore, wsUntil := run(t, func(srv *httptestServerPair) (*session.Session, error) {
		return session.Dial(srv.wsURL(1), stratum.Auth{SiteKey: siteKey, Type: "anonymous"})
	})
	tcpStats, tcpAcct, tcpScore, tcpUntil := run(t, func(srv *httptestServerPair) (*session.Session, error) {
		return session.Dial("tcp://"+srv.tcpAddr, stratum.Auth{SiteKey: siteKey, Type: "anonymous"})
	})

	if wsStats != tcpStats {
		t.Errorf("stats diverge:\n ws=%+v\ntcp=%+v", wsStats, tcpStats)
	}
	if wsStats.SharesOK != 5 {
		t.Errorf("SharesOK = %d, want 5 (4 window fills + 1 grace share)", wsStats.SharesOK)
	}
	// Credit scales with the difficulty in the job ID: 4 shares at 4
	// plus the grace share at its old tier's 4 — never the new 32.
	if wsAcct.TotalHashes != 20 || tcpAcct.TotalHashes != 20 {
		t.Errorf("credit ws=%d tcp=%d, want 20 each", wsAcct.TotalHashes, tcpAcct.TotalHashes)
	}
	// The ban consumed the score; both frozen clocks started at the same
	// instant, so the deadlines must agree to the nanosecond.
	if wsScore != 0 || tcpScore != 0 {
		t.Errorf("banscores = (%v, %v), want consumed to 0", wsScore, tcpScore)
	}
	if wsUntil.IsZero() || !wsUntil.Equal(tcpUntil) {
		t.Errorf("ban deadlines diverge: ws=%v tcp=%v", wsUntil, tcpUntil)
	}
}

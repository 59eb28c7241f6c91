package coinhive_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/coinhive"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/stratum"
)

// rawStratum is a line-level TCP client for conformance testing — no
// client codec in the way, so the assertions are about exactly what
// crosses the wire.
type rawStratum struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawStratum {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawStratum{t: t, nc: nc, br: bufio.NewReaderSize(nc, stratum.MaxRPCLine)}
}

func (r *rawStratum) sendLine(line string) {
	r.t.Helper()
	_ = r.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.nc.Write([]byte(line + "\n")); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawStratum) readEnvelope() (stratum.RPCEnvelope, error) {
	_ = r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := stratum.ReadRPCLine(r.br)
	if err != nil {
		return stratum.RPCEnvelope{}, err
	}
	return stratum.UnmarshalRPC(line)
}

func (r *rawStratum) mustReadError(wantCode int) stratum.RPCEnvelope {
	r.t.Helper()
	env, err := r.readEnvelope()
	if err != nil {
		r.t.Fatalf("reading expected error response: %v", err)
	}
	if env.Error == nil {
		r.t.Fatalf("response is not an error: %+v", env)
	}
	if env.Error.Code != wantCode {
		r.t.Fatalf("error code = %d (%q), want %d", env.Error.Code, env.Error.Message, wantCode)
	}
	return env
}

// mustBeClosed asserts the server hangs up (EOF or reset) on next read.
func (r *rawStratum) mustBeClosed() {
	r.t.Helper()
	if env, err := r.readEnvelope(); err == nil {
		r.t.Fatalf("connection still alive, read %+v", env)
	}
}

func (r *rawStratum) login(siteKey string) stratum.LoginResult {
	r.t.Helper()
	r.sendLine(fmt.Sprintf(`{"id":1,"jsonrpc":"2.0","method":"login","params":{"login":%q}}`, siteKey))
	env, err := r.readEnvelope()
	if err != nil {
		r.t.Fatal(err)
	}
	if env.Error != nil {
		r.t.Fatalf("login rejected: %+v", env.Error)
	}
	var res stratum.LoginResult
	if err := env.DecodeResult(&res); err != nil {
		r.t.Fatal(err)
	}
	if res.Status != stratum.StatusOK || res.ID == "" || res.Job.JobID == "" {
		r.t.Fatalf("login result = %+v", res)
	}
	return res
}

// TestStratumTCPConformance is the TCP twin of the ws malformed
// scenario: a table of dialect violations, each pinned to its exact
// wire-level outcome.
func TestStratumTCPConformance(t *testing.T) {
	t.Run("oversize line", func(t *testing.T) {
		_, handler, _ := startService(t, 4)
		_, addr := startStratum(t, handler)
		c := dialRaw(t, addr)
		c.sendLine(`{"padding":"` + strings.Repeat("x", stratum.MaxRPCLine+64) + `"}`)
		c.mustReadError(stratum.RPCParseError)
		c.mustBeClosed()
	})

	t.Run("bad json", func(t *testing.T) {
		_, handler, _ := startService(t, 4)
		_, addr := startStratum(t, handler)
		c := dialRaw(t, addr)
		c.login("tcp-conf-key")
		c.sendLine(`{definitely not json`)
		c.mustReadError(stratum.RPCParseError)
		c.mustBeClosed()
	})

	t.Run("unknown method", func(t *testing.T) {
		_, handler, _ := startService(t, 4)
		_, addr := startStratum(t, handler)
		c := dialRaw(t, addr)
		c.login("tcp-conf-key")
		c.sendLine(`{"id":2,"jsonrpc":"2.0","method":"mining.extranonce","params":{}}`)
		env := c.mustReadError(stratum.RPCUnknownMethod)
		if env.Error.Message != "unexpected mining.extranonce" {
			t.Errorf("message = %q", env.Error.Message)
		}
		// The session survives an unknown method.
		c.sendLine(`{"id":3,"jsonrpc":"2.0","method":"keepalived","params":{"id":"x"}}`)
		reply, err := c.readEnvelope()
		if err != nil || reply.Error != nil {
			t.Fatalf("session did not survive unknown method: %v %+v", err, reply)
		}
	})

	t.Run("submit before login", func(t *testing.T) {
		_, handler, _ := startService(t, 4)
		_, addr := startStratum(t, handler)
		c := dialRaw(t, addr)
		c.sendLine(`{"id":1,"jsonrpc":"2.0","method":"submit","params":{"id":"x","job_id":"0-1-0","nonce":"00000000","result":"` +
			strings.Repeat("ab", 32) + `"}}`)
		env := c.mustReadError(stratum.RPCUnauthorized)
		if env.Error.Message != "expected auth" {
			t.Errorf("message = %q", env.Error.Message)
		}
		c.mustBeClosed()
	})

	t.Run("bad submit params", func(t *testing.T) {
		_, handler, _ := startService(t, 4)
		_, addr := startStratum(t, handler)
		c := dialRaw(t, addr)
		c.login("tcp-conf-key")
		c.sendLine(`{"id":2,"jsonrpc":"2.0","method":"submit","params":{"id":"x","job_id":"0-1-0","nonce":"zz!!zz!!","result":"` +
			strings.Repeat("ab", 32) + `"}}`)
		env := c.mustReadError(stratum.RPCInvalidParams)
		if env.Error.Message != "bad nonce" {
			t.Errorf("message = %q", env.Error.Message)
		}
		// Non-fatal: keepalive still answered.
		c.sendLine(`{"id":3,"jsonrpc":"2.0","method":"keepalived","params":{"id":"x"}}`)
		if reply, err := c.readEnvelope(); err != nil || reply.Error != nil {
			t.Fatalf("session did not survive bad params: %v %+v", err, reply)
		}
	})

	t.Run("keepalive timeout", func(t *testing.T) {
		_, handler, _ := startService(t, 4)
		_, addr := startStratum(t, handler, 150*time.Millisecond)
		c := dialRaw(t, addr)
		c.login("tcp-conf-key")
		// Stay silent past the window: the server drops the connection.
		time.Sleep(400 * time.Millisecond)
		c.mustBeClosed()
	})

	t.Run("keepalive answered", func(t *testing.T) {
		_, handler, _ := startService(t, 4)
		_, addr := startStratum(t, handler, 300*time.Millisecond)
		c := dialRaw(t, addr)
		res := c.login("tcp-conf-key")
		// Pinging inside the window keeps the session alive across what
		// would otherwise be two timeouts.
		for i := 0; i < 4; i++ {
			time.Sleep(100 * time.Millisecond)
			c.sendLine(fmt.Sprintf(`{"id":%d,"jsonrpc":"2.0","method":"keepalived","params":{"id":%q}}`, 10+i, res.ID))
			env, err := c.readEnvelope()
			if err != nil {
				t.Fatalf("keepalive %d: %v", i, err)
			}
			var ka stratum.KeepaliveResult
			if err := env.DecodeResult(&ka); err != nil || ka.Status != stratum.StatusKeepalive {
				t.Fatalf("keepalive %d reply = %+v (%v)", i, env, err)
			}
		}
	})
}

// TestStratumTCPJobPushOnTipChange pins the server-clocked half: when
// the chain tip moves, every authenticated TCP session receives an
// unsolicited job notification carrying fresh (resolvable) work.
func TestStratumTCPJobPushOnTipChange(t *testing.T) {
	_, handler, pool := startService(t, 4)
	ss, addr := startStratum(t, handler)

	c := dialRaw(t, addr)
	res := c.login("push-key")

	if _, err := pool.ProduceWinningBlock(1_525_100_000, 0, 7); err != nil {
		t.Fatal(err)
	}

	env, err := c.readEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if !env.IsNotification() || env.Method != stratum.TypeJob {
		t.Fatalf("expected job notification, got %+v", env)
	}
	var job stratum.Job
	if err := env.DecodeParams(&job); err != nil {
		t.Fatal(err)
	}
	if job.JobID == res.Job.JobID {
		t.Error("pushed job did not change after the tip moved")
	}

	// The pushed job is real: a share ground against it is accepted.
	decoded, err := session.DecodeJob(job)
	if err != nil {
		t.Fatal(err)
	}
	nonce, sum := grindShare(t, pool, decoded)
	c.sendLine(fmt.Sprintf(`{"id":5,"jsonrpc":"2.0","method":"submit","params":{"id":%q,"job_id":%q,"nonce":%q,"result":%q}}`,
		res.ID, job.JobID, stratum.EncodeNonce(nonce), stratum.EncodeBlob(sum[:])))
	reply, err := c.readEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Error != nil {
		t.Fatalf("share against pushed job rejected: %+v", reply.Error)
	}
	var sr stratum.SubmitResult
	if err := reply.DecodeResult(&sr); err != nil || sr.Status != stratum.StatusOK {
		t.Fatalf("submit result = %+v (%v)", sr, err)
	}

	pushes, lat := ss.PushStatsSince(metrics.HistCursor{})
	if pushes == 0 || lat.Count == 0 {
		t.Errorf("push instruments empty: pushes=%d latency count=%d", pushes, lat.Count)
	}
}

// TestStratumTCPStaleSubmitNamedAndRejobbed pins the dialect's stale
// path: unlike ws's silent re-job, TCP names the condition in an rpc
// error and then delivers the replacement job as a notification.
func TestStratumTCPStaleSubmitNamedAndRejobbed(t *testing.T) {
	_, handler, pool := startService(t, 4)
	_, addr := startStratum(t, handler)

	c := dialRaw(t, addr)
	res := c.login("stale-tcp-key")
	decoded, err := session.DecodeJob(res.Job)
	if err != nil {
		t.Fatal(err)
	}
	nonce, sum := grindShare(t, pool, decoded)

	if _, err := pool.ProduceWinningBlock(1_525_100_000, 0, 7); err != nil {
		t.Fatal(err)
	}
	// The tip-change push arrives first (fan-out happens on append).
	push, err := c.readEnvelope()
	if err != nil || push.Method != stratum.TypeJob {
		t.Fatalf("expected tip-change push, got %+v (%v)", push, err)
	}

	c.sendLine(fmt.Sprintf(`{"id":6,"jsonrpc":"2.0","method":"submit","params":{"id":%q,"job_id":%q,"nonce":%q,"result":%q}}`,
		res.ID, res.Job.JobID, stratum.EncodeNonce(nonce), stratum.EncodeBlob(sum[:])))
	env := c.mustReadError(stratum.RPCStaleJob)
	if env.Error.Message != stratum.StaleJobMessage {
		t.Errorf("message = %q", env.Error.Message)
	}
	rejob, err := c.readEnvelope()
	if err != nil || rejob.Method != stratum.TypeJob {
		t.Fatalf("expected replacement job notification, got %+v (%v)", rejob, err)
	}
	if got := pool.StatsSnapshot().SharesStale; got != 1 {
		t.Errorf("SharesStale = %d, want 1", got)
	}
}

// TestStratumTCPStaleFloodBoundedAndBanned pins the defended dialect's
// bounded stale retry loop: the first 8 consecutive stales (the fixed
// stale-flood bound) are named and re-jobbed as usual, everything past
// the bound earns {-4, "too many stale"} with NO replacement job, and a
// flooder that keeps going crosses the banscore threshold — {-5,
// "banned"}, the connection dropped, and the identity's next login
// turned away.
func TestStratumTCPStaleFloodBoundedAndBanned(t *testing.T) {
	defended := func(c *coinhive.PoolConfig) {
		c.Ban = coinhive.BanConfig{BanThreshold: 40, BanDuration: time.Minute}
	}
	_, handler, pool := startService(t, 4, defended)
	_, addr := startStratum(t, handler)

	c := dialRaw(t, addr)
	res := c.login("flood-tcp-key")
	decoded, err := session.DecodeJob(res.Job)
	if err != nil {
		t.Fatal(err)
	}
	nonce, sum := grindShare(t, pool, decoded)
	if _, err := pool.ProduceWinningBlock(1_525_100_000, 0, 7); err != nil {
		t.Fatal(err)
	}
	if push, err := c.readEnvelope(); err != nil || push.Method != stratum.TypeJob {
		t.Fatalf("expected tip-change push, got %+v (%v)", push, err)
	}

	// The stale share is replayed verbatim: the duplicate memos only
	// remember *accepted* shares, so every replay re-enters the stale
	// path — exactly what a retry-loop client does after a tip change.
	resubmit := func(id int) {
		c.sendLine(fmt.Sprintf(`{"id":%d,"jsonrpc":"2.0","method":"submit","params":{"id":%q,"job_id":%q,"nonce":%q,"result":%q}}`,
			id, res.ID, res.Job.JobID, stratum.EncodeNonce(nonce), stratum.EncodeBlob(sum[:])))
	}

	// Stales 1..8: named stale, replacement job behind it.
	for i := 0; i < 8; i++ {
		resubmit(10 + i)
		c.mustReadError(stratum.RPCStaleJob)
		if rejob, err := c.readEnvelope(); err != nil || rejob.Method != stratum.TypeJob {
			t.Fatalf("stale %d: expected re-job, got %+v (%v)", i+1, rejob, err)
		}
	}
	// Past the bound: the named flood error, and no re-job — the next
	// read after each error must be the *next* error, never a job.
	for i := 0; i < 3; i++ {
		resubmit(20 + i)
		env := c.mustReadError(stratum.RPCTooManyStale)
		if env.Error.Message != stratum.TooManyStaleMessage {
			t.Errorf("flood %d: message = %q, want %q", i+1, env.Error.Message, stratum.TooManyStaleMessage)
		}
	}
	// Each flood offense scored 10: the fourth crosses the threshold.
	resubmit(30)
	env := c.mustReadError(stratum.RPCBanned)
	if env.Error.Message != stratum.BannedMessage {
		t.Errorf("ban message = %q, want %q", env.Error.Message, stratum.BannedMessage)
	}
	c.mustBeClosed()

	// All twelve replays were honest-shaped stale work as far as the share
	// accounting goes; the defense layer is what cut the session off.
	if st := pool.StatsSnapshot(); st.SharesStale != 12 || st.SharesOK != 0 {
		t.Errorf("SharesStale=%d SharesOK=%d, want 12,0", st.SharesStale, st.SharesOK)
	}

	// The ban is keyed on the identity, not the connection: a fresh dial
	// with the same site key is turned away at login.
	c2 := dialRaw(t, addr)
	c2.sendLine(`{"id":1,"jsonrpc":"2.0","method":"login","params":{"login":"flood-tcp-key"}}`)
	c2.mustReadError(stratum.RPCBanned)
	c2.mustBeClosed()

	score, until := handler.Engine().AbuseState("flood-tcp-key")
	if score != 0 || until.IsZero() {
		t.Errorf("AbuseState = (%v, %v), want score consumed and a ban deadline", score, until)
	}
}

// TestStratumTCPBogusJobFloodBoundedAndBanned is the forged-identifier
// twin of the stale-flood test: submits against a never-issued job ID
// (a future generation) earn the same re-job shape, but they count toward
// the same consecutive-run bound — a bogus-ID flooder stops earning
// re-jobs after the stale-flood bound, then accumulates to a ban,
// instead of riding silent re-jobs forever under the submit rate limit.
func TestStratumTCPBogusJobFloodBoundedAndBanned(t *testing.T) {
	defended := func(c *coinhive.PoolConfig) {
		c.Ban = coinhive.BanConfig{BanThreshold: 40, BanDuration: time.Minute}
	}
	_, handler, pool := startService(t, 4, defended)
	_, addr := startStratum(t, handler)

	c := dialRaw(t, addr)
	res := c.login("bogus-tcp-key")
	resubmit := func(id int) {
		c.sendLine(fmt.Sprintf(`{"id":%d,"jsonrpc":"2.0","method":"submit","params":{"id":%q,"job_id":"0-999999-0-d4","nonce":"00000000","result":%q}}`,
			id, res.ID, strings.Repeat("00", 32)))
	}

	// Rejections 1..8: the unknown-job re-job shape.
	for i := 0; i < 8; i++ {
		resubmit(10 + i)
		c.mustReadError(stratum.RPCStaleJob)
		if rejob, err := c.readEnvelope(); err != nil || rejob.Method != stratum.TypeJob {
			t.Fatalf("bogus %d: expected re-job, got %+v (%v)", i+1, rejob, err)
		}
	}
	// Past the bound: the named flood error and no more free re-jobs.
	for i := 0; i < 3; i++ {
		resubmit(20 + i)
		c.mustReadError(stratum.RPCTooManyStale)
	}
	// Each flood offense scored 10: the fourth crosses the threshold.
	resubmit(30)
	c.mustReadError(stratum.RPCBanned)
	c.mustBeClosed()

	// Forged identifiers are not tip churn: pool.shares_stale untouched.
	if st := pool.StatsSnapshot(); st.SharesStale != 0 || st.SharesOK != 0 {
		t.Errorf("SharesStale=%d SharesOK=%d, want 0,0", st.SharesStale, st.SharesOK)
	}
	if _, until := handler.Engine().AbuseState("bogus-tcp-key"); until.IsZero() {
		t.Error("bogus-ID flooder never banned")
	}
}

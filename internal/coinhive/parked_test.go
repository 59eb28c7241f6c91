package coinhive_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/coinhive"
	"repro/internal/memconn"
	"repro/internal/session"
	"repro/internal/simclock"
	"repro/internal/stratum"
)

// waitParked polls until the stratum front reports want parked sessions.
func waitParked(t *testing.T, ss *coinhive.StratumServer, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ss.Parked() != want {
		if time.Now().After(deadline) {
			t.Fatalf("parked = %d, want %d", ss.Parked(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStratumParkedSessionsGetJobPushes pins the core parking invariant:
// a parked session holds no reader goroutine, yet tip-change pushes
// still reach it — the fan-out path goes through the outbound queue, not
// the (parked) read side. The sessions stay parked throughout, because a
// push is server→client traffic and must not count as a wake.
func TestStratumParkedSessionsGetJobPushes(t *testing.T) {
	_, handler, pool := startService(t, 4)
	ss, addr := startStratum(t, handler)

	const n = 3
	clients := make([]*rawStratum, n)
	first := make([]string, n)
	for i := range clients {
		clients[i] = dialRaw(t, addr)
		first[i] = clients[i].login("park-push-key").Job.JobID
	}
	waitParked(t, ss, n)

	if _, err := pool.ProduceWinningBlock(1_525_100_000, 0, 7); err != nil {
		t.Fatal(err)
	}

	for i, c := range clients {
		env, err := c.readEnvelope()
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !env.IsNotification() || env.Method != stratum.TypeJob {
			t.Fatalf("client %d: expected job push, got %+v", i, env)
		}
		var job stratum.Job
		if err := env.DecodeParams(&job); err != nil {
			t.Fatal(err)
		}
		if job.JobID == first[i] {
			t.Errorf("client %d: pushed job did not change after tip move", i)
		}
	}
	if got := ss.Parked(); got != n {
		t.Errorf("parked = %d after push, want %d (pushes must not wake readers)", got, n)
	}
}

// TestStratumParkedKeepaliveLifecycle drives the keepalive window
// through the parker's deadline heap: a session that keeps pinging
// survives window after window (each ping waking and re-parking it),
// while a silent one is reaped by the park timer with no goroutine ever
// dedicated to watching it.
func TestStratumParkedKeepaliveLifecycle(t *testing.T) {
	_, handler, _ := startService(t, 4)
	ss, addr := startStratum(t, handler, 400*time.Millisecond)

	live := dialRaw(t, addr)
	liveRes := live.login("park-reap-key")
	silent := dialRaw(t, addr)
	silent.login("park-reap-key")
	waitParked(t, ss, 2)

	// Four keepalives at half the window keep the live session healthy
	// across several would-be reaps.
	for i := 0; i < 4; i++ {
		time.Sleep(200 * time.Millisecond)
		live.sendLine(fmt.Sprintf(`{"id":%d,"jsonrpc":"2.0","method":"keepalived","params":{"id":%q}}`, 10+i, liveRes.ID))
		env, err := live.readEnvelope()
		if err != nil {
			t.Fatalf("keepalive %d: %v", i, err)
		}
		var kr stratum.KeepaliveResult
		if err := env.DecodeResult(&kr); err != nil || kr.Status != stratum.StatusKeepalive {
			t.Fatalf("keepalive %d result = %+v (%v)", i, kr, err)
		}
	}

	// The silent session blew its window long ago: the park timer must
	// have torn it down without a read deadline firing anywhere.
	silent.mustBeClosed()
	waitParked(t, ss, 1)
}

// TestStratumParkedVardiffIdleDownstep proves the vardiff idle path
// still works when sessions park between messages: a session whose
// difficulty was retargeted up goes quiet, and its next keepalive — the
// wake — must carry both the ack and the halved-difficulty job push.
func TestStratumParkedVardiffIdleDownstep(t *testing.T) {
	sim := simclock.New(time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC))
	_, handler, pool := startService(t, 4, func(c *coinhive.PoolConfig) {
		c.Clock = sim
		c.Vardiff = coinhive.VardiffConfig{
			TargetSharesPerMin: 240,
			MinDifficulty:      1,
			MaxDifficulty:      1 << 16,
		}
	})
	ss, addr := startStratum(t, handler)

	c := dialRaw(t, addr)
	res := c.login("park-vardiff-key")
	token, job := res.ID, res.Job

	// Four instant accepts (frozen sim clock = infinite cadence) fill the
	// warm-up and force an upward retarget, which arrives as a job push
	// behind the fourth ack.
	decoded := mustDecodeJob(t, job)
	var start uint32
	for i := 0; i < 4; i++ {
		nonce, sum := grindShare(t, pool, decoded, start)
		start = nonce + 1
		c.sendLine(fmt.Sprintf(`{"id":%d,"jsonrpc":"2.0","method":"submit","params":{"id":%q,"job_id":%q,"nonce":%q,"result":%q}}`,
			20+i, token, job.JobID, stratum.EncodeNonce(nonce), stratum.EncodeBlob(sum[:])))
		env, err := c.readEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		if env.Error != nil {
			t.Fatalf("submit %d rejected: %+v", i, env.Error)
		}
	}
	retarget, err := c.readEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if !retarget.IsNotification() || retarget.Method != stratum.TypeJob {
		t.Fatalf("expected retarget job push, got %+v", retarget)
	}
	var hardJob stratum.Job
	if err := retarget.DecodeParams(&hardJob); err != nil {
		t.Fatal(err)
	}

	// The session parks, goes idle past the grace window, then pings.
	waitParked(t, ss, 1)
	sim.RunFor(time.Minute)
	c.sendLine(fmt.Sprintf(`{"id":30,"jsonrpc":"2.0","method":"keepalived","params":{"id":%q}}`, token))
	ack, err := c.readEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	var kr stratum.KeepaliveResult
	if err := ack.DecodeResult(&kr); err != nil || kr.Status != stratum.StatusKeepalive {
		t.Fatalf("keepalive result = %+v (%v)", kr, err)
	}
	downstep, err := c.readEnvelope()
	if err != nil {
		t.Fatalf("no idle-downstep job push after keepalive: %v", err)
	}
	if !downstep.IsNotification() || downstep.Method != stratum.TypeJob {
		t.Fatalf("expected downstep job push, got %+v", downstep)
	}
	var easyJob stratum.Job
	if err := downstep.DecodeParams(&easyJob); err != nil {
		t.Fatal(err)
	}
	if easyJob.Target == hardJob.Target {
		t.Error("idle downstep did not change the session's target")
	}
}

// TestStratumParkedGoroutineDiet is the scaling claim made concrete: n
// live authenticated TCP sessions, all parked, must cost far fewer than
// one goroutine each. The bound is n/4 with a fixed allowance for the
// test's own machinery — the real shape is O(1) parker overhead.
func TestStratumParkedGoroutineDiet(t *testing.T) {
	_, handler, _ := startService(t, 4)
	ss, addr := startStratum(t, handler)

	before := runtime.NumGoroutine()
	const n = 128
	for i := 0; i < n; i++ {
		c := dialRaw(t, addr)
		c.login("park-diet-key")
	}
	waitParked(t, ss, n)
	grew := runtime.NumGoroutine() - before
	if grew > n/4 {
		t.Errorf("%d parked sessions grew goroutines by %d, want <= %d", n, grew, n/4)
	}
}

// TestStratumParksThousandsOfMemSessions holds the front to the
// benchmark's tip-fanout population: 4,096 fd-less sessions log in over
// one memconn listener, every one is answered and parked, and together
// they cost far fewer than one goroutine each. A front that turns peers
// away past a fixed live count, or a park path that keeps a goroutine
// per memconn session, fails here rather than only in a full benchmark
// run.
func TestStratumParksThousandsOfMemSessions(t *testing.T) {
	_, handler, _ := startService(t, 4)
	ss := coinhive.NewStratumServer(handler.Engine())
	ln := memconn.Listen()
	go ss.Serve(ln)
	t.Cleanup(func() {
		ss.Shutdown()
		ln.Close()
	})

	before := runtime.NumGoroutine()
	const n = 4096
	reply := make([]byte, 1024)
	for i := 0; i < n; i++ {
		nc, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		fmt.Fprintf(nc, `{"id":1,"jsonrpc":"2.0","method":"login","params":{"login":"mem-park-%d"}}`+"\n", i)
		got := 0
		for bytes.IndexByte(reply[:got], '\n') < 0 {
			_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			m, err := nc.Read(reply[got:])
			if err != nil {
				t.Fatalf("session %d: login reply: %v", i, err)
			}
			got += m
		}
		if !bytes.Contains(reply[:got], []byte(`"status":"OK"`)) {
			t.Fatalf("session %d: login reply %s", i, reply[:got])
		}
	}
	waitParked(t, ss, n)
	if grew := runtime.NumGoroutine() - before; grew > n/4 {
		t.Errorf("%d parked sessions grew goroutines by %d, want <= %d", n, grew, n/4)
	}
}

// mustDecodeJob adapts session.DecodeJob for tests that grind shares.
func mustDecodeJob(t *testing.T, j stratum.Job) session.Job {
	t.Helper()
	decoded, err := session.DecodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

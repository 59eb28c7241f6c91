package coinhive

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/memconn"
	"repro/internal/stratum"
)

// TestPushSlotLatestWins pins the one-line push slot: two pushes that
// land while the connection's writer is busy reach the miner as one job
// line — the newer one, since the older job is already stale — counted
// as one push and timed from the first enqueue, when the miner's work
// went stale.
func TestPushSlotLatestWins(t *testing.T) {
	pool := newTestPool(t, 4)
	s := NewStratumServer(NewEngine(pool))
	defer s.Shutdown()
	older, newer := pool.jobWire(0, 0, 0, false).TCPLine, pool.jobWire(0, 1, 0, false).TCPLine
	if bytes.Equal(older, newer) {
		t.Fatal("two template slots minted the same job line")
	}

	client, srvEnd := memconn.Pipe()
	defer client.Close()
	c := &stratumConn{srv: s, nc: srvEnd}
	pushed0 := s.pushes.Load()
	cursor := s.PushCursor()
	firstNs := time.Now().Add(-time.Hour).UnixNano()

	c.wmu.Lock() // a reply is on the wire
	c.enqueuePush(older, firstNs)
	c.enqueuePush(newer, time.Now().UnixNano())
	c.wmu.Unlock()

	br := bufio.NewReader(client)
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, newer) {
		t.Fatalf("client read %q, want the newer job %q", line, newer)
	}
	_ = client.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if extra, err := br.ReadBytes('\n'); err == nil || len(extra) > 0 {
		t.Fatalf("client read a second line %q after the newest job", extra)
	}

	if got := s.pushes.Load() - pushed0; got != 1 {
		t.Errorf("stratum.jobs_pushed rose by %d, want 1", got)
	}
	if _, lat := s.PushStatsSince(cursor); lat.Count != 1 || lat.Sum < time.Hour {
		t.Errorf("push latency count %d sum %v, want one push timed from the first enqueue (>= 1h)", lat.Count, lat.Sum)
	}
}

// TestStratumSilentPushPeerTornDown parks two logged-in sessions over
// memconn (bounded buffers, real backpressure), one of which never reads
// again. Tips keep moving until the silent peer's buffer is full and its
// push write blocks: the reading session must still read every tip's
// job, and the silent one must be torn down by the write deadline.
func TestStratumSilentPushPeerTornDown(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a push write deadline (2-5 s)")
	}
	pool := newTestPool(t, 4)
	s := NewStratumServer(NewEngine(pool))
	ln := memconn.Listen()
	go s.Serve(ln)
	t.Cleanup(func() {
		s.Shutdown()
		ln.Close()
	})
	login := func(key string) (net.Conn, *bufio.Reader) {
		nc, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		fmt.Fprintf(nc, `{"id":1,"jsonrpc":"2.0","method":"login","params":{"login":%q}}`+"\n", key)
		br := bufio.NewReaderSize(nc, stratum.MaxRPCLine)
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if line, err := stratum.ReadRPCLine(br); err != nil || !bytes.Contains(line, []byte(`"status":"OK"`)) {
			t.Fatalf("%s: login reply %q (%v)", key, line, err)
		}
		return nc, br
	}
	reader, rbr := login("reading-peer")
	login("silent-peer")
	sessions := pool.Metrics().Gauge("server.sessions")
	if got := sessions.Load(); got != 2 {
		t.Fatalf("server.sessions = %d, want 2", got)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Parked() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("parked = %d, want 2", s.Parked())
		}
	}

	tips := 0
	var lastJob string
	tip := func() {
		t.Helper()
		tips++
		if _, err := pool.ProduceWinningBlock(uint64(1_525_100_000+tips), tips, uint32(tips)); err != nil {
			t.Fatal(err)
		}
		_ = reader.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := stratum.ReadRPCLine(rbr)
		if err != nil {
			t.Fatalf("tip %d: reading peer got no job: %v", tips, err)
		}
		env, err := stratum.UnmarshalRPC(line)
		var job stratum.Job
		if err == nil {
			err = env.DecodeParams(&job)
		}
		if err != nil || env.Method != stratum.TypeJob || job.JobID == lastJob {
			t.Fatalf("tip %d: reading peer read %q (%v), want a fresh job", tips, line, err)
		}
		lastJob = job.JobID
	}

	// The reading peer's push is counted once it has read it (give or
	// take the counter trailing the bytes by one), so the rest of
	// stratum.jobs_pushed is the silent peer's completed writes. They
	// stop growing once its buffer is full and a drainer is blocked; a
	// drainer briefly starved of CPU pauses them too, so the stall is
	// timed from the last growth seen, never from when the pause began.
	// Tips come as fast as the reading peer reads them while the silent
	// peer keeps up, then every 20 ms. The blocked write began within a
	// tip of the last completed one, and its deadline was armed at most
	// writeDeadlineHorizon ahead of it.
	var silentDone int64
	lastGrowth := time.Now()
	bound := writeDeadlineHorizon + 2*time.Second
	for sessions.Load() != 1 {
		if waited := time.Since(lastGrowth); waited > bound {
			t.Fatalf("silent peer still live %v after its push write stalled, want <= %v", waited, bound)
		}
		if tips > 100_000 {
			t.Fatal("the silent peer's buffer never filled")
		}
		tip()
		if done := int64(s.pushes.Load()) - int64(tips); done > silentDone {
			silentDone, lastGrowth = done, time.Now()
		} else if time.Since(lastGrowth) > 100*time.Millisecond {
			time.Sleep(20 * time.Millisecond)
		}
	}
	tip() // the reading peer outlives the teardown
	t.Logf("silent peer took %d pushes before stalling; torn down %v after, over %d tips",
		silentDone, time.Since(lastGrowth).Round(time.Millisecond), tips)
}

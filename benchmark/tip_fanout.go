package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/stratum"
)

// fanoutSessions is the parked population a tip event must reach.
const fanoutSessions = 4096

// readWaker is the readiness hook memconn's client ends offer: the
// callback fires once when the conn becomes readable, from the writer's
// goroutine, so it must not block.
type readWaker interface {
	ArmReadWaker(func())
}

// parkedClient is the client end of one logged-in, idle stratum session.
// Only the drainer that was handed its index touches it.
type parkedClient struct {
	nc    net.Conn
	carry []byte // a partial line left over from the previous read
	jobs  int64  // job notifications read since drive started
	last  uint64 // FNV-1a of the last job ID read
	tip   int64  // the tip sequence that job arrived in
}

// tipFanout is ROADMAP path 2: a chain-tip event fanned out as a job
// push to every parked session. The driver is closed on the slowest
// session: the next tip lands only when the last of the 4,096 has read
// the previous job.
type tipFanout struct {
	target  *loadgen.InprocTarget
	reg     *metrics.Registry
	clients []*parkedClient

	ready   chan int      // indexes of readable clients
	allRead chan struct{} // the last client of a tip has read its job

	tipSeq    atomic.Int64
	got       atomic.Int64 // clients that have read the current tip's job
	firstRead atomic.Int64 // run-clock time of the current tip's first read
	dupReads  atomic.Int64 // jobs read beyond one per client per tip

	tips        int64
	encodes0    float64
	firstPushUs []float64 // per tip: AdvanceTip call → first client read
	cursor      metrics.HistCursor
	quit        chan struct{}
	drainers    sync.WaitGroup
}

func setupTipFanout(o options) (instance, error) {
	reg := metrics.NewRegistry()
	target, err := loadgen.StartInproc(1, reg)
	if err != nil {
		return nil, err
	}
	n := o.scaled(fanoutSessions, 64)
	w := &tipFanout{
		target: target,
		reg:    reg,
		// One slot per client: a waker is one-shot and re-armed only
		// after its client was drained, so sends never block.
		ready:   make(chan int, n),
		allRead: make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		nc, err := target.DialMem()
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, &parkedClient{nc: nc})
		sess, err := session.DialConn(nc, stratum.Auth{SiteKey: fmt.Sprintf("bench-%x-s%d", o.seed, i), Type: "anonymous"})
		if err != nil {
			w.close()
			return nil, err
		}
		sess.Timeout = ioTimeout
		if _, _, err := sess.Login(); err != nil {
			w.close()
			return nil, fmt.Errorf("session %d login: %w", i, err)
		}
		if sess.Buffered() {
			w.close()
			return nil, fmt.Errorf("session %d: unread bytes behind the login reply", i)
		}
	}
	// Park barrier: idle state is the precondition, not part of the load.
	deadline := time.Now().Add(ioTimeout)
	for target.Stratum.Parked() < int64(n) {
		if time.Now().After(deadline) {
			w.close()
			return nil, fmt.Errorf("only %d of %d sessions parked within %v", target.Stratum.Parked(), n, ioTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return w, nil
}

func (w *tipFanout) arm(i int) {
	w.clients[i].nc.(readWaker).ArmReadWaker(func() { w.ready <- i })
}

func (w *tipFanout) drive(rec *recorder) {
	w.encodes0 = counterValue(w.reg, "pool.job_encodes")
	w.cursor = w.target.Stratum.PushCursor()
	for i := range w.clients {
		w.arm(i)
	}
	for d := 0; d < pinnedProcs; d++ {
		w.drainers.Add(1)
		go w.drainLoop(rec)
	}
	l := rec.lane()
	loopStart := now()
	n := int64(len(w.clients))
	stalled := time.NewTimer(ioTimeout)
	defer stalled.Stop()
	for !rec.stopped() {
		w.got.Store(0)
		w.firstRead.Store(0)
		w.tipSeq.Add(1)
		stalled.Reset(ioTimeout)
		t0 := now()
		w.target.AdvanceTip()
		t1 := now()
		select {
		case <-w.allRead:
		case <-stalled.C:
			missed := n - w.got.Load()
			l.fail("tip %d: %d of %d sessions had not read the job after %v", w.tipSeq.Load(), missed, n, ioTimeout)
			l.attempted += n - 1
			l.failed += missed - 1
			close(w.quit)
			w.drainers.Wait()
			return
		}
		t2 := now()
		// One op per push read, so a session that missed the tip would
		// show as failed ops, not as a slower one.
		l.attempted += n - 1
		l.op(t0, t2, n)
		w.tips++
		first := w.firstRead.Load()
		w.firstPushUs = append(w.firstPushUs, float64(first-t0)/1e3)
		if rec.trace {
			l.nextOp++
			l.span("pool.advance_tip", "tip", l.nextOp, t0, t1)
			l.span("fanout.first_read_wait", "tip", l.nextOp, t1, max(first, t1))
			l.span("fanout.last_read_wait", "tip", l.nextOp, max(first, t1), t2)
			l.span("tip", "", l.nextOp, t0, t2)
			l.waitNs += t2 - t1
		}
	}
	l.wallNs += now() - loopStart
	close(w.quit)
	w.drainers.Wait()
}

// drainLoop is one of the two client-side readers standing in for 4,096
// miners: it reads whatever a woken client has, counts its job lines and
// re-arms it.
func (w *tipFanout) drainLoop(rec *recorder) {
	defer w.drainers.Done()
	buf := make([]byte, 4096)
	for {
		select {
		case <-w.quit:
			return
		case i := <-w.ready:
			c := w.clients[i]
			n, err := c.nc.Read(buf)
			if err != nil {
				return // the session died; the driver's timeout reports it
			}
			at := now()
			data := buf[:n]
			if len(c.carry) > 0 {
				data = append(c.carry, data...)
			}
			for {
				nl := bytes.IndexByte(data, '\n')
				if nl < 0 {
					break
				}
				w.jobLine(c, data[:nl], at)
				data = data[nl+1:]
			}
			c.carry = append(c.carry[:0], data...)
			w.arm(i)
		}
	}
}

var (
	jobMethod = []byte(`"method":"job"`)
	jobIDKey  = []byte(`"job_id":"`)
)

// jobLine accounts one pushed line to its client: exactly one job per
// tip, and a different job than the tip before.
func (w *tipFanout) jobLine(c *parkedClient, line []byte, readAt int64) {
	at := bytes.Index(line, jobIDKey)
	if !bytes.Contains(line, jobMethod) || at < 0 {
		w.dupReads.Add(1) // not a job push: nothing else is expected here
		return
	}
	id := uint64(14695981039346656037)
	for _, b := range line[at+len(jobIDKey):] {
		if b == '"' {
			break
		}
		id = (id ^ uint64(b)) * 1099511628211
	}
	tip := w.tipSeq.Load()
	c.jobs++
	if c.tip == tip || c.last == id {
		w.dupReads.Add(1)
		return
	}
	c.tip, c.last = tip, id
	w.firstRead.CompareAndSwap(0, readAt)
	if w.got.Add(1) == int64(len(w.clients)) {
		w.allRead <- struct{}{}
	}
}

// check: every session read every tip's job exactly once, and the pool
// encoded one wire per distinct job the clients saw — a number set by
// the pool's topology (16 backends × 8 templates), not by how many
// sessions were listening.
func (w *tipFanout) check() []string {
	var fails []string
	for i, c := range w.clients {
		if c.jobs != w.tips {
			fails = append(fails, fmt.Sprintf("session %d read %d jobs over %d tips", i, c.jobs, w.tips))
			if len(fails) == 4 {
				break
			}
		}
	}
	if d := w.dupReads.Load(); d != 0 {
		fails = append(fails, fmt.Sprintf("%d pushed lines were duplicates, repeats of the previous job or not jobs", d))
	}
	// A session keeps its backend and template slot for life, so the
	// distinct jobs of the last tip are the distinct jobs of every tip.
	distinct := map[uint64]struct{}{}
	for _, c := range w.clients {
		distinct[c.last] = struct{}{}
	}
	encodes := int64(counterValue(w.reg, "pool.job_encodes") - w.encodes0)
	if want := w.tips * int64(len(distinct)); encodes != want || len(distinct) > 128 {
		fails = append(fails, fmt.Sprintf("pool encoded %d job wires over %d tips; the %d sessions read %d distinct jobs per tip (want %d encodes)", encodes, w.tips, len(w.clients), len(distinct), want))
	}
	return fails
}

func (w *tipFanout) layers(o options, m map[string]float64) error {
	tips := float64(w.tips)
	m["jobwire.encodes_per_tip"] = (counterValue(w.reg, "pool.job_encodes") - w.encodes0) / tips
	pushes, lat := w.target.Stratum.PushStatsSince(w.cursor)
	m["stratumtcp.push_p50_us"] = float64(lat.P50) / 1e3
	m["stratumtcp.push_p99_us"] = float64(lat.P99) / 1e3
	m["stratumtcp.push_bytes_per_push"] = counterValue(w.reg, "server.push_bytes") / float64(pushes)
	for _, s := range w.reg.Snapshots() {
		if s.Name == "server.push_queue_depth" {
			m["stratumtcp.push_queue_peak"] = float64(s.Peak)
		}
	}
	m["netpark.parked"] = float64(w.target.Stratum.Parked())
	m["pool.tip_to_first_push_us"] = pct(w.firstPushUs, 0.5)
	measureConnLayers(o, m)
	return nil
}

func (w *tipFanout) close() {
	for _, c := range w.clients {
		_ = c.nc.Close()
	}
	w.target.Close()
}

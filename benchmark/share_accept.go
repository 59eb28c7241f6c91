package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/stratum"
)

// ioTimeout bounds every client read and write, so a stalled target
// surfaces as a failed operation instead of a hung benchmark.
const ioTimeout = 10 * time.Second

// shareConns is the closed loop's width: one connection per core.
const shareConns = 2

// acceptDeck is how many distinct nonces set-up grinds for each of the
// 8 blobs the endpoint serves: a pass is about half a second long, so
// relogins stay rare, and set-up is 32,768 CryptoNight hashes.
const acceptDeck = 4096

// shareAccept is the paper's browser dialect end to end: two ws
// connections over loopback TCP submit pre-ground shares back to back to
// a bare pool (no archive, no federation, vardiff and bans off).
type shareAccept struct {
	target *loadgen.InprocTarget
	miners []*miner
}

func setupShareAccept(o options) (instance, error) {
	target, err := loadgen.StartInproc(1, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	// Both connections use one endpoint: its backend's 8 templates are
	// every blob a login there can be served, so 8 decks cover them all.
	var urls []string
	for c := 0; c < shareConns; c++ {
		urls = append(urls, target.URL+"/proxy0")
	}
	miners, err := newMiners(urls, o.scaled(acceptDeck, 160), o)
	if err != nil {
		target.Close()
		return nil, err
	}
	return &shareAccept{target: target, miners: miners}, nil
}

func (w *shareAccept) drive(rec *recorder) {
	var wg sync.WaitGroup
	for _, m := range w.miners {
		wg.Add(1)
		go func(m *miner, l *lane) {
			defer wg.Done()
			loopStart := now()
			for !rec.stopped() && w.submitOne(rec, m, l) {
			}
			l.wallNs += now() - loopStart
		}(m, rec.lane())
	}
	wg.Wait()
}

// submitOne runs one closed-loop turn: submit, read the accept (the
// latency sample ends there), then read the job the client-clocked
// dialect sends behind every accept. False ends the generator.
func (w *shareAccept) submitOne(rec *recorder, m *miner, l *lane) bool {
	nonce, result, err := m.share()
	if err != nil {
		l.fail("relogin: %v", err)
		return false
	}
	t0 := now()
	if err := m.sess.Submit(m.job.ID, nonce, result); err != nil {
		l.fail("submit: %v", err)
		return false
	}
	t1 := now()
	env, err := m.sess.ReadEnvelope()
	t2 := now()
	if err != nil || env.Type != stratum.TypeHashAccepted {
		l.fail("submit answered with %q (%v)", env.Type, err)
		return err == nil
	}
	m.shares[m.key]++
	l.op(t0, t2, 1)
	env, err = m.sess.ReadEnvelope()
	if err != nil || env.Type != stratum.TypeJob {
		l.fail("accept followed by %q (%v)", env.Type, err)
		return false
	}
	if rec.trace {
		t3 := now()
		l.nextOp++
		l.span("client.submit_write", "share", l.nextOp, t0, t1)
		l.span("client.accept_wait_read", "share", l.nextOp, t1, t2)
		l.span("share", "", l.nextOp, t0, t2)
		l.waitNs += t3 - t1
	}
	return true
}

// check: every submit was accepted (lane failures cover that), the pool
// counted exactly the accepted shares and nothing else, and every
// account's credit is its share count times the share difficulty (1).
func (w *shareAccept) check() []string {
	var fails []string
	var total int64
	for _, m := range w.miners {
		for key, n := range m.shares {
			total += n
			acct, ok := w.target.Pool.AccountSnapshot(key)
			if !ok || acct.TotalHashes != uint64(n) {
				fails = append(fails, fmt.Sprintf("account %s: credit %d, want %d shares × difficulty 1", key, acct.TotalHashes, n))
			}
		}
	}
	st := w.target.Pool.StatsSnapshot()
	if st.SharesOK != uint64(total) || st.SharesBad != 0 {
		fails = append(fails, fmt.Sprintf("pool counted %d accepted / %d rejected shares, clients saw %d accepted", st.SharesOK, st.SharesBad, total))
	}
	return fails
}

func (w *shareAccept) layers(o options, m map[string]float64) error {
	f, err := newSubmitFixture(o)
	if err != nil {
		return err
	}
	defer f.ms.Close()
	return measureSubmitLayers(f, m, true)
}

func (w *shareAccept) close() {
	for _, m := range w.miners {
		m.close()
	}
	w.target.Close()
}

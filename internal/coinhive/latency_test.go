package coinhive_test

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/coinhive"
	"repro/internal/memconn"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/stratum"
)

// memMiner is a raw stratum session over memconn whose calls return
// errors instead of failing the test, so many can run on their own
// goroutines.
type memMiner struct {
	nc  net.Conn
	br  *bufio.Reader
	seq int
}

// memStratum serves a raw-TCP stratum front for handler on an in-memory
// listener and returns its dialer.
func memStratum(t *testing.T, handler *coinhive.Server) func() (*memMiner, error) {
	t.Helper()
	ss := coinhive.NewStratumServer(handler.Engine())
	ln := memconn.Listen()
	go ss.Serve(ln)
	t.Cleanup(func() {
		ss.Shutdown()
		ln.Close()
	})
	return func() (*memMiner, error) {
		nc, err := ln.Dial()
		if err != nil {
			return nil, err
		}
		return &memMiner{nc: nc, br: bufio.NewReaderSize(nc, stratum.MaxRPCLine)}, nil
	}
}

// call sends one request line and reads the next envelope, waiting at
// most wait for it.
func (m *memMiner) call(wait time.Duration, format string, args ...interface{}) (stratum.RPCEnvelope, error) {
	m.seq++
	line := fmt.Sprintf(`{"id":%d,"jsonrpc":"2.0",`+format+"}\n", append([]interface{}{m.seq}, args...)...)
	if _, err := m.nc.Write([]byte(line)); err != nil {
		return stratum.RPCEnvelope{}, err
	}
	_ = m.nc.SetReadDeadline(time.Now().Add(wait))
	raw, err := stratum.ReadRPCLine(m.br)
	if err != nil {
		return stratum.RPCEnvelope{}, err
	}
	return stratum.UnmarshalRPC(raw)
}

// login opens the session and returns its login result.
func (m *memMiner) login(key string) (stratum.LoginResult, error) {
	var res stratum.LoginResult
	env, err := m.call(5*time.Second, `"method":"login","params":{"login":%q}`, key)
	if err == nil && env.Error != nil {
		err = fmt.Errorf("login %s: %s", key, env.Error.Message)
	}
	if err == nil {
		err = env.DecodeResult(&res)
	}
	return res, err
}

// submit sends one share and returns the answer and how long it took.
func (m *memMiner) submit(res stratum.LoginResult, jobID string, nonce uint32, sum [32]byte, wait time.Duration) (stratum.RPCEnvelope, time.Duration, error) {
	t0 := time.Now()
	env, err := m.call(wait, `"method":"submit","params":{"id":%q,"job_id":%q,"nonce":%q,"result":%q}`,
		res.ID, jobID, stratum.EncodeNonce(nonce), stratum.EncodeBlob(sum[:]))
	return env, time.Since(t0), err
}

// share is one ground (nonce, result) pair.
type share struct {
	nonce uint32
	sum   [32]byte
}

// honestMiner is a logged-in session holding n distinct shares ground
// for its job.
type honestMiner struct {
	m      *memMiner
	res    stratum.LoginResult
	shares []share
}

func newHonestMiner(t *testing.T, pool *coinhive.Pool, dial func() (*memMiner, error), key string, n int) *honestMiner {
	t.Helper()
	m, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.nc.Close() })
	res, err := m.login(key)
	if err != nil {
		t.Fatal(err)
	}
	job := mustDecodeJob(t, res.Job)
	h := &honestMiner{m: m, res: res, shares: make([]share, n)}
	var next uint32
	for i := range h.shares {
		h.shares[i].nonce, h.shares[i].sum = grindShare(t, pool, job, next)
		next = h.shares[i].nonce + 1
	}
	return h
}

// submitAll submits the shares one after another, pausing between
// submits like a miner between finds, and returns each submit's round
// trip but the first, which warms the verifier's hasher pool.
func (h *honestMiner) submitAll() ([]time.Duration, error) {
	lat := make([]time.Duration, 0, len(h.shares))
	for i, s := range h.shares {
		env, d, err := h.m.submit(h.res, h.res.Job.JobID, s.nonce, s.sum, 5*time.Second)
		if err != nil {
			return lat, fmt.Errorf("%s: submit: %w", h.res.ID, err)
		}
		if env.Error != nil {
			return lat, fmt.Errorf("%s: share rejected: %s", h.res.ID, env.Error.Message)
		}
		if i > 0 {
			lat = append(lat, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return lat, nil
}

// p99 returns the 99th percentile of ds (0 for none).
func p99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*99+99)/100-1]
}

// runHonest logs in and grinds for every honest miner first, then has
// them all submit concurrently, and returns their submit round trips.
func runHonest(t *testing.T, pool *coinhive.Pool, dial func() (*memMiner, error), prefix string, miners, shares int) []time.Duration {
	t.Helper()
	hs := make([]*honestMiner, miners)
	for i := range hs {
		hs[i] = newHonestMiner(t, pool, dial, fmt.Sprintf("%s-%d", prefix, i), shares)
	}
	var mu sync.Mutex
	var all []time.Duration
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func(h *honestMiner) {
			defer wg.Done()
			lat, err := h.submitAll()
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			all = append(all, lat...)
			mu.Unlock()
		}(h)
	}
	wg.Wait()
	return all
}

// TestHonestLatencyUnderAttack holds the defended pool's honest-latency
// bound: honest miners' submit p99 on a pool with banscore on, under a
// concurrent attack, stays within 2× their p99 on an undefended pool
// with no attack, plus 5ms for the scheduler. Each side is the best of
// three runs, so a burst of outside load on the box cannot fail the test
// and cannot hide a wait every defended submit pays. The attackers
// replay an accepted share, flood a never-issued job ID and hammer logins
// on one key, so the defended path's rate limit, offense scoring and bans
// all run while the honest miners submit.
func TestHonestLatencyUnderAttack(t *testing.T) {
	const miners, shares = 4, 40 // the default submit burst
	steady, underAttack := time.Duration(1<<62), time.Duration(1<<62)
	for run := 0; run < 3; run++ {
		_, plain, plainPool := startService(t, 2)
		steady = min(steady, p99(runHonest(t, plainPool, memStratum(t, plain), "steady", miners, shares)))
		underAttack = min(underAttack, attackedP99(t, miners, shares))
	}
	t.Logf("honest submit p99: %v steady, %v under attack", steady, underAttack)
	if bound := 2*steady + 5*time.Millisecond; underAttack > bound {
		t.Errorf("honest submit p99 %v under attack exceeds 2× the steady %v + 5ms = %v", underAttack, steady, bound)
	}
}

// attackedP99 runs the honest miners against a defended pool while
// attackers run alongside, and returns the honest submit p99. Every
// attacker must end banned, and the replayed share be credited once.
func attackedP99(t *testing.T, miners, shares int) time.Duration {
	_, handler, pool := startService(t, 2, func(c *coinhive.PoolConfig) {
		c.Ban = coinhive.BanConfig{
			BanThreshold:    20,
			BanDuration:     time.Minute,
			LoginRatePerSec: 2,
		}
	})
	dial := memStratum(t, handler)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// attack runs sessions under key until the honest miners are done:
	// log in, then send what next builds every 5ms until the pool refuses
	// the session. A refused login (rate limited, then banned) ends a
	// session at once, so a banned attacker keeps hammering logins.
	attack := func(key string, next func(m *memMiner, res stratum.LoginResult) (stratum.RPCEnvelope, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				m, err := dial()
				if err != nil {
					return
				}
				res, err := m.login(key)
				for err == nil {
					var env stratum.RPCEnvelope
					if env, err = next(m, res); err == nil && env.Error != nil && env.Error.Code == stratum.RPCBanned {
						break
					}
					select {
					case <-stop:
						err = net.ErrClosed
					case <-time.After(5 * time.Millisecond):
					}
				}
				m.nc.Close()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		// A duplicate submitter replays its one accepted share.
		var dup struct {
			nonce uint32
			sum   [32]byte
		}
		attack(fmt.Sprintf("attack-dup-%d", i), func(m *memMiner, res stratum.LoginResult) (stratum.RPCEnvelope, error) {
			if dup.nonce == 0 {
				job, err := session.DecodeJob(res.Job)
				if err != nil {
					return stratum.RPCEnvelope{}, err
				}
				dup.nonce, dup.sum = grindShare(t, pool, job, 1)
			}
			env, _, err := m.submit(res, res.Job.JobID, dup.nonce, dup.sum, 5*time.Second)
			return env, err
		})
		// A bogus-job flooder submits against a never-issued job ID.
		attack(fmt.Sprintf("attack-bogus-%d", i), func(m *memMiner, res stratum.LoginResult) (stratum.RPCEnvelope, error) {
			env, _, err := m.submit(res, "0-999999-0-d2", 0, [32]byte{}, 5*time.Second)
			if err == nil && env.Error != nil && env.Error.Code == stratum.RPCStaleJob {
				_, err = stratum.ReadRPCLine(m.br) // the re-job behind the named stale
			}
			return env, err
		})
	}
	// A reconnect hammer logs in on one key over and over.
	attack("attack-hammer", func(*memMiner, stratum.LoginResult) (stratum.RPCEnvelope, error) {
		return stratum.RPCEnvelope{}, net.ErrClosed
	})
	lat := p99(runHonest(t, pool, dial, "honest", miners, shares))
	close(stop)
	wg.Wait()

	for _, key := range []string{"attack-dup-0", "attack-dup-1", "attack-bogus-0", "attack-bogus-1", "attack-hammer"} {
		if _, until := handler.Engine().AbuseState(key); until.IsZero() {
			t.Errorf("%s never banned", key)
		}
	}
	for _, key := range []string{"attack-dup-0", "attack-dup-1"} {
		if acct, ok := pool.AccountSnapshot(key); !ok || acct.TotalHashes != 2 {
			t.Errorf("%s credited %+v, want its one share of difficulty 2", key, acct)
		}
	}
	return lat
}

// stalledStore is an archive store whose Append blocks until released:
// a disk that has stopped answering.
type stalledStore struct {
	release chan struct{}
}

func (s *stalledStore) Append(*archive.Event) error { <-s.release; return nil }
func (s *stalledStore) Sync() error                 { return nil }
func (s *stalledStore) Next(c archive.Cursor, out []archive.Event) (int, archive.Cursor, error) {
	return 0, c, nil
}
func (s *stalledStore) Close() error { return nil }

// TestSubmitAnsweredWhileArchiveStalls: archiving never holds up a
// submit. With the archive store blocked in Append, every share is still
// answered within 100ms, and the events the bounded queue cannot hold are
// dropped and counted in pool.archive_dropped. A Record that waited on
// the store — flushing, or sleeping like a slow disk — fails here.
func TestSubmitAnsweredWhileArchiveStalls(t *testing.T) {
	store := &stalledStore{release: make(chan struct{})}
	reg := metrics.NewRegistry()
	rec := archive.NewRecorder(store, reg, 4)
	_, handler, pool := startService(t, 2, func(c *coinhive.PoolConfig) {
		c.Metrics = reg
		c.Archive = rec
	})
	t.Cleanup(func() {
		close(store.release)
		rec.Close()
	})
	const shares = 16
	h := newHonestMiner(t, pool, memStratum(t, handler), "stalled-archive", shares)
	for i, s := range h.shares {
		env, d, err := h.m.submit(h.res, h.res.Job.JobID, s.nonce, s.sum, time.Second)
		if err != nil {
			t.Fatalf("share %d: no answer while the archive stalls: %v", i, err)
		}
		if env.Error != nil {
			t.Fatalf("share %d rejected: %s", i, env.Error.Message)
		}
		if d > 100*time.Millisecond {
			t.Errorf("share %d answered in %v while the archive stalls, want within 100ms", i, d)
		}
	}
	// One event is stuck in Append and four wait in the queue; the rest
	// were dropped.
	if got := reg.Counter("pool.archive_dropped").Load(); got < shares-5 {
		t.Errorf("pool.archive_dropped = %d after %d accepts into a stalled store, want >= %d", got, shares, shares-5)
	}
	if got := pool.StatsSnapshot().SharesOK; got != shares {
		t.Errorf("SharesOK = %d, want %d", got, shares)
	}
}

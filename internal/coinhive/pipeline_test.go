package coinhive_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/coinhive"
	"repro/internal/metrics"
	"repro/internal/stratum"
)

// pipeService is a vardiff- and banscore-defended pool with an archive,
// its stratum front served over memconn, and one miner logged in. The
// vardiff clamp tops out at the share difficulty, so the frozen clock's
// infinite share rate never retargets, and the ban threshold is out of
// reach, so every command of a stream is answered.
type pipeService struct {
	pool  *coinhive.Pool
	dial  func() (*memMiner, error)
	m     *memMiner
	res   stratum.LoginResult
	rec   *archive.Recorder
	store archive.Store
}

func newPipeService(t *testing.T) *pipeService {
	t.Helper()
	s := &pipeService{store: archive.NewMemStore(1 << 12)}
	s.rec = archive.NewRecorder(s.store, nil, 0)
	_, handler, pool := startService(t, 4, func(c *coinhive.PoolConfig) {
		c.Vardiff = coinhive.VardiffConfig{TargetSharesPerMin: 240, MinDifficulty: 1, MaxDifficulty: 4}
		c.Ban = coinhive.BanConfig{BanThreshold: 1e6, OffenseScore: 25, BanDuration: time.Minute}
		c.Archive = s.rec
	})
	s.pool, s.dial = pool, memStratum(t, handler)
	s.m = s.mustDial(t)
	var err error
	if s.res, err = s.m.login("pipeline-key"); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *pipeService) mustDial(t *testing.T) *memMiner {
	t.Helper()
	m, err := s.dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.nc.Close() })
	return m
}

func (s *pipeService) batched() uint64 {
	return s.pool.Metrics().Counter("pool.batched_verifies").Load()
}

// submitLine is one JSON-RPC submit request line.
func submitLine(id int, token, jobID, nonceHex string, sum [32]byte) string {
	return fmt.Sprintf(`{"id":%d,"jsonrpc":"2.0","method":"submit","params":{"id":%q,"job_id":%q,"nonce":%q,"result":%q}}`+"\n",
		id, token, jobID, nonceHex, stratum.EncodeBlob(sum[:]))
}

// readResponses reads reply lines until n responses (lines with an id)
// have arrived, and returns every line read, notifications included.
func readResponses(t *testing.T, m *memMiner, n int) []byte {
	t.Helper()
	var out []byte
	for n > 0 {
		_ = m.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := stratum.ReadRPCLine(m.br)
		if err != nil {
			t.Fatalf("reading replies, %d responses short: %v", n, err)
		}
		out = append(append(out, line...), '\n')
		if bytes.Contains(line, []byte(`"id":`)) {
			n--
		}
	}
	return out
}

// counterBooks is every counter and histogram count in reg but
// pool.batched_verifies, by name: the instruments a pipelined run must
// leave as the one-at-a-time run does.
func counterBooks(reg *metrics.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range reg.Snapshots() {
		if s.Name != "pool.batched_verifies" {
			out[s.Name] = s.Value + s.Count
		}
	}
	return out
}

// TestStratumPipelinedSubmitsMatchOneByOne sends one seeded stream of
// requests to a fresh service twice: in one write, so the front reads
// and pre-hashes it in runs, and line by line, waiting for each reply.
// The reply bytes, the replayed archive and the pool's books must be
// equal, and only the pipelined run hashes ahead — exactly the submits
// that pass the screens, a blob repeated in a run once. A second
// connection then sends the stream's first run before logging in.
func TestStratumPipelinedSubmitsMatchOneByOne(t *testing.T) {
	type outcome struct {
		replies []byte
		replay  *archive.ReplayResult
		stats   coinhive.Stats
		acct    coinhive.Account
		books   map[string]uint64
	}
	run := func(t *testing.T, pipelined bool) outcome {
		svc := newPipeService(t)
		pool, m, res := svc.pool, svc.m, svc.res
		job := mustDecodeJob(t, res.Job)
		var valid [12]share
		next := uint32(0)
		for i := range valid {
			valid[i].nonce, valid[i].sum = grindShare(t, pool, job, next)
			next = valid[i].nonce + 1
		}
		// Bad PoW: issued job, unground nonces, another share's hash.
		bad := func(k uint32) share { return share{nonce: next + 1000 + k, sum: valid[0].sum} }
		parts := strings.Split(res.Job.JobID, "-") // backend-seq-slot-dN
		seq, _ := strconv.Atoi(parts[1])
		stale := strings.Join([]string{parts[0], strconv.Itoa(seq - 1), parts[2], parts[3]}, "-")
		forged := strings.Join(parts[:3], "-") + "-d1"
		static := strings.Join(parts[:3], "-")

		var lines []string
		id := 1 // login took 1
		sub := func(jobID string, s share) {
			id++
			lines = append(lines, submitLine(id, res.ID, jobID, stratum.EncodeNonce(s.nonce), s.sum))
		}
		other := func(body string) {
			id++
			lines = append(lines, fmt.Sprintf(`{"id":%d,"jsonrpc":"2.0",%s}`+"\n", id, body))
		}
		j := res.Job.JobID
		// Runs as the front reads them: up to eight commands, each run
		// ending at its first command that is not a submit.
		// Run 1: S0..S3 hashed ahead (S0 twice in the run, hashed once).
		sub(j, valid[0])
		sub(j, valid[1])
		sub(j, valid[2])
		sub(j, valid[0])
		sub(stale, valid[4])
		sub(j, valid[3])
		sub("no-such-job", valid[4])
		sub(forged, valid[4])
		// Run 2: S4..S8 and one bad PoW hashed ahead; S1 is a paid
		// duplicate, S9 under the static-tier ID a forged tier.
		sub(j, valid[4])
		sub(j, valid[5])
		sub(j, bad(0))
		sub(j, valid[1])
		sub(j, valid[6])
		sub(j, valid[7])
		sub(static, valid[9])
		sub(j, valid[8])
		// Runs 3 and 4: one submit each, cut by a keepalive and by a
		// submit with an undecodable nonce.
		sub(j, valid[9])
		other(fmt.Sprintf(`"method":"keepalived","params":{"id":%q}`, res.ID))
		sub(j, valid[10])
		id++
		lines = append(lines, submitLine(id, res.ID, j, "zz", valid[0].sum))
		// Run 5: S11 and a bad PoW hashed ahead; S9 is a paid duplicate.
		sub(j, valid[11])
		sub(j, valid[9])
		sub(j, bad(1))
		const wantBatched = 4 + 6 + 2

		var replies []byte
		if pipelined {
			if _, err := m.nc.Write([]byte(strings.Join(lines, ""))); err != nil {
				t.Fatal(err)
			}
			replies = readResponses(t, m, len(lines))
		} else {
			for _, l := range lines {
				if _, err := m.nc.Write([]byte(l)); err != nil {
					t.Fatal(err)
				}
				replies = append(replies, readResponses(t, m, 1)...)
			}
		}
		// Before login, "expected auth" answers the first line and ends
		// the session; pipelined, the whole first run is in hand by then.
		early, first := svc.mustDial(t), lines[:1]
		if pipelined {
			first = lines[:8]
		}
		if _, err := early.nc.Write([]byte(strings.Join(first, ""))); err != nil {
			t.Fatal(err)
		}
		replies = append(replies, readResponses(t, early, 1)...)
		want := uint64(0)
		if pipelined {
			want = wantBatched
		}
		if got := svc.batched(); got != want {
			t.Errorf("pipelined %v: pool.batched_verifies = %d, want %d", pipelined, got, want)
		}
		svc.rec.Flush()
		replay, err := archive.Replay(svc.store)
		if err != nil {
			t.Fatal(err)
		}
		acct, _ := pool.AccountSnapshot(res.ID)
		return outcome{replies, replay, pool.StatsSnapshot(), acct, counterBooks(pool.Metrics())}
	}

	one := run(t, false)
	piped := run(t, true)
	if !bytes.Equal(one.replies, piped.replies) {
		t.Errorf("reply bytes diverge:\none by one:\n%s\npipelined:\n%s", one.replies, piped.replies)
	}
	if !reflect.DeepEqual(one.replay, piped.replay) {
		t.Errorf("archive replays diverge:\none by one %+v\npipelined %+v", one.replay, piped.replay)
	}
	if one.stats != piped.stats || one.acct != piped.acct {
		t.Errorf("books diverge: one by one %+v %+v, pipelined %+v %+v", one.stats, one.acct, piped.stats, piped.acct)
	}
	if !reflect.DeepEqual(one.books, piped.books) {
		t.Errorf("instruments diverge:\none by one %v\npipelined %v", one.books, piped.books)
	}
	if one.stats.SharesOK != 12 || one.stats.SharesDuplicate != 3 || one.stats.SharesStale != 1 {
		t.Errorf("stream scored %+v, want 12 accepted, 3 duplicates, 1 stale", one.stats)
	}
}

// TestStratumPipelinedFloodHashesNothingAhead: pipelined runs the screens
// turn away — paid duplicates, stale IDs, tiers never served, and
// submits before login — hash nothing ahead, so a flood of them costs a
// verify no more than it did one at a time. The control is a run the
// screens pass: four shares and four bad-PoW submits to the issued job,
// judged as one at a time would judge them.
func TestStratumPipelinedFloodHashesNothingAhead(t *testing.T) {
	// flood sends eight submits of jobID in one write and reads n replies.
	flood := func(t *testing.T, m *memMiner, n int, token, jobID string, shares func(i int) share) {
		t.Helper()
		var b strings.Builder
		for i := 0; i < 8; i++ {
			s := shares(i)
			b.WriteString(submitLine(100+i, token, jobID, stratum.EncodeNonce(s.nonce), s.sum))
		}
		if _, err := m.nc.Write([]byte(b.String())); err != nil {
			t.Fatal(err)
		}
		readResponses(t, m, n)
	}
	unground := func(i int) share { return share{nonce: uint32(5000 + i)} }
	requireNone := func(t *testing.T, svc *pipeService, what string) {
		t.Helper()
		if got := svc.batched(); got != 0 {
			t.Errorf("pool.batched_verifies = %d after %s, want 0", got, what)
		}
	}

	t.Run("duplicates", func(t *testing.T) {
		svc := newPipeService(t)
		job := mustDecodeJob(t, svc.res.Job)
		var paid [2]share
		for i, next := 0, uint32(0); i < len(paid); i++ {
			paid[i].nonce, paid[i].sum = grindShare(t, svc.pool, job, next)
			next = paid[i].nonce + 1
			if env, _, err := svc.m.submit(svc.res, svc.res.Job.JobID, paid[i].nonce, paid[i].sum, 5*time.Second); err != nil || env.Error != nil {
				t.Fatalf("first submit: %v %+v", err, env.Error)
			}
		}
		flood(t, svc.m, 8, svc.res.ID, svc.res.Job.JobID, func(i int) share { return paid[i%2] })
		if got := svc.pool.StatsSnapshot().SharesDuplicate; got != 8 {
			t.Fatalf("pool.shares_duplicate = %d, want 8", got)
		}
		requireNone(t, svc, "a duplicate flood")
	})
	t.Run("stale", func(t *testing.T) {
		svc := newPipeService(t)
		parts := strings.Split(svc.res.Job.JobID, "-")
		parts[1] = "0" // the generation before the first refresh's
		flood(t, svc.m, 8, svc.res.ID, strings.Join(parts, "-"), unground)
		if got := svc.pool.StatsSnapshot().SharesStale; got != 8 {
			t.Fatalf("pool.shares_stale = %d, want 8", got)
		}
		requireNone(t, svc, "a stale flood")
	})
	t.Run("forged tiers", func(t *testing.T) {
		svc := newPipeService(t)
		parts := strings.Split(svc.res.Job.JobID, "-")
		flood(t, svc.m, 8, svc.res.ID, strings.Join(parts[:3], "-")+"-d1", unground)
		if got := svc.pool.Metrics().Counter("server.shares_forged").Load(); got != 8 {
			t.Fatalf("server.shares_forged = %d, want 8", got)
		}
		requireNone(t, svc, "a forged-tier flood")
	})
	t.Run("before login", func(t *testing.T) {
		svc := newPipeService(t)
		// The logged-in session's job is issued; "expected auth" answers
		// the first submit and ends the session.
		flood(t, svc.mustDial(t), 1, "", svc.res.Job.JobID, unground)
		requireNone(t, svc, "submits before login")
	})
	t.Run("control", func(t *testing.T) {
		svc := newPipeService(t)
		job := mustDecodeJob(t, svc.res.Job)
		var valid [4]share
		for i, next := 0, uint32(0); i < len(valid); i++ {
			valid[i].nonce, valid[i].sum = grindShare(t, svc.pool, job, next)
			next = valid[i].nonce + 1
		}
		flood(t, svc.m, 8, svc.res.ID, svc.res.Job.JobID, func(i int) share {
			if i < len(valid) {
				return valid[i]
			}
			return unground(i)
		})
		if st := svc.pool.StatsSnapshot(); st.SharesOK != 4 || st.SharesBad != 4 {
			t.Fatalf("control run scored %d accepted and %d bad, want 4 and 4", st.SharesOK, st.SharesBad)
		}
		if got := svc.batched(); got != 8 {
			t.Errorf("pool.batched_verifies = %d after the control run, want 8", got)
		}
	})
}

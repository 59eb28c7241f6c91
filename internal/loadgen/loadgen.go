// Package loadgen drives a live coinhive service with a swarm of
// protocol-faithful miner sessions — the measurement axis the paper's
// object demands: Coinhive at peak held hundreds of thousands of
// concurrent browser miners on ~32 WebSocket endpoints, so scale claims
// about the reproduction must come from a service under socket load,
// not from in-process benchmarks.
//
// Two design points make thousands of sessions viable on one CPU:
//
//   - Sessions are state machines multiplexed onto a small worker pool,
//     not goroutine-per-session. The ws dialect is strictly
//     client-clocked (the pool only ever speaks in response to a client
//     message), so a parked ws session never has unsolicited data to
//     read; the TCP stratum dialect is server-clocked, but its pushes
//     land in the parked session's kernel socket buffer and are drained
//     on its next turn — either way a parked session holds a file
//     descriptor and ~nothing else. Only the W sessions currently
//     mid-turn occupy a stack.
//
//   - Sessions replay shares from a pre-grinding Oracle instead of
//     mining, so the swarm pays protocol cost, not PoW cost (see
//     oracle.go).
package loadgen

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"time"

	"sync"
	"sync/atomic"

	"repro/internal/cryptonight"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/stratum"
)

// Config sizes a swarm against one service.
type Config struct {
	// URL is the service base, e.g. ws://127.0.0.1:8080 — ws sessions
	// round-robin across its /proxy0…/proxy31 endpoints.
	URL string
	// TCPAddr is the raw-TCP stratum listener (host:port). Required by
	// scenarios whose Transport is "tcp" or "mixed".
	TCPAddr string
	// HTTPURL is the service's plain-HTTP base (http://host:port), where
	// /api/v1 lives. Required by scenarios with APIReaders.
	HTTPURL string
	// DialTCP, when set, replaces the address dial for TCP-dialect
	// sessions: the swarm runs each stratum session over the returned
	// conn instead of opening a socket to TCPAddr. The in-process
	// target wires its memconn listener here, which is what lets the
	// scale tiers exceed the box's file-descriptor budget. Only Mem
	// scenarios use it.
	DialTCP func() (net.Conn, error)
	// ParkedFn, when set, is sampled at the all-parked barrier and
	// reported as Result.ServerParked — drivers wire the stratum
	// front's Parked gauge so each row records how many sessions the
	// server was holding without a goroutine.
	ParkedFn func() int64
	// AtBarrier, when set, fires once at the all-parked barrier, before
	// the hold window opens. Drivers use it to re-scope server-side
	// measurement cursors so scale-row push percentiles cover only
	// full-swarm fan-outs — ramp-phase pushes land on a partial swarm
	// that is simultaneously burning CPU on login and share grinding,
	// which says nothing about steady-state fan-out cost.
	AtBarrier func()
	// Refresh, when set, is invoked on the scenario's RefreshEvery cadence
	// to move the target's chain tip mid-run — the event that makes the
	// TCP dialect push jobs and both dialects field stale shares. The
	// in-process target wires AdvanceTip here.
	Refresh func()
	// Sessions is the swarm size.
	Sessions int
	// Scenario is the load shape.
	Scenario Scenario
	// Variant must match the pool chain's PoW profile.
	Variant cryptonight.Variant
	// Deadline bounds the whole run (default 60s); exceeding it is an
	// error, not a hang.
	Deadline time.Duration
	// Registry receives the load.* instruments. Passing the target
	// pool's own registry gives one unified /metrics view; nil gets a
	// private one.
	Registry *metrics.Registry
}

// wsEndpoints is the /proxyN fan every coinhived serves (the paper's
// topology of 32 WebSocket endpoints).
const wsEndpoints = 32

// readTimeout bounds each socket read of a swarm session and each
// stats-API request.
const readTimeout = 10 * time.Second

func (c *Config) fillDefaults() {
	if c.Sessions == 0 {
		c.Sessions = 64
	}
	if c.Deadline == 0 {
		c.Deadline = 60 * time.Second
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
}

// Result is one load run's trajectory point.
type Result struct {
	Scenario       string  `json:"scenario"`
	Transport      string  `json:"transport,omitempty"`
	Sessions       int     `json:"sessions"`
	Workers        int     `json:"workers"`
	PeakConcurrent int64   `json:"peak_concurrent"`
	EndConcurrent  int64   `json:"end_concurrent"` // live sessions at the all-parked barrier
	Connects       uint64  `json:"connects"`
	Reconnects     uint64  `json:"reconnects"`
	SharesOK       uint64  `json:"shares_ok"`
	ProtocolErrors uint64  `json:"protocol_errors"`
	OracleGrinds   uint64  `json:"oracle_grinds"`
	DurationNs     int64   `json:"duration_ns"`
	SharesPerSec   float64 `json:"shares_per_sec"`
	AcceptP50Ns    int64   `json:"accept_p50_ns"`
	AcceptP99Ns    int64   `json:"accept_p99_ns"`
	AcceptMaxNs    int64   `json:"accept_max_ns"`
	ConnectP99Ns   int64   `json:"connect_p99_ns"`

	// TipRefreshes counts the mid-run chain-tip moves this scenario
	// forced; JobPushes/PushP99Ns are the server-side job-push fan-out
	// numbers for this scenario alone (filled in by the driver, which
	// owns the target's registry and cursors its push histogram).
	// PushBytes and JobEncodes (also driver-filled, registry deltas)
	// make the encode-once claim checkable per row: bytes-on-the-wire
	// per push and distinct encodes per tip event. ServerParked is the
	// stratum front's parked-session count at the all-parked barrier.
	TipRefreshes uint64 `json:"tip_refreshes,omitempty"`
	JobPushes    uint64 `json:"job_pushes,omitempty"`
	PushP99Ns    int64  `json:"push_p99_ns,omitempty"`
	PushBytes    uint64 `json:"push_bytes,omitempty"`
	JobEncodes   uint64 `json:"job_encodes,omitempty"`
	ServerParked int64  `json:"server_parked,omitempty"`

	// GoroutinesAtPark samples runtime.NumGoroutine at the all-parked
	// barrier — the minimum of a few spaced samples, so an in-flight
	// push fan-out's transient drain goroutines don't inflate it. With
	// an in-process target it covers client and server together; the
	// scale gate's goroutines-per-parked-session bound is pinned on it.
	GoroutinesAtPark int `json:"goroutines_at_park,omitempty"`

	// Hostile-scenario outcomes, as observed on the client side of the
	// wire. DuplicateCredited is the zero-duplicate-credit invariant: any
	// non-zero value means the pool paid twice for one share (it is also
	// a counted protocol error).
	SessionsBanned     uint64 `json:"sessions_banned,omitempty"`
	RejectedDuplicate  uint64 `json:"rejected_duplicate,omitempty"`
	RejectedRateLimit  uint64 `json:"rejected_rate_limited,omitempty"`
	RejectedStaleFlood uint64 `json:"rejected_stale_flood,omitempty"`
	DuplicateCredited  uint64 `json:"duplicate_credited,omitempty"`

	// Vardiff convergence, over honest sessions of a SimHashrate-paced
	// scenario: the mean accepted-share cadence measured at each
	// session's final difficulty tier, the modal final tier, and how many
	// honest sessions had a measurable (≥2-accept) cadence.
	HonestSessions      int     `json:"honest_sessions,omitempty"`
	HonestCadencePerMin float64 `json:"honest_cadence_per_min,omitempty"`
	ConvergedDifficulty uint64  `json:"converged_difficulty,omitempty"`

	// Stats-API reader outcomes (APIReaders scenarios): pages fetched,
	// failures (non-200, transport error, malformed body or a cursor
	// chain that never terminates), and the client-observed per-page
	// latency percentiles.
	APIQueries    uint64 `json:"api_queries,omitempty"`
	APIErrors     uint64 `json:"api_errors,omitempty"`
	APIQueryP50Ns int64  `json:"api_query_p50_ns,omitempty"`
	APIQueryP99Ns int64  `json:"api_query_p99_ns,omitempty"`

	// Server-side defense counters for this scenario (filled in by the
	// driver from the defended target's registry, like JobPushes).
	SrvBans         uint64 `json:"srv_bans,omitempty"`
	SrvRetargets    uint64 `json:"srv_retargets,omitempty"`
	SrvSharesForged uint64 `json:"srv_shares_forged,omitempty"`
	SrvStaleFloods  uint64 `json:"srv_stale_floods,omitempty"`
	SrvRateLimited  uint64 `json:"srv_rate_limited,omitempty"`
	SrvLoginsBanned uint64 `json:"srv_logins_banned,omitempty"`
	PoolDupShares   uint64 `json:"pool_shares_duplicate,omitempty"`

	// ErrorSamples holds the first few protocol-error descriptions, for
	// diagnosis when the zero-error assertion fails.
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// minerSession is one session's state between turns. While parked it is
// exactly this struct plus a socket — no goroutine.
type minerSession struct {
	idx           int
	url           string
	tcp           bool // raw-TCP stratum dialect (server-clocked)
	siteKey       string
	sess          *session.Session
	job           session.Job
	turnsLeft     int
	dialAttempts  int
	connectedOnce bool
	dead          bool

	// attack is the session's hostile behaviour (Attack* constants; empty
	// = honest). bannedCounted dedupes the per-session ban count.
	attack        string
	bannedCounted bool

	// seqByJob advances the oracle solution sequence per PoW input, so an
	// honest session never resubmits a (job, nonce) the pool's duplicate
	// memo has seen. It survives reconnects — resubmitting after one is
	// exactly what the account-level memo would catch.
	seqByJob map[string]int

	// credNonces remembers the nonces this session was credited for, per
	// PoW blob. The pool's duplicate memo keys on the tier-independent
	// blob identity, but the oracle sequences solutions per blob+target —
	// so after a vardiff retarget the new target's sequence restarts and
	// its first solutions can land on nonces already paid at the old tier
	// (the same hash is a solution at every tier it meets). An honest
	// miner never re-submits the same work, so validTurn skips those.
	credNonces map[string]map[uint32]struct{}

	// lastOK* remember the most recent credited share (validTurn fills
	// them); the duplicate submitter replays exactly this triple.
	lastOKJob   string
	lastOKNonce uint32
	lastOKSum   [32]byte

	// Duplicate-submit replay state.
	dupHave  bool
	dupJobID string
	dupNonce uint32
	dupSum   [32]byte

	// Stale-flood state: the tip-outrun job held for resubmission and a
	// nonce counter (also reused by the diff gamer for distinct nonces).
	heldJob session.Job
	heldSet bool
	flNonce uint32

	// Cadence measurement: credited shares at the current difficulty tier
	// (reset on every tier change — see noteAccept).
	cadDiff uint64
	cadN    int
	cadT0   time.Time
	cadLast time.Time
}

// phaseGate counts sessions down to an all-parked barrier.
type phaseGate struct {
	remaining atomic.Int64
	done      chan struct{}
}

func newGate(n int) *phaseGate {
	g := &phaseGate{done: make(chan struct{})}
	g.remaining.Store(int64(n))
	return g
}

func (g *phaseGate) finish() {
	if g.remaining.Add(-1) == 0 {
		close(g.done)
	}
}

// Swarm is one configured load run.
type Swarm struct {
	cfg    Config
	oracle *Oracle
	// workers is the goroutine pool executing session turns, sized from
	// the swarm: max(128, Sessions/32) capped at 512 and at Sessions —
	// it decouples session count from stack count, scaled so a 50k
	// swarm's connect phase is not serialised behind 128 stacks.
	workers int
	runq    chan *minerSession
	quit    chan struct{}
	gate    *phaseGate

	active     *metrics.Gauge
	connects   *metrics.Counter
	reconnects *metrics.Counter
	sharesOK   *metrics.Counter
	protoErrs  *metrics.Counter
	refreshes  *metrics.Counter
	acceptNs   *metrics.Histogram
	connectNs  *metrics.Histogram

	// Hostile-scenario instruments: containment outcomes as observed from
	// the client side of the wire.
	banned         *metrics.Counter // sessions that received the named ban
	dupRejected    *metrics.Counter // duplicate share rejections
	dupCredited    *metrics.Counter // duplicates the pool CREDITED — must stay zero
	rateLimited    *metrics.Counter // rate-limit rejections (login or submit)
	staleFloodErrs *metrics.Counter // too-many-stale errors

	// Stats-API reader instruments (APIReaders scenarios).
	apiQueries *metrics.Counter
	apiErrors  *metrics.Counter
	apiNs      *metrics.Histogram

	errMu      sync.Mutex
	errSamples []string

	// goroutinesAtPark and serverParked are sampled once, at the ramp
	// phase's all-parked barrier (see sampleGoroutines / Config.ParkedFn).
	goroutinesAtPark int
	serverParked     int64
}

// sampleGoroutines records the process goroutine count at the all-parked
// barrier. A tip refresh may be fanning out at that instant — its drain
// goroutines are transient per-write workers, not session costs — so the
// recorded value is the minimum over a short window, long enough to fall
// between two 1Hz refreshes.
func (sw *Swarm) sampleGoroutines() {
	minG := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		time.Sleep(60 * time.Millisecond)
		if g := runtime.NumGoroutine(); g < minG {
			minG = g
		}
	}
	sw.goroutinesAtPark = minG
}

// NewSwarm validates the config and wires the instruments.
func NewSwarm(cfg Config) (*Swarm, error) {
	cfg.fillDefaults()
	if cfg.URL == "" {
		return nil, fmt.Errorf("loadgen: Config.URL is required")
	}
	if cfg.Scenario.Name == "" {
		return nil, fmt.Errorf("loadgen: Config.Scenario is required")
	}
	if t := cfg.Scenario.Transport; (t == TransportTCP || t == TransportMixed) && cfg.TCPAddr == "" && cfg.DialTCP == nil {
		return nil, fmt.Errorf("loadgen: scenario %q needs Config.TCPAddr (or Config.DialTCP)", cfg.Scenario.Name)
	}
	if cfg.Scenario.Mem && cfg.DialTCP == nil {
		return nil, fmt.Errorf("loadgen: scenario %q runs over in-memory conns and needs Config.DialTCP", cfg.Scenario.Name)
	}
	if cfg.Scenario.APIReaders > 0 && cfg.HTTPURL == "" {
		return nil, fmt.Errorf("loadgen: scenario %q pages the stats API and needs Config.HTTPURL", cfg.Scenario.Name)
	}
	workers := min(max(128, cfg.Sessions/32), 512, cfg.Sessions)
	reg := cfg.Registry
	return &Swarm{
		cfg:     cfg,
		oracle:  NewOracle(cfg.Variant),
		workers: workers,
		// The queue holds every session plus slack, so enqueues from
		// workers and timers never block.
		runq:       make(chan *minerSession, cfg.Sessions+workers),
		quit:       make(chan struct{}),
		active:     reg.Gauge("load.sessions"),
		connects:   reg.Counter("load.connects"),
		reconnects: reg.Counter("load.reconnects"),
		sharesOK:   reg.Counter("load.shares_ok"),
		protoErrs:  reg.Counter("load.proto_errors"),
		refreshes:  reg.Counter("load.tip_refreshes"),
		acceptNs:   reg.Histogram("load.accept_ns"),
		connectNs:  reg.Histogram("load.connect_ns"),

		banned:         reg.Counter("load.sessions_banned"),
		dupRejected:    reg.Counter("load.rejected_duplicate"),
		dupCredited:    reg.Counter("load.duplicate_credited"),
		rateLimited:    reg.Counter("load.rejected_rate_limited"),
		staleFloodErrs: reg.Counter("load.rejected_stale_flood"),

		apiQueries: reg.Counter("load.api_queries"),
		apiErrors:  reg.Counter("load.api_errors"),
		apiNs:      reg.Histogram("load.api_query_ns"),
	}, nil
}

// Run executes the scenario and returns its trajectory point.
func Run(cfg Config) (Result, error) {
	sw, err := NewSwarm(cfg)
	if err != nil {
		return Result{}, err
	}
	return sw.Run()
}

// Run drives arrivals, waits for the all-parked barrier, holds the
// parked swarm for the scenario's hold window, then drains it with
// proper close handshakes.
func (sw *Swarm) Run() (Result, error) {
	start := time.Now()
	deadline := time.After(sw.cfg.Deadline)
	sc := sw.cfg.Scenario

	for w := 0; w < sw.workers; w++ {
		go sw.worker()
	}
	defer close(sw.quit)

	// Stats-API readers page /api/v1 for the whole run — through the
	// ramp, the turns and the hold — so the query percentiles reflect a
	// service that is simultaneously mining.
	readers := sw.startAPIReaders()

	// Mid-run tip refreshes: the chain event that makes the TCP dialect
	// push jobs and both dialects field stale shares.
	if sc.RefreshEvery > 0 && sw.cfg.Refresh != nil {
		go func() {
			tick := time.NewTicker(sc.RefreshEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					sw.cfg.Refresh()
					sw.refreshes.Inc()
				case <-sw.quit:
					return
				}
			}
		}()
	}

	sessions := make([]*minerSession, sw.cfg.Sessions)
	wsIdx := 0 // ws sessions get their own counter so they round-robin
	// every /proxyN endpoint even when mixed gives half the indices to TCP
	for i := range sessions {
		// Site keys are namespaced by scenario: bans on the defended
		// target outlive a run (that is the point of a ban), so a
		// catalogue driving several hostile scenarios at one service
		// must not have a later scenario inherit an earlier one's bans.
		s := &minerSession{
			idx:       i,
			siteKey:   fmt.Sprintf("swarm-%s-%04d", sc.Name, i),
			turnsLeft: sc.Turns,
			attack:    attackKindFor(sc, i),
			seqByJob:  map[string]int{},
		}
		if s.attack == AttackHammer {
			// Every hammer session shares one identity: the login bucket is
			// per site key, and draining it together IS the attack.
			s.siteKey = "swarm-" + sc.Name + "-hammer-shared"
		}
		// mixed alternates dialects session by session, so both hit one
		// pool (and one accounting plane) in the same run.
		if sc.Transport == TransportTCP || (sc.Transport == TransportMixed && i%2 == 1) {
			s.tcp = true
			s.url = "tcp://" + sw.cfg.TCPAddr
		} else {
			s.url = fmt.Sprintf("%s/proxy%d", strings.TrimSuffix(sw.cfg.URL, "/"), wsIdx%wsEndpoints)
			wsIdx++
		}
		sessions[i] = s
	}

	// Phase 1: open-loop ramp-in. The catalogue's Ramp values are sized
	// for ~1k-session swarms; scale tiers stretch the window linearly so
	// the arrival RATE — the thing the service actually absorbs — stays
	// the catalogue's, however big the swarm.
	ramp := sc.Ramp
	if sw.cfg.Sessions > 1000 {
		ramp = sc.Ramp * time.Duration(sw.cfg.Sessions) / 1000
	}
	sw.gate = newGate(len(sessions))
	for i, s := range sessions {
		sw.later(s, time.Duration(i)*ramp/time.Duration(len(sessions)))
	}
	if err := sw.await(deadline, "ramp phase"); err != nil {
		return sw.result(start, sessions), err
	}
	sw.sampleGoroutines()
	if sw.cfg.ParkedFn != nil {
		sw.serverParked = sw.cfg.ParkedFn()
	}
	if sw.cfg.AtBarrier != nil {
		sw.cfg.AtBarrier()
	}
	if sc.Hold > 0 {
		// Measurement window: the whole swarm is parked, tip refreshes
		// keep firing, and every one fans a push out to every session.
		time.Sleep(sc.Hold)
	}

	// Readers stop before the result snapshot so the query counters and
	// percentiles are final for this row.
	readers.stop()
	res := sw.result(start, sessions)

	// Drain: proper close handshake on every surviving session.
	for _, s := range sessions {
		sw.closeConn(s)
	}
	return res, nil
}

func (sw *Swarm) await(deadline <-chan time.Time, phase string) error {
	select {
	case <-sw.gate.done:
		return nil
	case <-deadline:
		return fmt.Errorf("loadgen: %s did not complete within %s (%d sessions still running)",
			phase, sw.cfg.Deadline, sw.gate.remaining.Load())
	}
}

func (sw *Swarm) result(start time.Time, sessions []*minerSession) Result {
	acc := sw.acceptNs.Snapshot()
	conn := sw.connectNs.Snapshot()
	dur := time.Since(start)
	r := Result{
		Scenario:       sw.cfg.Scenario.Name,
		Transport:      sw.cfg.Scenario.TransportName(),
		Sessions:       sw.cfg.Sessions,
		Workers:        sw.workers,
		PeakConcurrent: sw.active.Peak(),
		EndConcurrent:  sw.active.Load(),
		Connects:       sw.connects.Load(),
		Reconnects:     sw.reconnects.Load(),
		SharesOK:       sw.sharesOK.Load(),
		ProtocolErrors: sw.protoErrs.Load(),
		OracleGrinds:   sw.oracle.Grinds(),
		DurationNs:     int64(dur),
		AcceptP50Ns:    int64(acc.P50),
		AcceptP99Ns:    int64(acc.P99),
		AcceptMaxNs:    int64(acc.Max),
		ConnectP99Ns:   int64(conn.P99),
		TipRefreshes:   sw.refreshes.Load(),

		GoroutinesAtPark: sw.goroutinesAtPark,
		ServerParked:     sw.serverParked,
	}
	if dur > 0 {
		r.SharesPerSec = float64(r.SharesOK) / dur.Seconds()
	}
	r.APIQueries = sw.apiQueries.Load()
	r.APIErrors = sw.apiErrors.Load()
	if r.APIQueries > 0 {
		api := sw.apiNs.Snapshot()
		r.APIQueryP50Ns = int64(api.P50)
		r.APIQueryP99Ns = int64(api.P99)
	}
	r.SessionsBanned = sw.banned.Load()
	r.RejectedDuplicate = sw.dupRejected.Load()
	r.RejectedRateLimit = sw.rateLimited.Load()
	r.RejectedStaleFlood = sw.staleFloodErrs.Load()
	r.DuplicateCredited = sw.dupCredited.Load()
	if sw.cfg.Scenario.Attack != AttackNone {
		// Vardiff convergence over the honest population: each session's
		// cadence is measured at its final difficulty tier (noteAccept
		// resets the window on every tier change), so the mean is the
		// steady-state shares/min vardiff converged the swarm to. The modal
		// final tier is reported alongside so the acceptance check can pin
		// both the cadence and the difficulty it was achieved at.
		var cadSum float64
		var cadN int
		tiers := map[uint64]int{}
		for _, s := range sessions {
			if s.attack != AttackNone {
				continue
			}
			r.HonestSessions++
			if s.cadN >= 2 {
				if span := s.cadLast.Sub(s.cadT0); span > 0 {
					cadSum += float64(s.cadN-1) / span.Minutes()
					cadN++
					tiers[s.cadDiff]++
				}
			}
		}
		if cadN > 0 {
			r.HonestCadencePerMin = cadSum / float64(cadN)
		}
		best := 0
		for tier, n := range tiers {
			if n > best {
				best, r.ConvergedDifficulty = n, tier
			}
		}
	}
	sw.errMu.Lock()
	r.ErrorSamples = append([]string(nil), sw.errSamples...)
	sw.errMu.Unlock()
	return r
}

func (sw *Swarm) worker() {
	for {
		select {
		case s := <-sw.runq:
			sw.step(s)
		case <-sw.quit:
			return
		}
	}
}

func (sw *Swarm) enqueue(s *minerSession) {
	select {
	case sw.runq <- s:
	case <-sw.quit:
	}
}

// later re-enqueues s after d — the timer stands in for the session's
// goroutine while it thinks.
func (sw *Swarm) later(s *minerSession, d time.Duration) {
	if d <= 0 {
		sw.enqueue(s)
		return
	}
	time.AfterFunc(d, func() { sw.enqueue(s) })
}

// protoError counts an unexpected protocol event and keeps the first few
// descriptions for diagnosis.
func (sw *Swarm) protoError(s *minerSession, context string, err error) error {
	sw.protoErrs.Inc()
	sw.errMu.Lock()
	if len(sw.errSamples) < 8 {
		sw.errSamples = append(sw.errSamples, fmt.Sprintf("session %d: %s: %v", s.idx, context, err))
	}
	sw.errMu.Unlock()
	if err == nil {
		return fmt.Errorf("%s", context)
	}
	return err
}

// step runs one session action on a worker: connect, one turn, or park.
func (sw *Swarm) step(s *minerSession) {
	if s.dead {
		return
	}
	if s.attack == AttackHammer {
		// The hammer never keeps a connection; it has its own cycle.
		sw.hammerStep(s)
		return
	}
	if s.sess == nil {
		if err := sw.connect(s); err != nil {
			if errors.Is(err, session.ErrBanned) {
				// The pool refused the login by name: the identity is
				// banned. For an attacker this is the expected terminal
				// state, not a connectivity failure.
				sw.contain(s)
				return
			}
			s.dialAttempts++
			if s.dialAttempts >= 3 {
				_ = sw.protoError(s, "connect failed permanently", err)
				s.dead = true
				sw.gate.finish()
				return
			}
			sw.later(s, 50*time.Millisecond)
			return
		}
		s.dialAttempts = 0
	}
	if s.turnsLeft <= 0 {
		sw.parkKeepalive(s)
		sw.gate.finish() // parked: holds its socket, no goroutine
		return
	}

	var err error
	switch s.attack {
	case AttackDup:
		err = sw.dupTurn(s)
	case AttackStale:
		err = sw.staleTurn(s)
	case AttackDiff:
		err = sw.diffTurn(s)
	default:
		err = sw.validTurn(s)
	}
	if err == errContained {
		sw.contain(s)
		return
	}
	if err != nil {
		// The turn already counted a protocol error — except stale
		// thrash, which is load (tips moving faster than the session's
		// turn cycle), not a dialect violation. Either way: recycle the
		// transport and retry the remaining turns on a fresh session.
		sw.dropConn(s)
		sw.later(s, 50*time.Millisecond)
		return
	}
	s.turnsLeft--
	if s.turnsLeft <= 0 {
		sw.parkKeepalive(s)
		sw.gate.finish()
		return
	}
	sw.later(s, sw.thinkFor(s))
}

// parkKeepalive keeps a parked server-clocked session alive through a
// phase that outlasts the server's silence window: the dialect requires
// clients to ping every session.KeepaliveInterval, and a parked swarm
// session has no goroutine to do it — a timer chain stands in, writing
// only (the replies accumulate in the socket buffer, like any push to a
// parked session). The chain captures the session object and this
// phase's gate; once the phase completes, ownership of the miner state
// returns to Run (the drain closes it) and the chain stops on
// its next tick — at worst one ping races the teardown, which the
// net.Conn tolerates.
func (sw *Swarm) parkKeepalive(s *minerSession) {
	if !s.tcp || s.sess == nil {
		return
	}
	sess, g := s.sess, sw.gate
	var ping func()
	ping = func() {
		select {
		case <-g.done:
			return
		case <-sw.quit:
			return
		default:
		}
		if sess.Keepalive() != nil {
			return // transport gone; the phase owner handles the rest
		}
		time.AfterFunc(session.KeepaliveInterval, ping)
	}
	time.AfterFunc(session.KeepaliveInterval, ping)
}

// connect dials, authenticates and receives the first job. A Mem
// scenario's TCP sessions go through Config.DialTCP (the fd-less
// in-memory transport of the scale tiers); everything else dials by URL
// over real sockets.
func (sw *Swarm) connect(s *minerSession) error {
	t0 := time.Now()
	auth := stratum.Auth{SiteKey: s.siteKey, Type: "anonymous"}
	var (
		sess *session.Session
		err  error
	)
	if s.tcp && sw.cfg.Scenario.Mem {
		var nc net.Conn
		if nc, err = sw.cfg.DialTCP(); err == nil {
			sess, err = session.DialConn(nc, auth)
		}
	} else {
		sess, err = session.Dial(s.url, auth)
	}
	if err != nil {
		return err
	}
	sess.Timeout = readTimeout
	_, job, err := sess.Login()
	if err != nil {
		_ = sess.Close()
		return err
	}
	sw.connectNs.Observe(time.Since(t0))
	s.sess, s.job = sess, job
	sw.active.Inc()
	if s.connectedOnce {
		sw.reconnects.Inc()
	} else {
		sw.connects.Inc()
		s.connectedOnce = true
	}
	return nil
}

// closeConn performs the proper closing handshake (the drain).
func (sw *Swarm) closeConn(s *minerSession) {
	if s.sess == nil {
		return
	}
	_ = s.sess.Close()
	s.sess = nil
	sw.active.Dec()
}

// dropConn tears the transport down abruptly (after an error; the
// session no longer trusts the stream state).
func (sw *Swarm) dropConn(s *minerSession) {
	if s.sess == nil {
		return
	}
	_ = s.sess.Abort()
	s.sess = nil
	sw.active.Dec()
}

// validTurn submits one oracle share. Over ws it expects hash_accepted
// followed by the next job; a job push without an accept means the
// submitted job went stale (chain tip moved) and the turn retries on the
// fresh work. Over TCP stratum the accept ends the turn (the dialect is
// server-clocked — fresh work arrives by push, drained here whenever it
// interleaves), and a stale submit is a named "stale job" error followed
// by a replacement job notification.
func (sw *Swarm) validTurn(s *minerSession) error {
	for attempt := 0; attempt < 3; attempt++ {
		// Solutions are sequence-indexed per PoW input: every credited
		// share advances the session's cursor, so honest replays never
		// collide with the pool's per-account duplicate memo. Nonces the
		// session was already credited for on this blob — at any tier —
		// are skipped: the memo is tier-independent, the oracle is not.
		inputKey := s.job.WireBlob + "|" + s.job.WireTarget
		blob := s.job.WireBlob
		var nonce uint32
		var sum [32]byte
		for {
			var err error
			nonce, sum, err = sw.oracle.SolveSeq(s.job, s.seqByJob[inputKey])
			if err != nil {
				return sw.protoError(s, "oracle", err)
			}
			if _, paid := s.credNonces[blob][nonce]; !paid {
				break
			}
			s.seqByJob[inputKey]++
		}
		submittedID, submittedDiff := s.job.ID, jobDiff(s.job)
		t0 := time.Now()
		if err := s.sess.Submit(submittedID, nonce, sum); err != nil {
			return sw.protoError(s, "submit write", err)
		}
		accepted := false
		stale := false
	read:
		for {
			env, err := s.sess.ReadEnvelope()
			if err != nil {
				return sw.protoError(s, "read after submit", err)
			}
			switch env.Type {
			case stratum.TypeHashAccepted:
				sw.acceptNs.Observe(time.Since(t0))
				sw.sharesOK.Inc()
				s.seqByJob[inputKey]++
				if s.credNonces == nil {
					s.credNonces = map[string]map[uint32]struct{}{}
				}
				if s.credNonces[blob] == nil {
					s.credNonces[blob] = map[uint32]struct{}{}
				}
				s.credNonces[blob][nonce] = struct{}{}
				s.lastOKJob, s.lastOKNonce, s.lastOKSum = submittedID, nonce, sum
				sw.noteAccept(s, submittedDiff)
				accepted = true
				if s.tcp {
					return nil // server-clocked: no trailing job
				}
			case stratum.TypeJob:
				if err := sw.adoptJob(s, env); err != nil {
					return err
				}
				if accepted {
					return nil
				}
				if !s.tcp || stale {
					break read // stale re-issue: retry against the fresh job
				}
				// TCP push that overtook the response: adopt, keep reading.
			case stratum.TypeError:
				var e stratum.Error
				_ = env.Decode(&e)
				if s.tcp && e.Error == stratum.StaleJobMessage {
					stale = true // the replacement job notification follows
					continue
				}
				return sw.protoError(s, "valid share rejected", fmt.Errorf("%s", e.Error))
			case stratum.TypeBanned:
				return errContained
			case stratum.MethodKeepalive:
				// Ack for a parked-phase keepalive, drained on this turn.
			default:
				return sw.protoError(s, "unexpected reply to valid share", fmt.Errorf("type %q", env.Type))
			}
		}
	}
	// Every attempt went stale: the tip is moving faster than this
	// session's turn cycle. That is backlog, not a protocol error — the
	// caller reconnects and retries the turn.
	return errStaleThrash
}

// errStaleThrash marks a turn starved by tip churn; it is retried, not
// counted against the dialect.
var errStaleThrash = errors.New("loadgen: job stayed stale across retries")

// adoptJob decodes a job envelope into the session.
func (sw *Swarm) adoptJob(s *minerSession, env stratum.Envelope) error {
	var j stratum.Job
	if err := env.Decode(&j); err != nil {
		return sw.protoError(s, "job decode", err)
	}
	job, err := session.DecodeJob(j)
	if err != nil {
		return sw.protoError(s, "job decode", err)
	}
	s.job = job
	return nil
}

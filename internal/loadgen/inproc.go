package loadgen

import (
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/coinhive"
	"repro/internal/memconn"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/statsapi"
)

// InprocTarget is a full coinhive service on ephemeral loopback ports —
// the self-contained target for `loadd -inproc` and the load-smoke CI
// gate. The swarm still crosses real TCP sockets and the real protocol
// stacks; "in-process" only means nobody has to start a daemon first.
// Both fronts — the ws endpoints and the raw-TCP stratum listener —
// drive one session engine, so accounting spans the dialects.
type InprocTarget struct {
	URL     string // ws://127.0.0.1:port
	TCPAddr string // host:port of the raw-TCP stratum listener
	Pool    *coinhive.Pool
	Handler *coinhive.Server
	Stratum *coinhive.StratumServer
	Fed     *coinhive.Federation // non-nil for federated targets
	srv     *http.Server
	sln     net.Listener
	mem     *memconn.Listener
	rec     *archive.Recorder
	tipSeq  uint32
}

// DialMem connects a stratum session over an in-memory conn — the same
// engine and codec stack as TCPAddr, zero file descriptors. It is the
// Config.DialTCP hook the Mem scenarios (the 10k/25k/50k scale tiers on
// a 20k-fd box) require.
func (t *InprocTarget) DialMem() (net.Conn, error) { return t.mem.Dial() }

// InprocOptions extends StartInproc for targets that need the vardiff /
// banscore defense layer (the hostile scenarios run against one).
type InprocOptions struct {
	ShareDifficulty uint64
	Registry        *metrics.Registry
	Vardiff         coinhive.VardiffConfig
	Ban             coinhive.BanConfig
	// Archive, when set, hangs an event recorder off the pool and mounts
	// the stats API on /api/v1 over the same store — the target the
	// Archived scenarios (and the loadd API gate) run against. Close
	// drains the recorder and closes the store.
	Archive archive.Store
	// Federation, when set, makes this target one node of a federated
	// cluster: accepted shares feed its share-chain and gossip to the
	// peers the caller links with Fed.AddPeer. Close tears the peer
	// layer down gracefully after the miner fronts drain.
	Federation *coinhive.Federation
}

// DefendedInprocOptions is the canonical defended-target tuning the
// hostile scenarios (and the loadd hostile gate) run against:
//
//   - vardiff steers every ordinary session toward 12 accepted shares
//     per minute inside [1, 4096]. The tuning is capacity-driven: the
//     swarm's grind demand is honest sessions × SimHashrate hash
//     attempts per second regardless of difficulty (shares/s × diff is
//     invariant), each attempt costs ~100µs, and a 1-CPU CI box runs
//     the clients AND the service — at the catalogue's 1,000-session
//     scale only a couple of H/s per session fits, or the retargeter
//     measures scheduling backlog instead of miner cadence and hunts.
//     The starting difficulty is raised to at least 5 so an honest
//     session (SimHashrate 2) opens at 24/min — exactly 2× the goal,
//     outside the ±30% hysteresis band — and converges to the
//     equilibrium difficulty of 10 in one full-window retarget;
//   - one offense class scores 25 against a ban threshold of 100, so
//     four rejected abuses ban the identity (malformed frames score the
//     default 5);
//   - the stale retry loop is cut after 4 consecutive stales;
//   - logins refill at 2/s (burst 6) so a reconnect hammer on one shared
//     key converts its own rejections into a ban within seconds, while
//     honest churn (a handful of logins per session) never trips it.
func DefendedInprocOptions(shareDiff uint64, reg *metrics.Registry) InprocOptions {
	if shareDiff < 5 {
		// Below 5 the pre-retarget burst (SimHashrate/diff shares per
		// second per session) outruns the box at catalogue scale before
		// the first window closes, so the retargeter measures scheduling
		// delay instead of miner cadence.
		shareDiff = 5
	}
	return InprocOptions{
		ShareDifficulty: shareDiff,
		Registry:        reg,
		Vardiff: coinhive.VardiffConfig{
			TargetSharesPerMin: 12,
			MinDifficulty:      1,
			MaxDifficulty:      4096,
		},
		Ban: coinhive.BanConfig{
			BanThreshold:    100,
			BanDuration:     time.Minute,
			DuplicateScore:  25,
			StaleFloodScore: 25,
			ForgedDiffScore: 25,
			RateLimitScore:  25,
			StaleFloodAfter: 4,
			LoginRatePerSec: 2,
			LoginBurst:      6,
		},
	}
}

// StartInproc boots a service whose share difficulty is tuned for load
// generation (a low difficulty keeps the oracle's one-time pre-grind to
// a handful of hashes per PoW input) and whose network difficulty floor
// is high enough that no replayed share ever wins a block mid-run.
func StartInproc(shareDiff uint64, reg *metrics.Registry) (*InprocTarget, error) {
	return StartInprocOpts(InprocOptions{ShareDifficulty: shareDiff, Registry: reg})
}

// StartInprocOpts is StartInproc with the defense layer configurable.
func StartInprocOpts(opts InprocOptions) (*InprocTarget, error) {
	params := blockchain.SimParams()
	params.MinDifficulty = 1 << 40
	chain, err := blockchain.NewChain(params, uint64(time.Now().Unix()),
		blockchain.AddressFromString("loadgen-genesis"))
	if err != nil {
		return nil, err
	}
	var rec *archive.Recorder
	if opts.Archive != nil {
		rec = archive.NewRecorder(opts.Archive, opts.Registry, 0)
	}
	pool, err := coinhive.NewPool(coinhive.PoolConfig{
		Chain:           chain,
		Wallet:          blockchain.AddressFromString("loadgen-wallet"),
		Clock:           simclock.Real(),
		ShareDifficulty: opts.ShareDifficulty,
		Metrics:         opts.Registry,
		Archive:         rec,
		Federation:      opts.Federation,
		Vardiff:         opts.Vardiff,
		Ban:             opts.Ban,
	})
	if err != nil {
		if rec != nil {
			rec.Close()
		}
		return nil, err
	}
	handler := coinhive.NewServer(pool)
	if opts.Archive != nil {
		handler.AttachAPI(statsapi.New(opts.Archive, opts.Registry, statsapi.Options{}))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if rec != nil {
			rec.Close()
		}
		return nil, err
	}
	// Both listeners are claimed before the stratum server exists: its
	// constructor spawns the push loop and subscribes to chain tip
	// events, so a listen failure after it would leak both.
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		if rec != nil {
			rec.Close()
		}
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	stratumSrv := coinhive.NewStratumServer(handler.Engine())
	go stratumSrv.Serve(sln)
	// The same stratum front also accepts fd-less in-memory sessions
	// (DialMem) — one engine, one accounting plane, two transports.
	mem := memconn.Listen()
	go stratumSrv.Serve(mem)

	return &InprocTarget{
		URL:     "ws://" + ln.Addr().String(),
		TCPAddr: sln.Addr().String(),
		Pool:    pool,
		Handler: handler,
		Stratum: stratumSrv,
		Fed:     opts.Federation,
		srv:     srv,
		sln:     sln,
		mem:     mem,
		rec:     rec,
	}, nil
}

// HTTPURL returns the plain-HTTP base (for /metrics, /api/stats).
func (t *InprocTarget) HTTPURL() string {
	return "http" + strings.TrimPrefix(t.URL, "ws")
}

// AdvanceTip lands one block, moving the chain tip: in-flight jobs go
// stale and the stratum front pushes fresh work to every TCP session.
// This is what a Config.Refresh hook should call for an in-process run.
func (t *InprocTarget) AdvanceTip() {
	n := atomic.AddUint32(&t.tipSeq, 1)
	_, _ = t.Pool.ProduceWinningBlock(uint64(time.Now().Unix()), int(n), n)
}

// Config returns a swarm config pre-wired to this target: both dialect
// addresses, the in-memory dial hook and the tip-refresh hook.
func (t *InprocTarget) Config() Config {
	return Config{
		URL:     t.URL,
		TCPAddr: t.TCPAddr,
		HTTPURL: t.HTTPURL(),
		DialTCP: t.DialMem,
		Refresh: t.AdvanceTip,
	}
}

// Close drains both fronts and stops the listeners. Stratum.Shutdown
// only closes the listener its last Serve registered, so the other two
// accept loops are released explicitly.
func (t *InprocTarget) Close() {
	t.Handler.Shutdown()
	t.Stratum.Shutdown()
	_ = t.sln.Close()
	_ = t.mem.Close()
	t.srv.Close()
	if t.Fed != nil {
		// After the miner fronts stop, no new shares can arrive; Close
		// drains the emit queue and flushes every peer's send queue before
		// dropping the links — gossip already accepted must still go out.
		_ = t.Fed.Close()
	}
	if t.rec != nil {
		// After the fronts are down no new events arrive; Close drains
		// the recorder queue and closes the archive store.
		t.rec.Close()
	}
}

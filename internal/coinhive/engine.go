package coinhive

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/cryptonight"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/stratum"
)

// This file is the miner-session engine: every dialect-independent rule of
// the pool's session protocol — auth, link/captcha attachment, share
// scoring, stale-tip re-jobs, session metrics — lives here exactly once,
// as a state machine of decoded Commands in and Events out. Transports
// (the ws+coinhive dialect in server.go, the raw-TCP JSON-RPC dialect in
// stratumtcp.go) are thin codecs: they parse wire frames into Commands,
// render Events back into their dialect, and never touch the Pool.

// CmdKind classifies a decoded client message.
type CmdKind uint8

const (
	// CmdOpen is the authentication request (ws auth / rpc login).
	CmdOpen CmdKind = iota
	// CmdSubmit is a fully decoded share submission.
	CmdSubmit
	// cmdKeepalive is a liveness ping (TCP dialect only).
	cmdKeepalive
	// cmdGarbage is a frame the codec could not parse at all.
	cmdGarbage
	// cmdBadParams is a recognised message with undecodable or malformed
	// parameters; reply carries the dialect error text.
	cmdBadParams
	// cmdUnknown is a well-formed message of a type/method the dialect
	// does not define; name carries it.
	cmdUnknown
)

// Command is one decoded client message handed to the engine.
type Command struct {
	Kind   CmdKind
	Auth   stratum.Auth // CmdOpen
	JobID  string       // CmdSubmit
	Nonce  uint32       // CmdSubmit
	Result [32]byte     // CmdSubmit
	reply  string       // cmdBadParams: dialect error text
	name   string       // cmdUnknown: offending type/method

	// tag is transport correlation state (the JSON-RPC id) threaded
	// through to deliver untouched; the ws dialect leaves it nil.
	tag interface{}
}

// EventKind classifies an engine reply.
type EventKind uint8

const (
	// evAuthed acknowledges authentication.
	evAuthed EventKind = iota
	// EvJob hands out a PoW input.
	EvJob
	// EvAccepted credits an accepted share.
	EvAccepted
	// evLinkResolved reveals a short link's destination.
	evLinkResolved
	// evCaptchaVerified hands a solved captcha its one-time token.
	evCaptchaVerified
	// evKeepalive acknowledges a cmdKeepalive.
	evKeepalive
	// evError reports a protocol error; fatal means the session must end
	// after the event is delivered.
	evError
)

// Event is one engine-produced reply the transport must deliver, in order.
type Event struct {
	Kind     EventKind
	authed   stratum.Authed          // evAuthed
	Job      stratum.Job             // EvJob
	wire     *jobWire                // EvJob: pre-encoded wire forms of Job (never nil for EvJob)
	stale    bool                    // EvJob: re-issued because the submitted job went stale
	retarget bool                    // EvJob: difficulty retarget — server-clocked dialects must push it
	accepted stratum.HashAccepted    // EvAccepted
	link     stratum.LinkResolved    // evLinkResolved
	captcha  stratum.CaptchaVerified // evCaptchaVerified
	err      string                  // evError
	fatal    bool                    // evError: drop the session after delivering
	// code is the dialect-independent rejection code (a stratum.RPC*
	// constant) for evError; 0 means the transport derives one from the
	// command kind as before.
	code int
	// banned marks an evError caused by the peer's identity being banned;
	// the ws dialect renders it as its own "banned" message type.
	banned bool
}

// sessionTransport is the server side of one dialect connection: a codec
// that parses the peer's frames into Commands and renders Events back.
// readCommand returns an error only for transport-level death (EOF, close
// handshake, read timeout); parse failures are themselves Commands so the
// engine applies one set of rules to them. deliver receives the session
// (for dialect state such as push registration) and the command the
// events answer (for correlation). serverClocked reports whether the
// dialect delivers fresh work by unsolicited push — for such dialects
// the engine omits the routine job that follows every submit in the
// client-clocked protocol (a stale re-job is still emitted: the client's
// current job just died).
type sessionTransport interface {
	readCommand() (Command, error)
	deliver(ms *MinerSession, cmd Command, evs []Event) error
	serverClocked() bool
}

// Engine owns the dialect-independent half of the session protocol and
// its instruments. Both network fronts (ws Server, TCP StratumServer)
// drive one engine, so session metrics and share accounting aggregate
// across transports.
type Engine struct {
	pool    *Pool
	connSeq uint64

	// clock drives vardiff and banscore timestamps; it is the pool's
	// clock, so simulated services stay deterministic.
	clock   simclock.Clock
	vardiff VardiffConfig
	ban     BanConfig
	// abuse is the striped per-identity banscore/rate-limit table; nil
	// when the defense layer is disabled.
	abuse *abuseTable

	sessions      *metrics.Gauge   // live miner sessions across all transports
	sessionsTotal *metrics.Counter // sessions ever accepted
	authReject    *metrics.Counter // sessions dropped during auth
	jobsSent      *metrics.Counter // job messages handed out (replies + pushes)
	submitNs      *metrics.Histogram

	retargets    *metrics.Counter // vardiff retargets applied
	bans         *metrics.Counter // bans issued
	loginsBanned *metrics.Counter // logins rejected because the identity is banned
	rateLimited  *metrics.Counter // logins/submits rejected by the rate limiter
	staleFloods  *metrics.Counter // too-many-stale errors issued
	forgedDiffs  *metrics.Counter // submits at a difficulty tier never served
}

// NewEngine wires an engine over a pool, registering the server.*
// instruments in the pool's metrics registry. Instruments are registered
// by name, so engines sharing a registry share instruments.
func NewEngine(p *Pool) *Engine {
	reg := p.Metrics()
	e := &Engine{
		pool:          p,
		clock:         p.clock(),
		vardiff:       p.vardiff(),
		ban:           p.ban(),
		sessions:      reg.Gauge("server.sessions"),
		sessionsTotal: reg.Counter("server.sessions_total"),
		authReject:    reg.Counter("server.auth_reject"),
		jobsSent:      reg.Counter("server.jobs_sent"),
		submitNs:      reg.Histogram("server.submit_ns"),
		retargets:     reg.Counter("server.retargets"),
		bans:          reg.Counter("server.bans"),
		loginsBanned:  reg.Counter("server.logins_banned"),
		rateLimited:   reg.Counter("server.rate_limited"),
		staleFloods:   reg.Counter("server.stale_flood"),
		forgedDiffs:   reg.Counter("server.shares_forged"),
	}
	if e.ban.enabled() {
		e.abuse = newAbuseTable(e.ban)
	}
	return e
}

// NewSession opens one miner session on the given endpoint. The rotation
// slot comes from a cross-transport sequence, so TCP and ws sessions
// interleave over a backend's templates exactly as two ws endpoints do.
func (e *Engine) NewSession(endpoint int) *MinerSession {
	e.sessionsTotal.Inc()
	e.sessions.Inc()
	return &MinerSession{
		eng:      e,
		endpoint: endpoint,
		slot:     int(atomic.AddUint64(&e.connSeq, 1)),
	}
}

// bindSession opens a session bound to a transport: NewSession plus the
// transport-derived state (clocking, peer host). Transports that park
// connections between commands use it with stepDeliver to run the same
// protocol without a dedicated loop goroutine.
func (e *Engine) bindSession(endpoint int, t sessionTransport) *MinerSession {
	ms := e.NewSession(endpoint)
	ms.serverClocked = t.serverClocked()
	// Transports that know their peer's address expose it for per-host
	// banning; the interface is optional so codec fakes stay three methods.
	if rh, ok := t.(interface{ RemoteHost() string }); ok {
		ms.remote = rh.RemoteHost()
	}
	return ms
}

// stepDeliver advances a session by one decoded command and delivers the
// replies; pre holds the sums hashed ahead for the command's run (nil for
// none). It reports whether the session is over (delivery failed, or a
// fatal error event was produced); the caller then owns closing ms.
func (e *Engine) stepDeliver(ms *MinerSession, t sessionTransport, cmd Command, pre *prehashed) (done bool) {
	evs := ms.step(cmd, pre)
	if t.deliver(ms, cmd, evs) != nil {
		return true
	}
	for i := range evs {
		if evs[i].Kind == evError && evs[i].fatal {
			return true
		}
	}
	return false
}

// serveSession runs one session to completion: decode, step, deliver,
// until the transport dies or the engine declares the session over. This
// loop is the whole serve path of every goroutine-per-conn dialect.
func (e *Engine) serveSession(endpoint int, t sessionTransport) {
	ms := e.bindSession(endpoint, t)
	defer ms.Close()
	for {
		cmd, err := t.readCommand()
		if err != nil {
			return
		}
		if e.stepDeliver(ms, t, cmd, nil) {
			return
		}
	}
}

// MinerSession is one miner's protocol state, independent of transport.
// Step is called from a single goroutine (the transport's reader);
// authed/mintWire may be called concurrently (the TCP push fan-out).
type MinerSession struct {
	eng      *Engine
	endpoint int
	slot     int
	// serverClocked mirrors the transport: such sessions get fresh work
	// by push, so no routine job rides behind an accepted submit.
	serverClocked bool

	authed    atomic.Bool
	siteKey   string
	linkID    string
	captchaID string
	closed    bool

	// remote is the transport's peer host (empty when unknown); used only
	// for optional per-host banning.
	remote string

	// curDiff is the difficulty the session is served — static, link or
	// vardiff, set at open — and so the tier its submits may claim
	// (servedTier, with prevDiff's grace). Atomic because mintWire reads
	// it from the TCP push fan-out goroutine; the rest is Step-goroutine
	// only.
	curDiff atomic.Uint64
	// Vardiff state, used only when retargets is set (vardiff on, an
	// ordinary session).
	retargets    bool
	prevDiff     uint64 // one retarget of grace for in-flight shares
	vdWin        vardiffWindow
	lastAcceptNs int64

	// Defense state: consecutive stale submissions since the last accept.
	staleRun int

	evs []Event // reused reply buffer; valid until the next Step
}

// Close releases the session's slot in the live-session gauge. Idempotent.
func (ms *MinerSession) Close() {
	if ms.closed {
		return
	}
	ms.closed = true
	ms.eng.sessions.Dec()
}

// mintWire mints the session's current PoW input in its encode-once form
// — what a reply carries and what a server-clocked transport pushes when
// the chain tip moves, the same wire bytes going to every session on the
// same difficulty without re-marshaling. Safe for concurrent use with
// Step once the session is authed (curDiff is the one retarget-mutated
// field it reads, and it is atomic).
func (ms *MinerSession) mintWire() *jobWire {
	return ms.eng.pool.jobWire(ms.endpoint, ms.slot, ms.curDiff.Load())
}

func (ms *MinerSession) emit(ev Event) {
	ms.evs = append(ms.evs, ev)
}

func (ms *MinerSession) emitJob(stale bool) {
	ms.emitJobRetarget(stale, false)
}

func (ms *MinerSession) emitJobRetarget(stale, retarget bool) {
	ms.eng.jobsSent.Inc()
	w := ms.mintWire()
	ms.emit(Event{
		Kind:     EvJob,
		Job:      w.job,
		wire:     w,
		stale:    stale,
		retarget: retarget,
	})
}

func (ms *MinerSession) emitError(msg string, fatal bool) {
	ms.emit(Event{Kind: evError, err: msg, fatal: fatal})
}

// offend scores one abuse point total against the session's identity (and,
// when configured, its remote host). It returns true when the offense
// crossed the ban threshold — a fatal banned event has then been emitted
// and the caller must stop producing replies for this command.
func (ms *MinerSession) offend(pts float64, nowNs int64) bool {
	e := ms.eng
	if e.abuse == nil || pts <= 0 {
		return false
	}
	banned, newly := e.abuse.bump(ms.siteKey, pts, nowNs)
	if e.ban.BanByRemoteHost && ms.remote != "" {
		b2, n2 := e.abuse.bump("ip:"+ms.remote, pts, nowNs)
		banned = banned || b2
		newly = newly || n2
	}
	if !banned {
		return false
	}
	if newly {
		e.bans.Inc()
		e.pool.archiveEvent(archive.Event{
			TimeNs: nowNs,
			Kind:   archive.KindBan,
			Actor:  ms.siteKey,
		})
	}
	ms.emit(Event{
		Kind: evError, err: stratum.BannedMessage,
		fatal: true, banned: true, code: stratum.RPCBanned,
	})
	return true
}

// Step advances the state machine by one client message and returns the
// replies to deliver, in order. The returned slice is reused by the next
// Step.
func (ms *MinerSession) Step(cmd Command) []Event { return ms.step(cmd, nil) }

// step is Step with the sums hashed ahead for cmd's run, if any.
func (ms *MinerSession) step(cmd Command, pre *prehashed) []Event {
	ms.evs = ms.evs[:0]
	if !ms.authed.Load() {
		// The one legal first message is authentication; anything else —
		// including frames the codec could not parse — is turned away
		// exactly as the original dialect did.
		if cmd.Kind != CmdOpen {
			ms.eng.authReject.Inc()
			ms.emitError("expected auth", true)
			return ms.evs
		}
		return ms.open(cmd.Auth)
	}
	switch cmd.Kind {
	case CmdOpen:
		ms.emitError("unexpected "+stratum.TypeAuth, false)
	case CmdSubmit:
		ms.submit(cmd, pre)
	case cmdKeepalive:
		ms.emit(Event{Kind: evKeepalive})
		// The keepalive is the one clock a server-clocked dialect gives a
		// silent session: evaluate the idle downstep on it, so a session
		// whose difficulty outgrew its hashrate (or a sandbagger gone
		// quiet) descends back toward the goal cadence.
		if ms.retargets {
			if _, ok := ms.vardiffIdle(ms.eng.clock.Now().UnixNano()); ok {
				ms.emitJobRetarget(false, true)
			}
		}
	case cmdGarbage:
		// fatal either way; scoring it means a reconnect-and-garbage loop
		// still accumulates toward a ban.
		if ms.offend(banMalformedScore, ms.abuseNowNs()) {
			return ms.evs
		}
		ms.emitError("bad message", true)
	case cmdBadParams:
		if ms.offend(banMalformedScore, ms.abuseNowNs()) {
			return ms.evs
		}
		ms.emitError(cmd.reply, false)
	case cmdUnknown:
		if ms.offend(banMalformedScore, ms.abuseNowNs()) {
			return ms.evs
		}
		ms.emitError("unexpected "+cmd.name, false)
	}
	return ms.evs
}

// abuseNowNs reads the clock only when the defense layer will use it.
func (ms *MinerSession) abuseNowNs() int64 {
	if ms.eng.abuse == nil {
		return 0
	}
	return ms.eng.clock.Now().UnixNano()
}

// open authenticates the session: validate the site key, resolve link or
// captcha attachment, and hand out the account ack plus the first job.
func (ms *MinerSession) open(auth stratum.Auth) []Event {
	p := ms.eng.pool
	e := ms.eng
	if auth.SiteKey == "" {
		e.authReject.Inc()
		ms.emitError("invalid site key", true)
		return ms.evs
	}
	ms.siteKey = auth.SiteKey
	if e.abuse != nil {
		nowNs := e.clock.Now().UnixNano()
		// Ban check before anything else: a banned identity gets the named
		// rejection, cheaply, whatever else it sends.
		if e.abuse.isBanned(auth.SiteKey, nowNs) ||
			(e.ban.BanByRemoteHost && ms.remote != "" && e.abuse.isBanned("ip:"+ms.remote, nowNs)) {
			e.authReject.Inc()
			e.loginsBanned.Inc()
			ms.emit(Event{
				Kind: evError, err: stratum.BannedMessage,
				fatal: true, banned: true, code: stratum.RPCBanned,
			})
			return ms.evs
		}
		if !e.abuse.allowLogin(auth.SiteKey, nowNs) {
			e.authReject.Inc()
			e.rateLimited.Inc()
			// The trip itself is an offense: a reconnect hammer burning
			// login tokens converts its own rejections into a ban.
			if ms.offend(banOffenseScore, nowNs) {
				return ms.evs
			}
			ms.emit(Event{
				Kind: evError, err: stratum.RateLimitedMessage,
				fatal: true, code: stratum.RPCRateLimited,
			})
			return ms.evs
		}
	}
	switch {
	case strings.HasPrefix(auth.User, "link:"):
		ms.linkID = strings.TrimPrefix(auth.User, "link:")
		if _, err := p.Links().get(ms.linkID); err != nil {
			ms.eng.authReject.Inc()
			ms.emitError("unknown link", true)
			return ms.evs
		}
	case strings.HasPrefix(auth.User, "captcha:"):
		ms.captchaID = strings.TrimPrefix(auth.User, "captcha:")
		if _, err := p.Captchas().credit(ms.captchaID, 0); err != nil {
			ms.eng.authReject.Inc()
			ms.emitError("unknown captcha", true)
			return ms.evs
		}
	}
	lowDiff := ms.linkID != "" || ms.captchaID != ""
	ms.curDiff.Store(p.shareDifficulty(lowDiff))
	// Vardiff applies to ordinary sessions only: link/captcha sessions
	// mine toward fixed hash goals at the dedicated low tier, so
	// retargeting them would change goal semantics mid-visit.
	if e.vardiff.enabled() && !lowDiff {
		ms.retargets = true
		ms.curDiff.Store(e.vardiff.clampDiff(p.shareDifficulty(false)))
		ms.vdWin.init(vardiffWindowShares)
		ms.lastAcceptNs = e.clock.Now().UnixNano()
	}
	acct := p.authorize(auth.SiteKey)
	ms.emit(Event{Kind: evAuthed, authed: stratum.Authed{
		Token: acct.token, Hashes: int64(acct.TotalHashes),
	}})
	ms.emitJob(false)
	ms.authed.Store(true)
	return ms.evs
}

// submit scores one decoded share and emits the dialect-independent
// outcome: credit (plus link/captcha progress), a named rejection, or a
// silent stale re-job. The defense screens — rate limit, served-tier
// check, and the pool's duplicate memo — all come before the CryptoNight
// verify, which is what every abusive shape is trying to make us burn.
func (ms *MinerSession) submit(cmd Command, pre *prehashed) {
	p := ms.eng.pool
	e := ms.eng
	// Parsed once, here: the served-tier check needs the difficulty the ID
	// claims, and the pool takes the rest.
	ref, refOK := parseJobID(cmd.JobID)
	if e.abuse != nil {
		nowNs := e.clock.Now().UnixNano()
		if !e.abuse.allowSubmit(ms.siteKey, nowNs) {
			e.rateLimited.Inc()
			if ms.offend(banOffenseScore, nowNs) {
				return
			}
			ms.emit(Event{
				Kind: evError, err: stratum.RateLimitedMessage,
				code: stratum.RPCRateLimited,
			})
			return
		}
	}
	// Served-tier check: a session may only submit the difficulty it is
	// being served — static, link or vardiff — or, after a retarget, the
	// one just before it (grace for in-flight shares). Anything else is a
	// tier gamer forging cheap targets; answer with the unknown-job re-job
	// shape, scored, without verifying.
	if !ms.servedTier(ref, refOK) {
		e.forgedDiffs.Inc()
		if ms.offend(banOffenseScore, ms.abuseNowNs()) {
			return
		}
		ms.emitJob(true)
		return
	}
	// A sum hashed ahead is charged to the submit that uses it, so
	// server.submit_ns still covers the hash.
	verifyStart := time.Now()
	out, err := p.submitShare(ms.siteKey, cmd.JobID, ref, refOK, cmd.Nonce, cmd.Result, ms.linkID, pre)
	ms.eng.submitNs.Observe(time.Since(verifyStart) + pre.takeSpent())
	stale := false
	retargeted := false
	switch err {
	case nil:
		ms.staleRun = 0
		ms.emit(Event{Kind: EvAccepted, accepted: stratum.HashAccepted{Hashes: int64(out.credited)}})
		if ms.linkID != "" {
			if url, derr := p.Links().destination(ms.linkID); derr == nil {
				ms.emit(Event{Kind: evLinkResolved, link: stratum.LinkResolved{ID: ms.linkID, URL: url}})
			}
		}
		if ms.captchaID != "" {
			cap, cerr := p.Captchas().credit(ms.captchaID, out.diff)
			if cerr == nil && cap.solved() {
				ms.emit(Event{Kind: evCaptchaVerified, captcha: stratum.CaptchaVerified{
					ID: ms.captchaID, Token: cap.token,
				}})
			}
		}
		if ms.retargets {
			// A share at the served tier proves the miner has moved on to
			// the new target, so the previous-tier grace is over: leaving
			// prevDiff open would keep the old, possibly cheaper tier
			// submittable for the rest of the retarget interval.
			if ref.diff == ms.curDiff.Load() {
				ms.prevDiff = 0
			}
			_, retargeted = ms.vardiffAccept(e.clock.Now().UnixNano())
		}
	case errStaleJob, errUnknownJob:
		// errStaleJob is honest work against a job the chain has outrun;
		// errUnknownJob a never-issued identifier. Both are answered with a
		// re-job (the transport decides whether its dialect names the
		// condition (TCP) or stays silent (ws)), but only genuine tip churn
		// counts toward pool.shares_stale. Both count toward the same
		// consecutive-run bound: a client that keeps submitting dead or
		// bogus identifiers stops earning re-jobs and gets the named flood
		// error instead — neither tip churn nor an ID-forging flood can be
		// ridden into unbounded free re-jobs.
		if err == errStaleJob {
			p.sharesStale.Inc()
		}
		ms.staleRun++
		if e.ban.enabled() && ms.staleRun > banStaleFloodAfter {
			e.staleFloods.Inc()
			if ms.offend(banOffenseScore, ms.abuseNowNs()) {
				return
			}
			ms.emit(Event{
				Kind: evError, err: stratum.TooManyStaleMessage,
				code: stratum.RPCTooManyStale,
			})
			return
		}
		stale = true
	case errDuplicateShare:
		// A replay of a share the account was already paid for — on this
		// session or, across a reconnect, an earlier one. Named and scored;
		// no fresh work for replays.
		if ms.offend(banOffenseScore, ms.abuseNowNs()) {
			return
		}
		ms.emitError(stratum.DuplicateShareMessage, false)
		return
	default:
		ms.emitError(err.Error(), false)
	}
	// The client-clocked dialect re-jobs after every submit; a
	// server-clocked one only when the submitted job died (its routine
	// fresh work arrives by push, so minting a job here would be wasted
	// shard work and an overcount of jobs actually handed out) — or when a
	// retarget must reach the miner mid-session.
	if stale || !ms.serverClocked {
		ms.emitJobRetarget(stale, retargeted)
	} else if retargeted {
		ms.emitJobRetarget(false, true)
	}
}

// servedTier is the one rule for which tier a session may submit: the
// job ID's difficulty must be the one the session is served, or the one
// before its last retarget (prevDiff, 0 until a retarget, matches no
// parsed ID). An unparsed ID passes; the pool refuses it as unknown.
func (ms *MinerSession) servedTier(ref jobRef, refOK bool) bool {
	return !refOK || ref.diff == ms.curDiff.Load() || ref.diff == ms.prevDiff
}

// prehash hashes, in one cryptonight.SumBatch, the blobs of a pipelined
// run's submits that pass the screens Step applies before a verify and
// that write nothing: the session is authed, the served-tier check
// passes, and the pool resolves the job (issued, current, inside the
// vardiff clamp, not in the account's duplicate memo). A blob repeated
// in the run is hashed once. Fewer than two blobs leave pre empty: one
// hash costs as much here as in verify.
//
// The screens are read before the run's first step, so a step can still
// turn a pre-hashed submit away (the rate limit, which spends a token
// and so is no screen here, a tip move, a retarget, a ban): that hash is
// spent like a bad-PoW submit's verify, at most runMax per run. A submit
// not pre-hashed is hashed in verify, which takes a sum from pre only
// for a byte-equal blob.
func (ms *MinerSession) prehash(run []Command, pre *prehashed) {
	pre.n = 0
	if len(run) < 2 || !ms.authed.Load() {
		return
	}
	p := ms.eng.pool
	for i := range run {
		cmd := &run[i]
		if cmd.Kind != CmdSubmit {
			continue
		}
		ref, refOK := parseJobID(cmd.JobID)
		if !ms.servedTier(ref, refOK) {
			continue
		}
		k := pre.n
		tmpl, blob, _, err := p.resolve(ms.siteKey, ref, refOK, cmd.Nonce, pre.blobs[k][:0])
		if err != nil || len(blob) > hashingBlobCap {
			continue
		}
		blockchain.SpliceNonce(blob, tmpl.NonceOffset(), cmd.Nonce)
		if pre.index(blob) < 0 {
			pre.lens[k] = uint8(len(blob))
			pre.n++
		}
	}
	if pre.n < 2 {
		pre.n = 0
		return
	}
	var blobs [runMax][]byte
	for i := 0; i < pre.n; i++ {
		blobs[i] = pre.blobs[i][:pre.lens[i]]
	}
	t0 := time.Now()
	cryptonight.SumBatch(p.variant, blobs[:pre.n], pre.sums[:pre.n])
	pre.perHashNs = int64(time.Since(t0)) / int64(pre.n)
	p.batchedVerifies.Add(uint64(pre.n))
}

// submitCommand decodes the wire-level share fields shared by every
// dialect's submit message into a Command, so the validation rules (and
// their reply texts) exist once regardless of codec.
func submitCommand(jobID, nonceHex, resultHex string) Command {
	nonce, err := stratum.DecodeNonce(nonceHex)
	if err != nil {
		return Command{Kind: cmdBadParams, reply: "bad nonce"}
	}
	resBytes, err := stratum.DecodeBlob(resultHex)
	if err != nil || len(resBytes) != 32 {
		return Command{Kind: cmdBadParams, reply: "bad result"}
	}
	cmd := Command{Kind: CmdSubmit, JobID: jobID, Nonce: nonce}
	copy(cmd.Result[:], resBytes)
	return cmd
}

// Package coinhive re-implements the observable behaviour of the Coinhive
// service the paper dissects in §4: a Monero mining pool fronted by 32
// WebSocket endpoints backed by 16 backend systems (each rotating 8 PoW
// inputs, hence the paper's "at most 128 different PoW inputs per block"),
// per-token share accounting with a 70/30 revenue split, the cnhv.co
// short-link forwarding service, and the script/Wasm assets embedded by
// customer websites.
//
// The pool core is sharded along the topology the paper observed: each of
// the 16 backend systems owns its template/job state behind its own lock,
// account credit is striped across independent locks, and CryptoNight
// share verification — by far the most expensive operation — runs outside
// every lock, so N concurrent submitters verify on N cores.
package coinhive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/archive"
	"repro/internal/blockchain"
	"repro/internal/cryptonight"
	"repro/internal/metrics"
	"repro/internal/sharechain"
	"repro/internal/simclock"
	"repro/internal/stratum"
)

// Topology constants observed by the paper.
const (
	DefaultNumBackends         = 16
	DefaultTemplatesPerBackend = 8
	DefaultEndpointsPerBackend = 2
)

// accountStripeCount is the number of independent account locks. Tokens are
// hashed onto stripes, so submitters for different site keys rarely contend.
const accountStripeCount = 64

// PoolConfig configures a Pool.
type PoolConfig struct {
	Chain               *blockchain.Chain
	Wallet              blockchain.Address
	Clock               simclock.Clock
	NumBackends         int
	TemplatesPerBackend int
	EndpointsPerBackend int
	// ShareDifficulty is the per-share difficulty for ordinary miners;
	// LinkShareDifficulty the (lower) one for short-link visitors.
	ShareDifficulty     uint64
	LinkShareDifficulty uint64
	// FeePercent is the pool's cut (Coinhive: 30).
	FeePercent int
	// Metrics receives the pool's instruments (pool.* names). Nil gets a
	// private registry, so instrumentation is always wired; the Server
	// shares this registry for its server.* instruments and /metrics.
	Metrics *metrics.Registry
	// Vardiff configures per-session difficulty retargeting (vardiff.go);
	// the zero value keeps the static ShareDifficulty for every session.
	// It lives in the pool config because the pool must honour the job
	// IDs the engine mints at retargeted tiers.
	Vardiff VardiffConfig
	// Ban configures the banscore/rate-limit defense layer (banscore.go);
	// the zero value disables it. Enforced by the engine, configured here
	// so one config describes the whole service.
	Ban BanConfig
	// ShareMemoSize is the per-account duplicate-share memo depth: the
	// last N accepted (job, nonce) pairs per account are remembered and
	// resubmissions rejected with ErrDuplicateShare. 0 means the default
	// (128); negative disables the memo (benchmarks and tests that replay
	// premined shares by design).
	ShareMemoSize int
	// Archive, when non-nil, receives an archive.Event for every
	// observable pool action: share outcomes, retargets, bans, chain
	// appends, found blocks and payouts. The hook is non-blocking by
	// construction (Recorder drops and counts when its queue is full),
	// so a slow archive can never stall the submit path.
	Archive *archive.Recorder
	// Federation, when non-nil, makes this pool one node of a federated
	// multi-node deployment: accepted shares are handed to the share-chain
	// and gossiped to peers through the same non-blocking pattern the
	// Archive hook uses, and found-block settlement switches from the
	// local round tallies to the share-chain's PPLNS window, so converged
	// nodes compute bit-identical payout vectors. Construct with
	// NewFederation and wire links before traffic arrives.
	Federation *Federation
}

func (c *PoolConfig) fillDefaults() {
	if c.NumBackends == 0 {
		c.NumBackends = DefaultNumBackends
	}
	if c.TemplatesPerBackend == 0 {
		c.TemplatesPerBackend = DefaultTemplatesPerBackend
	}
	if c.EndpointsPerBackend == 0 {
		c.EndpointsPerBackend = DefaultEndpointsPerBackend
	}
	if c.ShareDifficulty == 0 {
		c.ShareDifficulty = 256
	}
	if c.LinkShareDifficulty == 0 {
		c.LinkShareDifficulty = 16
	}
	if c.FeePercent == 0 {
		c.FeePercent = 30
	}
	if c.Clock == nil {
		c.Clock = simclock.Real()
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.ShareMemoSize == 0 {
		c.ShareMemoSize = 128
	}
	c.Vardiff.fillDefaults(c.ShareDifficulty)
	c.Ban.fillDefaults()
}

// Account tracks one site key (the paper treats tokens and users as
// synonymous).
type Account struct {
	Token         string
	TotalHashes   uint64 // credited hash count over all time
	BalanceAtomic uint64
	PaidAtomic    uint64
}

// FoundBlock records a block the pool mined.
type FoundBlock struct {
	Height    uint64
	Timestamp uint64
	Backend   int
	Reward    uint64
}

// Errors returned by SubmitShare. ErrStaleJob marks honest work the
// chain outran — a job this pool really minted, submitted after a tip
// move or template refresh; ErrUnknownJob marks identifiers the pool
// never issued (malformed, forged, or self-upgraded to the link tier).
// The session engine re-jobs both the same way, but only stale ones
// count toward pool.shares_stale.
var (
	ErrUnknownJob = errors.New("coinhive: unknown job")
	ErrStaleJob   = errors.New("coinhive: job from a previous chain tip")
	ErrBadShare   = errors.New("coinhive: share hash does not verify")
	ErrLowShare   = errors.New("coinhive: share above target")
	// ErrDuplicateShare rejects a (job, nonce) pair the account was
	// already credited for. The per-account memo is the pool's only
	// duplicate check, so sessions, transports and direct-API callers
	// all meet the same one.
	ErrDuplicateShare = errors.New("coinhive: duplicate share")
)

// backendShard is one backend system's template and job state. Each shard
// refreshes lazily on its next access after the chain tip moves, so a tip
// change never stalls the other 15 backends. All per-slot storage is
// allocated once and overwritten in place on refresh, so the steady-state
// refresh cost is the 8 coinbase hashes the topology demands — plus one
// wire-blob hex string per slot, the only thing handed out by reference.
type backendShard struct {
	mu         sync.RWMutex
	tip        [32]byte
	refreshSeq uint32
	templates  []*blockchain.Block // [slot]
	blobs      [][]byte            // cached hashing blobs per template
	jobBlobHex []string            // cached obfuscated wire blobs
	jobIDs     []string            // per-slot wire job IDs for this refresh
	linkJobIDs []string            // per-slot link-difficulty IDs, built on demand
	wire       []byte              // obfuscation scratch

	// Pre-encoded wire forms per slot (and per vardiff tier), minted
	// lazily on first handout after each refresh — the encode-once cache
	// behind the job-push fan-out (see jobwire.go). The slices are
	// replaced, not cleared, on refresh: in-flight events keep valid
	// pointers to the old generation's wires.
	wireStatic []*JobWire
	wireLink   []*JobWire
	wireDiff   map[uint64][]*JobWire
}

// accountStripe holds the accounts (and this round's hash credit) for the
// tokens hashing onto it.
type accountStripe struct {
	mu    sync.Mutex
	accts map[string]*Account
	round map[string]uint64 // hashes credited since the last found block
	memo  map[string]*shareMemo
}

// shareMemo remembers the last N accepted share keys for one account.
// Lookup is a linear scan of at most ShareMemoSize uint64s under a lock
// already held for the credit; no hashing happens inside it.
type shareMemo struct {
	keys []uint64 // ring storage; len(keys) is the capacity
	n    int      // live entries
	head int      // overwrite cursor once full
}

func (m *shareMemo) has(k uint64) bool {
	if m == nil { // account with no accepted shares yet
		return false
	}
	for i := 0; i < m.n; i++ {
		if m.keys[i] == k {
			return true
		}
	}
	return false
}

// insert records k, evicting the oldest entry when full. It returns false
// (and records nothing) when k is already present.
func (m *shareMemo) insert(k uint64) bool {
	if m.has(k) {
		return false
	}
	if m.n < len(m.keys) {
		m.keys[m.n] = k
		m.n++
		return true
	}
	m.keys[m.head] = k
	m.head = (m.head + 1) % len(m.keys)
	return true
}

// jobRef is a parsed job ID (see makeJobID). The engine parses a
// submission's ID once and hands the result down to the pool with it.
type jobRef struct {
	backend int
	seq     uint32 // the shard's refresh generation
	slot    int
	link    bool
	diff    uint64 // vardiff tier the ID carries; 0 on the two static tiers
}

// memoKey folds a submission's tier-independent identity — the
// backend/generation/slot triple that names one PoW blob, plus the nonce —
// to the memo's fixed-width key (FNV-1a). The job ID's difficulty and link
// suffixes are deliberately excluded: a retargeted (or link-tier) ID names
// the same blob as its siblings at other tiers, so one nonce must dedupe
// across all of them — keying on the full ID string would let a miner
// straddling a retarget resubmit the same hash under the old and new tier
// IDs for double credit. A 64-bit digest over ≤128 live entries makes an
// accidental collision — a rejected honest share — vanishingly unlikely,
// and a deliberate collision still earns the attacker nothing but their
// own rejection.
func (r jobRef) memoKey(nonce uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range [4]uint32{uint32(r.backend), r.seq, uint32(r.slot), nonce} {
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(w >> (8 * i)))
			h *= 1099511628211
		}
	}
	return h
}

// Pool is the in-process pool core. The network front (Server) and the
// simulation driver both operate through it.
type Pool struct {
	cfg PoolConfig

	// variant is the chain's PoW profile; share verification borrows
	// per-goroutine scratchpads from cryptonight's per-variant pool.
	variant cryptonight.Variant

	backends []*backendShard
	stripes  [accountStripeCount]accountStripe

	links    *LinkStore
	captchas *CaptchaService

	// targetHex and linkTargetHex are the wire encodings of the two share
	// targets; they depend only on the pool configuration, so encoding them
	// once keeps Job() off the hex/alloc path entirely.
	targetHex     string
	linkTargetHex string

	// Share accounting counters live in the metrics registry, so the
	// same atomics feed StatsSnapshot and /metrics exposition.
	sharesOK *metrics.Counter
	// sharesBad counts every rejected submission, including stale ones;
	// sharesStale separately counts the stale subset — honest work against
	// a job the chain tip outran, answered with a silent (ws) or named
	// (TCP) re-job rather than an error. The engine increments it, so the
	// split is visible per-service, not per-transport.
	sharesBad *metrics.Counter
	// sharesDup counts the subset of sharesBad rejected by the per-account
	// duplicate memo: a (job, nonce) pair the account was already paid for.
	sharesDup    *metrics.Counter
	sharesStale  *metrics.Counter
	blocksFound  *metrics.Counter
	shardRefresh *metrics.Counter
	// jobEncodes counts JobWire constructions — against server.jobs_sent
	// it is the bytes-marshaled-per-push telemetry: a healthy fan-out
	// encodes once per (backend, slot, tier) per refresh, not per session.
	jobEncodes *metrics.Counter
	kept       atomic.Uint64 // pool's 30% cut, cumulative
	paid       atomic.Uint64 // users' 70%, cumulative

	// settleMu serialises the rare won-a-block path: chain append, reward
	// settlement and the found-block record.
	settleMu sync.Mutex
	found    []FoundBlock
}

// NewPool builds a pool over an existing chain.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cfg.fillDefaults()
	if cfg.Chain == nil {
		return nil, errors.New("coinhive: PoolConfig.Chain is required")
	}
	variant := cfg.Chain.Params().PowVariant
	// Validate the variant and warm cryptonight's shared per-variant pool
	// with one scratchpad.
	h, err := cryptonight.GetHasher(variant)
	if err != nil {
		return nil, err
	}
	cryptonight.PutHasher(h)
	p := &Pool{
		cfg:          cfg,
		variant:      variant,
		links:        NewLinkStore(),
		captchas:     NewCaptchaService(cfg.Wallet[:16]),
		sharesOK:     cfg.Metrics.Counter("pool.shares_ok"),
		sharesBad:    cfg.Metrics.Counter("pool.shares_bad"),
		sharesDup:    cfg.Metrics.Counter("pool.shares_duplicate"),
		sharesStale:  cfg.Metrics.Counter("pool.shares_stale"),
		blocksFound:  cfg.Metrics.Counter("pool.blocks_found"),
		shardRefresh: cfg.Metrics.Counter("pool.shard_refresh"),
		jobEncodes:   cfg.Metrics.Counter("pool.job_encodes"),
	}
	for i := range p.stripes {
		p.stripes[i].accts = map[string]*Account{}
		p.stripes[i].round = map[string]uint64{}
		p.stripes[i].memo = map[string]*shareMemo{}
	}
	p.targetHex = stratum.EncodeTarget(cryptonight.DifficultyForTarget(cfg.ShareDifficulty))
	p.linkTargetHex = stratum.EncodeTarget(cryptonight.DifficultyForTarget(cfg.LinkShareDifficulty))
	tip := cfg.Chain.TipID()
	p.backends = make([]*backendShard, cfg.NumBackends)
	for b := range p.backends {
		sh := &backendShard{
			templates:  make([]*blockchain.Block, cfg.TemplatesPerBackend),
			blobs:      make([][]byte, cfg.TemplatesPerBackend),
			jobBlobHex: make([]string, cfg.TemplatesPerBackend),
			jobIDs:     make([]string, cfg.TemplatesPerBackend),
			linkJobIDs: make([]string, cfg.TemplatesPerBackend),
		}
		p.refreshShardLocked(sh, b, tip)
		p.backends[b] = sh
	}
	if fed, rec := cfg.Federation, cfg.Archive; fed != nil && rec != nil {
		// Gossiped-in shares and reorgs become archive events, so a
		// replayed archive reports how much of this node's share-chain
		// arrived over the wire rather than from local miners.
		clock := cfg.Clock
		fed.OnIngest(func(e *sharechain.Entry, reorged bool) {
			now := clock.Now().UnixNano()
			rec.Record(archive.Event{
				TimeNs: now,
				Kind:   archive.KindShareGossipIn,
				Height: e.Height,
				Amount: e.Diff,
				Aux:    uint64(e.Nonce),
				Hash:   e.ID(),
				Actor:  e.Token,
			})
			if reorged {
				rec.Record(archive.Event{
					TimeNs: now,
					Kind:   archive.KindReorg,
					Height: e.Height,
					Hash:   e.ID(),
				})
			}
		})
	}
	if cfg.Archive != nil {
		// Chain appends are archived from the tip listener, which fires
		// synchronously on the appending goroutine after the chain's locks
		// are released — so a block's append event always precedes its
		// settlement events (found-block, payouts) in the archive.
		rec, clock := cfg.Archive, cfg.Clock
		cfg.Chain.Subscribe(func(tip [32]byte, height uint64) {
			rec.Record(archive.Event{
				TimeNs: clock.Now().UnixNano(),
				Kind:   archive.KindBlockAppend,
				Height: height,
				Hash:   tip,
			})
		})
	}
	return p, nil
}

// archiveEvent hands ev to the archive hook, if configured, stamping
// the pool clock when the caller left TimeNs zero.
func (p *Pool) archiveEvent(ev archive.Event) {
	rec := p.cfg.Archive
	if rec == nil {
		return
	}
	if ev.TimeNs == 0 {
		ev.TimeNs = p.cfg.Clock.Now().UnixNano()
	}
	rec.Record(ev)
}

// archiveShare records one share outcome, if the archive hook is
// configured. Kept out of line so the nil check is the only cost on
// the un-archived submit path.
func (p *Pool) archiveShare(kind archive.Kind, token, jobID string, nonce uint32, diff, credited uint64) {
	if p.cfg.Archive == nil {
		return
	}
	p.archiveEvent(archive.Event{
		Kind:   kind,
		Amount: diff,
		Aux:    uint64(nonce),
		Aux2:   credited,
		Actor:  token,
		Ref:    jobID,
	})
}

// Links exposes the short-link store.
func (p *Pool) Links() *LinkStore { return p.links }

// Captchas exposes the proof-of-work captcha service.
func (p *Pool) Captchas() *CaptchaService { return p.captchas }

// ShareDifficulty reports the hash credit per accepted share for the given
// session kind; the network front uses it to credit captchas.
func (p *Pool) ShareDifficulty(lowDiff bool) uint64 {
	if lowDiff {
		return p.cfg.LinkShareDifficulty
	}
	return p.cfg.ShareDifficulty
}

// Chain exposes the underlying chain.
func (p *Pool) Chain() *blockchain.Chain { return p.cfg.Chain }

// Clock exposes the pool's clock; the engine's vardiff and banscore
// timestamps come from it so simulated services stay deterministic.
func (p *Pool) Clock() simclock.Clock { return p.cfg.Clock }

// Vardiff exposes the (defaults-filled) vardiff configuration.
func (p *Pool) Vardiff() VardiffConfig { return p.cfg.Vardiff }

// Ban exposes the (defaults-filled) defense-layer configuration.
func (p *Pool) Ban() BanConfig { return p.cfg.Ban }

// Metrics exposes the registry the pool's instruments live in.
func (p *Pool) Metrics() *metrics.Registry { return p.cfg.Metrics }

// NumEndpoints returns the number of public WebSocket endpoints.
func (p *Pool) NumEndpoints() int { return p.cfg.NumBackends * p.cfg.EndpointsPerBackend }

// BackendOfEndpoint maps a public endpoint index to its backend system:
// two endpoints share one backend, as the paper infers ("this suggests
// that there are two endpoints per backend system").
func (p *Pool) BackendOfEndpoint(endpoint int) int {
	return endpoint % p.cfg.NumBackends
}

// makeJobID encodes the owning backend, the shard's refresh generation and
// the template slot into the wire job identifier ("backend-seq-slot", with
// a "-L" suffix for link-difficulty jobs and a "-d<N>" suffix for
// vardiff-retargeted ones, N being the decimal difficulty served). A share
// routes straight to its shard and slot without any per-job lookup table,
// and the generation makes identifiers from before a tip change
// unresolvable — the stale-job rejection the per-job map used to provide.
// Static-tier IDs are minted once per shard refresh; vardiff IDs per job
// handout, since the difficulty is per-session state.
//
// Encoding the difficulty in the ID is what makes credit scale with the
// difficulty actually served: SubmitShare verifies against and credits the
// ID's own tier, and the engine separately guarantees the session was
// really served that tier (a forged "-d1" is rejected before verification).
func makeJobID(backend int, seq uint32, slot int, link bool, diff uint64) string {
	var buf [48]byte
	b := strconv.AppendUint(buf[:0], uint64(backend), 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, uint64(seq), 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, uint64(slot), 10)
	if link {
		b = append(b, '-', 'L')
	}
	if diff > 0 {
		b = append(b, '-', 'd')
		b = strconv.AppendUint(b, diff, 10)
	}
	return string(b)
}

// parseJobID inverts makeJobID. link and diff are mutually exclusive (the
// link tier is never retargeted).
func parseJobID(id string) (ref jobRef, ok bool) {
	if strings.HasSuffix(id, "-L") {
		ref.link = true
		id = id[:len(id)-2]
	}
	// The numeric fields are pure digits, so "-d" can only be the vardiff
	// suffix; a link ID carrying one was never minted.
	if k := strings.LastIndex(id, "-d"); k >= 0 {
		d, err := strconv.ParseUint(id[k+2:], 10, 64)
		if err != nil || d == 0 || ref.link {
			return jobRef{}, false
		}
		ref.diff = d
		id = id[:k]
	}
	i := strings.IndexByte(id, '-')
	j := strings.LastIndexByte(id, '-')
	if i <= 0 || j <= i {
		return jobRef{}, false
	}
	b, err := strconv.Atoi(id[:i])
	if err != nil || b < 0 {
		return jobRef{}, false
	}
	seq, err := strconv.ParseUint(id[i+1:j], 10, 32)
	if err != nil {
		return jobRef{}, false
	}
	slot, err := strconv.Atoi(id[j+1:])
	if err != nil || slot < 0 {
		return jobRef{}, false
	}
	ref.backend, ref.seq, ref.slot = b, uint32(seq), slot
	return ref, true
}

// refreshShardLocked rebuilds one backend's PoW inputs on a new tip. The
// caller holds sh.mu (or, during NewPool, exclusive ownership).
func (p *Pool) refreshShardLocked(sh *backendShard, backend int, tip [32]byte) {
	sh.tip = tip
	sh.refreshSeq++
	p.shardRefresh.Inc()
	ts := uint64(p.cfg.Clock.Now().Unix())
	for s := range sh.templates {
		var extra [8]byte
		extra[0] = 0xC4 // pool tag
		extra[1] = byte(backend)
		extra[2] = byte(s)
		binary.LittleEndian.PutUint32(extra[4:], sh.refreshSeq)
		tmpl := p.cfg.Chain.NewTemplate(ts, p.cfg.Wallet, extra[:], nil)
		sh.templates[s] = tmpl
		// The blob (and its embedded Merkle root) is fixed for the
		// template's lifetime; caching it keeps the watcher's polling
		// loop and the verify path off the Keccak hot path. The slot's
		// buffers are reused across refreshes.
		sh.blobs[s] = tmpl.AppendHashingBlob(sh.blobs[s][:0])
		sh.wire = append(sh.wire[:0], sh.blobs[s]...)
		stratum.ObfuscateBlob(sh.wire)
		sh.jobBlobHex[s] = stratum.EncodeBlob(sh.wire)
		sh.jobIDs[s] = makeJobID(backend, sh.refreshSeq, s, false, 0)
		sh.linkJobIDs[s] = "" // minted on the first link job of this refresh
	}
	sh.wireStatic = make([]*JobWire, len(sh.templates))
	sh.wireLink = make([]*JobWire, len(sh.templates))
	clear(sh.wireDiff)
}

// RefreshIfStale rebuilds templates when the chain tip moved (called by the
// simulation after background miners extend the chain). Shards also refresh
// lazily on their next Job, so this is an optimisation, not a correctness
// requirement; submits against a stale shard are rejected with
// ErrUnknownJob until that shard hands out fresh work.
func (p *Pool) RefreshIfStale() {
	tip := p.cfg.Chain.TipID()
	for b, sh := range p.backends {
		sh.mu.Lock()
		if sh.tip != tip {
			p.refreshShardLocked(sh, b, tip)
		}
		sh.mu.Unlock()
	}
}

// stripeFor maps a token to its account stripe (FNV-1a).
func (p *Pool) stripeFor(token string) *accountStripe {
	h := uint32(2166136261)
	for i := 0; i < len(token); i++ {
		h ^= uint32(token[i])
		h *= 16777619
	}
	return &p.stripes[h%accountStripeCount]
}

// Authorize registers (or fetches) the account for a site key. It returns
// a snapshot, not the live record: handing out the pointer would let
// callers read fields that concurrent SubmitShare calls mutate under the
// stripe lock.
func (p *Pool) Authorize(token string) Account {
	st := p.stripeFor(token)
	st.mu.Lock()
	defer st.mu.Unlock()
	return *st.accountLocked(token)
}

func (st *accountStripe) accountLocked(token string) *Account {
	a, ok := st.accts[token]
	if !ok {
		a = &Account{Token: token}
		st.accts[token] = a
	}
	return a
}

// Job hands out the current PoW input for an endpoint and connection slot —
// obfuscated, exactly as Coinhive serves it. slot selects one of the
// backend's rotating templates, so polling one endpoint reveals at most
// TemplatesPerBackend distinct inputs per block (the paper measured 8).
func (p *Pool) Job(endpoint, slot int, forLink bool) stratum.Job {
	return p.jobWire(endpoint, slot, 0, forLink).Job
}

// JobAt hands out the current PoW input at an explicit vardiff difficulty
// — the engine's retargeted-session job path. The tier is per-session
// state, not shard state, but its wire form is cached per (slot, diff)
// like every other handout (see jobwire.go).
func (p *Pool) JobAt(endpoint, slot int, diff uint64) stratum.Job {
	return p.jobWire(endpoint, slot, diff, false).Job
}

// ShareOutcome reports what an accepted share achieved.
type ShareOutcome struct {
	// Credited is the account's total hash credit after this share — what
	// the wire protocol's hash_accepted message carries.
	Credited uint64
	// Diff is the hash credit this share earned.
	Diff uint64
	// Block is non-nil when the share also met the network difficulty and
	// was appended to the chain (already settled and paid out).
	Block *blockchain.Block
}

// SubmitShare verifies a miner's share. linkID, when non-empty, credits a
// short link's hash goal instead of only the account.
//
// Only the template lookup (shard read lock) and the account credit
// (stripe lock) run under locks; the CryptoNight verification in between —
// the dominant cost — runs on the submitter's own scratchpad, so
// concurrent submitters verify in parallel.
func (p *Pool) SubmitShare(token, jobID string, nonce uint32, result [32]byte, linkID string) (ShareOutcome, error) {
	ref, ok := parseJobID(jobID)
	return p.submitShare(token, jobID, ref, ok, nonce, result, linkID)
}

// submitShare is SubmitShare for a caller that has already parsed the job
// ID (the engine): resolve the job, verify the hash, credit the account.
// Each stage's error leaves through the one reject below.
func (p *Pool) submitShare(token, jobID string, ref jobRef, refOK bool, nonce uint32, result [32]byte, linkID string) (ShareOutcome, error) {
	var bbuf [128]byte // hashing blobs fit; keeps the verify path alloc-free
	tmpl, blob, tip, err := p.resolve(token, jobID, ref, refOK, nonce, bbuf[:0])
	var out ShareOutcome
	if err == nil {
		out.Diff, err = p.verify(ref, tmpl, blob, nonce, result)
	}
	if err == nil {
		out.Credited, err = p.credit(token, ref.memoKey(nonce), out.Diff)
	}
	if err != nil {
		return p.reject(err, token, jobID, nonce, out.Diff)
	}
	p.sharesOK.Add(1)
	p.archiveShare(archive.KindShareAccepted, token, jobID, nonce, out.Diff, out.Credited)
	if fed := p.cfg.Federation; fed != nil {
		// The blob already has the winning nonce spliced, so the entry is
		// self-certifying on every peer. emitShare copies the stack buffer
		// and never blocks — federation rides the submit path at the cost
		// of one queue offer.
		fed.emitShare(token, out.Diff, nonce, blob, result)
	}
	if linkID != "" {
		p.links.Credit(linkID, out.Diff)
	}

	// Did the share also satisfy the network difficulty?
	if !cryptonight.CheckDifficulty(result, p.cfg.Chain.NextDifficulty()) {
		return out, nil
	}
	p.settleMu.Lock()
	defer p.settleMu.Unlock()
	if tip != p.cfg.Chain.TipID() {
		// Another block landed while we verified; the share was valid work
		// against its tip and stays credited, but it wins nothing.
		return out, nil
	}
	won := &blockchain.Block{Header: tmpl.Header, Coinbase: tmpl.Coinbase, TxHashes: tmpl.TxHashes}
	won.Nonce = nonce
	if err := p.cfg.Chain.Append(won); err != nil {
		if errors.Is(err, blockchain.ErrBadPrev) {
			return out, nil // lost a race with a background miner's block
		}
		return out, fmt.Errorf("coinhive: chain rejected our block: %w", err)
	}
	p.settleLocked(won, ref.backend)
	out.Block = won
	return out, nil
}

// reject is the one exit for a submission that earns no credit: counted in
// pool.shares_bad (duplicates also in pool.shares_duplicate) and archived
// under the kind the error names. diff is the tier the share was held to,
// 0 when it never got as far as verification; a duplicate archives none
// on either side of the verify, being judged by its key alone.
func (p *Pool) reject(err error, token, jobID string, nonce uint32, diff uint64) (ShareOutcome, error) {
	kind := archive.KindShareRejected
	switch err {
	case ErrStaleJob:
		kind = archive.KindShareStale
	case ErrDuplicateShare:
		kind = archive.KindShareDuplicate
		p.sharesDup.Inc()
		diff = 0
	}
	p.sharesBad.Add(1)
	p.archiveShare(kind, token, jobID, nonce, diff, 0)
	return ShareOutcome{}, err
}

// resolve maps a submission to the template it was mined against. It
// returns the template, a private copy of its hashing blob appended to
// buf, and the chain tip the job was current on; or ErrUnknownJob for an
// identifier the pool never issued, ErrStaleJob for one the chain has
// outrun, ErrDuplicateShare for a share the account was already paid for.
func (p *Pool) resolve(token, jobID string, ref jobRef, refOK bool, nonce uint32, buf []byte) (tmpl *blockchain.Block, blob []byte, tip [32]byte, err error) {
	if !refOK || ref.backend >= len(p.backends) || ref.slot >= p.cfg.TemplatesPerBackend {
		return nil, nil, tip, ErrUnknownJob
	}
	// A vardiff-tier ID is only meaningful when vardiff is on and its
	// difficulty inside the configured clamp; anything else was forged.
	if vd := p.cfg.Vardiff; ref.diff != 0 && (!vd.Enabled() || ref.diff < vd.MinDifficulty || ref.diff > vd.MaxDifficulty) {
		return nil, nil, tip, ErrUnknownJob
	}
	// Duplicate pre-check before the CryptoNight verify: a duplicate
	// flood's cost must stay the memo scan, not the very CPU burn the
	// flood is after. The authoritative check-and-insert runs again at
	// credit time under the same stripe lock, closing the race of two
	// concurrent submissions of one share.
	if p.cfg.ShareMemoSize > 0 {
		st := p.stripeFor(token)
		st.mu.Lock()
		dup := st.memo[token].has(ref.memoKey(nonce)) // nil memo: has is false
		st.mu.Unlock()
		if dup {
			return nil, nil, tip, ErrDuplicateShare
		}
	}
	sh := p.backends[ref.backend]
	tip = p.cfg.Chain.TipID()
	sh.mu.RLock()
	// A static-tier ID must equal the ID this refresh actually minted for
	// the slot (link IDs are minted lazily, so an un-issued link ID is the
	// empty string and never matches) and the shard must still be on the
	// chain tip. Together these reproduce what the per-job lookup table
	// enforced: only issued, non-stale jobs resolve, and the difficulty
	// tier is pinned at issue time, not chosen by the submitter. A
	// vardiff-tier ID is a pure function of (backend, generation, slot,
	// diff), so currency is the generation + tip check; its difficulty
	// legitimacy is the clamp above plus the engine's served-tier check
	// (the session rejects tiers it was never served before verification).
	minted := sh.jobIDs[ref.slot]
	if ref.link {
		minted = sh.linkJobIDs[ref.slot]
	}
	curSeq := sh.refreshSeq
	current := sh.tip == tip && ref.seq == curSeq
	if ref.diff == 0 {
		current = current && minted == jobID
	}
	if current {
		tmpl = sh.templates[ref.slot]
		blob = append(buf, sh.blobs[ref.slot]...)
	}
	sh.mu.RUnlock()
	if current {
		return tmpl, blob, tip, nil
	}
	// Was this identifier ever real? A current-generation ID that
	// matches the minted string (tip moved under it) or any ID from an
	// earlier generation is honest-but-stale; anything else — a future
	// generation, or a current-generation string the shard never
	// issued (e.g. an un-minted link tier) — was forged.
	if minted == jobID || ref.seq < curSeq || (ref.diff != 0 && ref.seq == curSeq) {
		return nil, nil, tip, ErrStaleJob
	}
	return nil, nil, tip, ErrUnknownJob
}

// verify splices the nonce into blob, checks the claimed hash and holds it
// to the tier the ID itself carries — the tier that is then credited,
// which keeps TotalHashes an unbiased hashrate estimate across retargets
// (credit scales with the difficulty actually served). The difficulty is
// returned with ErrLowShare as well as with success.
func (p *Pool) verify(ref jobRef, tmpl *blockchain.Block, blob []byte, nonce uint32, result [32]byte) (diff uint64, err error) {
	blockchain.SpliceNonce(blob, tmpl.NonceOffset(), nonce)
	if cryptonight.Sum(blob, p.variant) != result {
		return 0, ErrBadShare
	}
	diff = p.ShareDifficulty(ref.link)
	if ref.diff != 0 {
		diff = ref.diff
	}
	if !cryptonight.CheckCompactTarget(result, cryptonight.DifficultyForTarget(diff)) {
		return diff, ErrLowShare
	}
	return diff, nil
}

// credit books diff hashes to the account and this round, and returns the
// account's new all-time total — unless the memo shows the share was
// already paid for (the authoritative half of resolve's pre-check).
func (p *Pool) credit(token string, memoKey, diff uint64) (total uint64, err error) {
	st := p.stripeFor(token)
	st.mu.Lock()
	defer st.mu.Unlock()
	if p.cfg.ShareMemoSize > 0 {
		m := st.memo[token]
		if m == nil {
			m = &shareMemo{keys: make([]uint64, p.cfg.ShareMemoSize)}
			st.memo[token] = m
		}
		if !m.insert(memoKey) {
			return 0, ErrDuplicateShare
		}
	}
	acct := st.accountLocked(token)
	acct.TotalHashes += diff
	st.round[token] += diff
	return acct.TotalHashes, nil
}

// ProduceWinningBlock is the simulation fast path: the discrete-event
// network decided the pool's aggregate hash power found the next block, so
// one of the current templates is promoted to a real block (bypassing PoW
// verification — see blockchain.AppendUnchecked) and settled. backend and
// nonce are chosen by the caller's randomness; the winning template slot is
// derived from the nonce so all 128 live PoW inputs are possible winners.
func (p *Pool) ProduceWinningBlock(ts uint64, backend int, nonce uint32) (*blockchain.Block, error) {
	p.settleMu.Lock()
	defer p.settleMu.Unlock()
	b := ((backend % p.cfg.NumBackends) + p.cfg.NumBackends) % p.cfg.NumBackends
	sh := p.backends[b]
	sh.mu.Lock()
	if tip := p.cfg.Chain.TipID(); sh.tip != tip {
		p.refreshShardLocked(sh, b, tip)
	}
	tmpl := sh.templates[int(nonce)%p.cfg.TemplatesPerBackend]
	sh.mu.Unlock()
	won := &blockchain.Block{Header: tmpl.Header, Coinbase: tmpl.Coinbase, TxHashes: tmpl.TxHashes}
	if ts > won.Timestamp {
		won.Timestamp = ts
	}
	won.Nonce = nonce
	if err := p.cfg.Chain.AppendUnchecked(won); err != nil {
		return nil, err
	}
	p.settleLocked(won, b)
	return won, nil
}

// settleLocked distributes a found block's reward: FeePercent stays with
// the pool, the rest goes to accounts — split over this round's hashes on
// a standalone pool, over the share-chain's PPLNS window on a federated
// one. The window is a pure function of the (converged) entry set, so
// every node in a federation computes the same payout vector for the same
// block, which is what lets N nodes settle without reconciling. The
// caller holds settleMu; stripe locks are taken one at a time, so shares
// submitted concurrently with settlement land cleanly in this round or
// the next.
func (p *Pool) settleLocked(b *blockchain.Block, backend int) {
	reward := b.Coinbase.Amount
	// The round tallies reset either way: "this round" stays a meaningful
	// local statistic even when it no longer prices payouts.
	round := map[string]uint64{}
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		for token, h := range st.round {
			round[token] += h
		}
		st.round = map[string]uint64{}
		st.mu.Unlock()
	}
	var payouts []sharechain.Payout
	if fed := p.cfg.Federation; fed != nil {
		payouts = fed.Chain().PayoutVector(reward)
	} else {
		payouts = p.roundPayouts(reward, round)
	}
	height := p.cfg.Chain.Height()
	p.archiveEvent(archive.Event{
		Kind:   archive.KindBlockFound,
		Height: height,
		Amount: reward,
		Aux:    b.Timestamp,
		Aux2:   uint64(backend),
	})
	distributed := uint64(0)
	for _, po := range payouts {
		st := p.stripeFor(po.Token)
		st.mu.Lock()
		st.accountLocked(po.Token).BalanceAtomic += po.Amount
		st.mu.Unlock()
		distributed += po.Amount
		p.archiveEvent(archive.Event{
			Kind:   archive.KindPayout,
			Height: height,
			Amount: po.Amount,
			Actor:  po.Token,
		})
	}
	// Rounding dust (and the whole user part, when nobody contributed
	// shares) stays with the pool.
	p.kept.Add(reward - distributed)
	p.paid.Add(distributed)
	p.blocksFound.Inc()
	p.found = append(p.found, FoundBlock{
		Height: height, Timestamp: b.Timestamp, Backend: backend, Reward: reward,
	})
}

// roundPayouts is the standalone pool's payout vector — sharechain.Split,
// the rule Chain.PayoutVector applies to the PPLNS window, over the hashes
// each account contributed this round: rounding dust favours the pool, as
// any self-respecting fee schedule would. Tokens go in sorted so the
// archived payout sequence is deterministic — map iteration order must not
// leak into what a replay is compared against.
func (p *Pool) roundPayouts(reward uint64, round map[string]uint64) []sharechain.Payout {
	weights := make([]sharechain.TokenWeight, 0, len(round))
	for token, h := range round {
		weights = append(weights, sharechain.TokenWeight{Token: token, Weight: h})
	}
	sort.Slice(weights, func(i, j int) bool { return weights[i].Token < weights[j].Token })
	return sharechain.Split(reward, p.cfg.FeePercent, weights)
}

// Federation exposes the federation bundle, nil for standalone pools.
func (p *Pool) Federation() *Federation { return p.cfg.Federation }

// Stats is a snapshot of pool economics.
type Stats struct {
	BlocksFound int
	SharesOK    uint64
	SharesBad   uint64
	// SharesStale is the subset of SharesBad rejected only because the
	// chain tip outran the job — sessions that hit it were re-jobbed, not
	// errored. SharesDuplicate is the subset rejected by the per-account
	// duplicate memo.
	SharesStale     uint64
	SharesDuplicate uint64
	PaidAtomic      uint64
	KeptAtomic      uint64
	TotalAccounts   int
}

// StatsSnapshot returns current counters.
func (p *Pool) StatsSnapshot() Stats {
	p.settleMu.Lock()
	blocks := len(p.found)
	p.settleMu.Unlock()
	accounts := 0
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		accounts += len(st.accts)
		st.mu.Unlock()
	}
	return Stats{
		BlocksFound:     blocks,
		SharesOK:        p.sharesOK.Load(),
		SharesBad:       p.sharesBad.Load(),
		SharesStale:     p.sharesStale.Load(),
		SharesDuplicate: p.sharesDup.Load(),
		PaidAtomic:      p.paid.Load(),
		KeptAtomic:      p.kept.Load(),
		TotalAccounts:   accounts,
	}
}

// FoundBlocks returns the record of every block the pool mined.
func (p *Pool) FoundBlocks() []FoundBlock {
	p.settleMu.Lock()
	defer p.settleMu.Unlock()
	return append([]FoundBlock(nil), p.found...)
}

// AccountSnapshot returns a copy of the account for token, if present.
func (p *Pool) AccountSnapshot(token string) (Account, bool) {
	st := p.stripeFor(token)
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.accts[token]
	if !ok {
		return Account{}, false
	}
	return *a, true
}

package coinhive

import (
	"sync"
	"time"
)

// This file is the abuse-containment layer: a striped table of per-identity
// abuse state — a decaying banscore, a ban deadline, and two token buckets
// (logins, submits) — keyed by site key and, optionally, remote host. The
// engine scores offenses (duplicate shares, stale floods, malformed bursts,
// forged difficulties, rate-limit trips) into it; crossing the threshold
// bans the identity for BanDuration, which rejects logins and drops the
// offending session with a named error.
//
// Identity is keyed on the account (site key), not the connection, so a
// reconnect never resets an attacker's score — the reconnect-hammer
// scenario is contained by exactly this. Everything under the stripe locks
// is O(1) arithmetic on one entry: no hashing, no blocking, no iteration
// on the hot path (the lockscope analyzer enforces the first two).

// BanConfig tunes the defense layer. The zero value disables it
// (BanThreshold == 0). The score decays at the fixed banDecayPerSec,
// malformed frames score the fixed banMalformedScore and every other
// rejected abuse banOffenseScore; the stale bound and the bucket bursts
// are fixed too (banStaleFloodAfter, banLoginBurst, banSubmitBurst).
type BanConfig struct {
	// BanThreshold is the banscore at which an identity is banned.
	// 0 disables the entire defense layer.
	BanThreshold float64
	// BanDuration is how long a ban lasts (default 10m).
	BanDuration time.Duration

	// Login/submit token buckets, per identity, in tokens/second.
	// Defaults: logins 5/s, submits 20/s.
	LoginRatePerSec  float64
	SubmitRatePerSec float64

	// BanByRemoteHost additionally keys scores and bans on the peer's
	// remote host ("ip:<host>"), so an attacker rotating site keys from
	// one address is still contained. Off by default: NAT'd browser
	// populations (the paper's subject audience) share addresses, and
	// single-host load generation would self-ban.
	BanByRemoteHost bool
}

// enabled reports whether the defense layer is configured on.
func (c BanConfig) enabled() bool { return c.BanThreshold > 0 }

func (c *BanConfig) fillDefaults() {
	if !c.enabled() {
		return
	}
	if c.BanDuration == 0 {
		c.BanDuration = 10 * time.Minute
	}
	if c.LoginRatePerSec == 0 {
		c.LoginRatePerSec = 5
	}
	if c.SubmitRatePerSec == 0 {
		c.SubmitRatePerSec = 20
	}
}

const (
	// banDecayPerSec is the banscore's linear decay in points/second: an
	// identity that stops offending is forgiven at this rate, so sparse
	// honest mistakes never accumulate to a ban.
	banDecayPerSec = 1
	// banMalformedScore scores a garbage frame, bad params or an unknown
	// message type.
	banMalformedScore = 5
	// banOffenseScore is what every other rejected abuse scores: a
	// resubmitted (job, nonce), a stale past banStaleFloodAfter, a job ID
	// at a difficulty the session is not served, or an exhausted login or
	// submit bucket.
	banOffenseScore = 10
	// banStaleFloodAfter is the consecutive-stale bound: after this many
	// stale shares with no accept between them the session stops getting
	// re-jobs and earns {-4, "too many stale"} instead.
	banStaleFloodAfter = 8
	// banLoginBurst and banSubmitBurst are the token buckets' capacities
	// (and initial fills).
	banLoginBurst  = 10
	banSubmitBurst = 40
)

// abuseShardCount stripes the table; identities hash onto stripes so
// concurrent submitters for different accounts rarely contend.
const abuseShardCount = 16

// abuseShardCap bounds one stripe's population; reaching it evicts
// idle, unbanned entries (see evictLocked) so a key-rotating attacker
// cannot grow the table without bound.
const abuseShardCap = 8192

// abuseEntry is one identity's abuse state. All times are unixnanos from
// the engine's clock.
type abuseEntry struct {
	score         float64
	scoreAtNs     int64 // last decay application
	bannedUntilNs int64

	loginTokens  float64
	loginAtNs    int64 // 0 = bucket not yet initialised (starts full)
	submitTokens float64
	submitAtNs   int64

	touchedNs int64 // last activity, for eviction
}

type abuseShard struct {
	mu sync.Mutex
	m  map[string]*abuseEntry
}

// abuseTable is the striped identity table.
type abuseTable struct {
	cfg    BanConfig
	shards [abuseShardCount]abuseShard
}

func newAbuseTable(cfg BanConfig) *abuseTable {
	t := &abuseTable{cfg: cfg}
	for i := range t.shards {
		t.shards[i].m = map[string]*abuseEntry{}
	}
	return t
}

// shardFor maps an identity to its stripe (FNV-1a, like stripeFor).
func (t *abuseTable) shardFor(key string) *abuseShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &t.shards[h%abuseShardCount]
}

// entryLocked fetches-or-creates the entry; the caller holds sh.mu.
func (sh *abuseShard) entryLocked(key string, nowNs int64) *abuseEntry {
	e, ok := sh.m[key]
	if !ok {
		if len(sh.m) >= abuseShardCap {
			sh.evictLocked(nowNs)
		}
		e = &abuseEntry{scoreAtNs: nowNs}
		sh.m[key] = e
	}
	e.touchedNs = nowNs
	return e
}

// evictLocked drops entries idle for over ten minutes that are neither
// banned nor carrying score — the only state worth keeping. The score is
// decayed before the test: stored scores are only refreshed on bumps, so
// an identity that offended once and went idle would otherwise hold a
// stale positive score forever and never be evictable — a site-key
// rotator could then grow the stripe past abuseShardCap without bound.
// Runs only when a stripe hits abuseShardCap, so the map iteration is off
// every per-share path.
func (sh *abuseShard) evictLocked(nowNs int64) {
	const idleNs = int64(10 * time.Minute)
	for k, e := range sh.m {
		if e.bannedUntilNs > nowNs || nowNs-e.touchedNs <= idleNs {
			continue
		}
		e.decayLocked(nowNs)
		if e.score <= 0 {
			delete(sh.m, k)
		}
	}
}

// decayLocked applies the linear score decay up to nowNs.
func (e *abuseEntry) decayLocked(nowNs int64) {
	dt := float64(nowNs-e.scoreAtNs) / float64(time.Second)
	if dt > 0 {
		e.score -= dt * banDecayPerSec
		if e.score < 0 {
			e.score = 0
		}
		e.scoreAtNs = nowNs
	}
}

// refillLocked advances one token bucket. A zero atNs means first touch:
// the bucket starts full (burst), so honest reconnect churn inside the
// burst is never throttled.
func refillLocked(tokens *float64, atNs *int64, nowNs int64, rate, burst float64) {
	if *atNs == 0 {
		*tokens = burst
		*atNs = nowNs
		return
	}
	dt := float64(nowNs-*atNs) / float64(time.Second)
	if dt > 0 {
		*tokens += dt * rate
		if *tokens > burst {
			*tokens = burst
		}
		*atNs = nowNs
	}
}

// bump scores one offense against key. banned reports whether the
// identity is banned after the bump; newly whether this bump issued the
// ban (the transition the server.bans counter counts).
func (t *abuseTable) bump(key string, pts float64, nowNs int64) (banned, newly bool) {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entryLocked(key, nowNs)
	if e.bannedUntilNs > nowNs {
		return true, false
	}
	e.decayLocked(nowNs)
	e.score += pts
	if e.score >= t.cfg.BanThreshold {
		e.bannedUntilNs = nowNs + int64(t.cfg.BanDuration)
		e.score = 0 // the ban consumed the score; expiry starts clean
		return true, true
	}
	return false, false
}

// isBanned reports whether key is currently banned.
func (t *abuseTable) isBanned(key string, nowNs int64) bool {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[key]
	return ok && e.bannedUntilNs > nowNs
}

// allowLogin spends one login token for key.
func (t *abuseTable) allowLogin(key string, nowNs int64) bool {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entryLocked(key, nowNs)
	refillLocked(&e.loginTokens, &e.loginAtNs, nowNs, t.cfg.LoginRatePerSec, banLoginBurst)
	if e.loginTokens < 1 {
		return false
	}
	e.loginTokens--
	return true
}

// allowSubmit spends one submit token for key.
func (t *abuseTable) allowSubmit(key string, nowNs int64) bool {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entryLocked(key, nowNs)
	refillLocked(&e.submitTokens, &e.submitAtNs, nowNs, t.cfg.SubmitRatePerSec, banSubmitBurst)
	if e.submitTokens < 1 {
		return false
	}
	e.submitTokens--
	return true
}

package coinhive

import (
	"testing"
	"time"
)

func testBanTable() *abuseTable {
	cfg := BanConfig{
		BanThreshold:    100,
		BanDuration:     time.Minute,
		LoginRatePerSec: 2,
	}
	cfg.fillDefaults()
	return newAbuseTable(cfg)
}

func TestBanscoreAccumulateAndBan(t *testing.T) {
	tab := testBanTable()
	now := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC).UnixNano()

	// Three 25-point offenses in the same instant: scored, not banned.
	for i := 0; i < 3; i++ {
		if banned, newly := tab.bump("attacker", 25, now); banned || newly {
			t.Fatalf("offense %d: banned=%v newly=%v, want scored only", i, banned, newly)
		}
	}
	if score, _ := tab.state("attacker", now); score != 75 {
		t.Fatalf("score = %v, want 75", score)
	}

	// The fourth crosses the threshold: newly banned, score consumed.
	banned, newly := tab.bump("attacker", 25, now)
	if !banned || !newly {
		t.Fatalf("threshold bump: banned=%v newly=%v, want true,true", banned, newly)
	}
	if score, until := tab.state("attacker", now); score != 0 || until != now+int64(time.Minute) {
		t.Errorf("post-ban state = (%v, %d), want (0, %d)", score, until, now+int64(time.Minute))
	}
	if !tab.isBanned("attacker", now) {
		t.Error("identity not banned after threshold")
	}

	// While banned, further offenses report banned but never re-issue.
	if banned, newly := tab.bump("attacker", 25, now+int64(time.Second)); !banned || newly {
		t.Errorf("offense during ban: banned=%v newly=%v, want true,false", banned, newly)
	}

	// The ban expires on its own; the identity comes back clean.
	after := now + int64(time.Minute) + 1
	if tab.isBanned("attacker", after) {
		t.Error("ban did not expire")
	}
	if score, _ := tab.state("attacker", after); score != 0 {
		t.Errorf("score after expiry = %v, want 0 (the ban consumed it)", score)
	}
}

func TestBanscoreDecay(t *testing.T) {
	tab := testBanTable()
	now := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC).UnixNano()

	// 80 points decaying at 1/s: 30 seconds of silence forgives 30.
	tab.bump("sloppy", 80, now)
	if score, _ := tab.state("sloppy", now+30*int64(time.Second)); score != 50 {
		t.Errorf("score after 30s = %v, want 50", score)
	}
	// Decay floors at zero — silence never earns negative score.
	if score, _ := tab.state("sloppy", now+300*int64(time.Second)); score != 0 {
		t.Errorf("score after 300s = %v, want 0", score)
	}

	// Sparse offenses below the decay rate never accumulate: 25 points
	// every 30s against 1/s decay stays bounded at 25 forever.
	for i := int64(1); i <= 20; i++ {
		at := now + i*30*int64(time.Second)
		if banned, _ := tab.bump("sparse", 25, at); banned {
			t.Fatalf("sparse honest mistakes banned at offense %d", i)
		}
	}
}

func TestBanscoreLoginBucket(t *testing.T) {
	tab := testBanTable()
	now := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC).UnixNano()

	// The bucket starts full at burst (banLoginBurst, 10): honest
	// reconnect churn inside the burst is never throttled.
	for i := 0; i < banLoginBurst; i++ {
		if !tab.allowLogin("hammer", now) {
			t.Fatalf("login %d throttled inside burst", i)
		}
	}
	if tab.allowLogin("hammer", now) {
		t.Fatal("login allowed past an exhausted bucket")
	}

	// Refill at 2/s: one second buys exactly two logins.
	later := now + int64(time.Second)
	if !tab.allowLogin("hammer", later) || !tab.allowLogin("hammer", later) {
		t.Fatal("refilled tokens not granted")
	}
	if tab.allowLogin("hammer", later) {
		t.Fatal("third login inside one refill second allowed")
	}

	// Identities are independent: someone else's hammering never spends
	// this key's tokens.
	if !tab.allowLogin("honest", now) {
		t.Fatal("unrelated identity throttled")
	}
}

func TestBanscoreSubmitBucketDefaults(t *testing.T) {
	tab := testBanTable() // submit bucket left at defaults: 20/s burst 40
	now := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i := 0; i < 40; i++ {
		if !tab.allowSubmit("miner", now) {
			t.Fatalf("submit %d throttled inside burst", i)
		}
	}
	if tab.allowSubmit("miner", now) {
		t.Fatal("submit allowed past an exhausted bucket")
	}
	if !tab.allowSubmit("miner", now+int64(50*time.Millisecond)) {
		t.Fatal("50ms at 20/s should refill one submit token")
	}
}

func TestBanscoreEviction(t *testing.T) {
	tab := testBanTable()
	now := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	sh := tab.shardFor("victim")

	// An idle clean entry is evicted when the stripe is at capacity; a
	// banned one survives (its state is the whole point of the table).
	sh.mu.Lock()
	sh.entryLocked("idle-clean", now)
	sh.mu.Unlock()
	tab.bump("banned-key", 200, now)
	bannedSh := tab.shardFor("banned-key")

	later := now + int64(11*time.Minute)
	sh.mu.Lock()
	sh.evictLocked(later)
	_, cleanAlive := sh.m["idle-clean"]
	sh.mu.Unlock()
	if cleanAlive {
		t.Error("idle clean entry survived eviction")
	}
	bannedSh.mu.Lock()
	bannedSh.evictLocked(later)
	_, bannedAlive := bannedSh.m["banned-key"]
	bannedSh.mu.Unlock()
	// The minute-long ban has lapsed by then, but its score/ban state was
	// touched recently enough only if within idle window — here it idled
	// 11 minutes with an expired ban, so it too is reclaimable.
	if bannedAlive {
		t.Error("expired-ban idle entry survived eviction")
	}

	// An identity that offended once and went idle must decay to
	// evictable: tested on the stored (un-decayed) score it would stay
	// resident forever, and a site-key rotator — one offense per fresh key
	// — could grow the stripe past its cap without bound.
	tab.bump("one-off", 5, now)
	ooSh := tab.shardFor("one-off")
	ooSh.mu.Lock()
	ooSh.evictLocked(later) // 11 idle minutes at 1 point/s: score decayed to 0
	_, ooAlive := ooSh.m["one-off"]
	ooSh.mu.Unlock()
	if ooAlive {
		t.Error("idle decayed-to-zero offender survived eviction")
	}

	// A still-banned entry must survive any eviction pass, even one that
	// runs long past the idle window.
	longCfg := BanConfig{BanThreshold: 100, BanDuration: 30 * time.Minute}
	longCfg.fillDefaults()
	longTab := newAbuseTable(longCfg)
	longTab.bump("long-ban", 200, now)
	lbSh := longTab.shardFor("long-ban")
	lbSh.mu.Lock()
	lbSh.evictLocked(now + int64(11*time.Minute))
	_, alive := lbSh.m["long-ban"]
	lbSh.mu.Unlock()
	if !alive {
		t.Error("active ban evicted")
	}
}

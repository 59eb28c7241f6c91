package coinhive

import "time"

// AbuseState snapshots an identity's decayed banscore and ban deadline
// (zeroes when the defense layer is off or the identity is unknown). The
// cross-transport tests assert dialect-independence with it.
func (e *Engine) AbuseState(key string) (score float64, bannedUntil time.Time) {
	if e.abuse == nil {
		return 0, time.Time{}
	}
	s, untilNs := e.abuse.state(key, e.clock.Now().UnixNano())
	if untilNs != 0 {
		bannedUntil = time.Unix(0, untilNs)
	}
	return s, bannedUntil
}

// state snapshots one identity's decayed score and ban deadline.
func (t *abuseTable) state(key string, nowNs int64) (score float64, bannedUntilNs int64) {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[key]
	if !ok {
		return 0, 0
	}
	e.decayLocked(nowNs)
	return e.score, e.bannedUntilNs
}

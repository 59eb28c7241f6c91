package loadgen

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/session"
	"repro/internal/stratum"
)

// This file is the hostile half of the swarm: sessions that behave like
// the abusive miners the pool's defense layer exists for, each verifying
// the exact containment reply the server tests pin. The attacks double as
// assertions — a duplicate share that comes back hash_accepted is a
// protocol error (the zero-duplicate-credit invariant), not a success.

// errContained marks a session the pool banned — the expected terminal
// state of every attacker. The step loop retires the session and counts
// it; it is never a protocol error.
var errContained = errors.New("loadgen: identity banned — session contained")

// attackKindFor assigns a session its behaviour under the scenario:
// AttackMix keeps 80% honest and rotates the rest across the four
// attacker kinds.
func attackKindFor(sc Scenario, idx int) string {
	if sc.Attack != AttackMix || idx%5 != 4 {
		return AttackNone
	}
	kinds := [...]string{AttackDup, AttackStale, AttackDiff, AttackHammer}
	return kinds[(idx/5)%len(kinds)]
}

// contain retires a banned session: count it once, drop the transport,
// release its slot in the phase gate. Reached only through errContained
// (or a banned login), so the ban has already been verified as the named
// wire reply.
func (sw *Swarm) contain(s *minerSession) {
	if !s.bannedCounted {
		s.bannedCounted = true
		sw.banned.Inc()
	}
	sw.dropConn(s)
	s.dead = true
	s.turnsLeft = 0
	sw.gate.finish()
}

// thinkFor paces one session between turns. Honest sessions under a
// SimHashrate scenario think for difficulty/hashrate — the cadence signal
// vardiff steers on; the stale flooder waits out one tip refresh so its
// held job is actually dead; the duplicate submitter and the difficulty
// gamer resubmit every 50ms.
func (sw *Swarm) thinkFor(s *minerSession) time.Duration {
	sc := sw.cfg.Scenario
	switch s.attack {
	case AttackStale:
		return sc.RefreshEvery + 100*time.Millisecond
	case AttackDup, AttackDiff:
		return 50 * time.Millisecond
	}
	if sc.SimHashrate > 0 {
		if d := jobDiff(s.job); d > 0 {
			return time.Duration(float64(d) / sc.SimHashrate * float64(time.Second))
		}
	}
	return 0
}

// jobDiff recovers the share difficulty a job was served at from its
// compact target (the inverse of the pool's DifficultyForTarget).
func jobDiff(j session.Job) uint64 {
	if j.Target == 0 {
		return 0
	}
	return (1 << 32) / uint64(j.Target)
}

// noteAccept records one credited share for the session's cadence
// measurement at the difficulty it was submitted under. A difficulty
// change restarts the measurement, so the reported cadence is always
// over the session's longest-current tier — the converged figure the
// vardiff acceptance bound checks.
func (sw *Swarm) noteAccept(s *minerSession, diff uint64) {
	now := time.Now()
	if diff != s.cadDiff {
		s.cadDiff, s.cadN = diff, 0
	}
	s.cadN++
	if s.cadN == 1 {
		s.cadT0 = now
	}
	s.cadLast = now
}

// hammerStep is one reconnect-hammer cycle: dial, login, abort, as fast
// as the server answers — all sessions on one shared site key, so the
// identity's login bucket drains and its own rate-limit rejections score
// it into a ban. The hammer never keeps a connection, so it bypasses the
// generic connect path entirely.
func (sw *Swarm) hammerStep(s *minerSession) {
	if s.dead {
		return
	}
	err := sw.hammerOnce(s)
	if err == errContained {
		sw.contain(s)
		return
	}
	s.turnsLeft--
	if s.turnsLeft <= 0 {
		sw.gate.finish()
		return
	}
	sw.enqueue(s)
}

func (sw *Swarm) hammerOnce(s *minerSession) error {
	sess, err := session.Dial(s.url, stratum.Auth{SiteKey: s.siteKey, Type: "anonymous"})
	if err != nil {
		return sw.protoError(s, "hammer dial", err)
	}
	sess.Timeout = readTimeout
	_, _, err = sess.Login()
	_ = sess.Abort()
	switch {
	case err == nil:
		if s.connectedOnce {
			sw.reconnects.Inc()
		}
		s.connectedOnce = true
		return nil
	case errors.Is(err, session.ErrBanned):
		return errContained
	case strings.Contains(err.Error(), stratum.RateLimitedMessage):
		// The named rejection the login bucket must produce; each one also
		// scores the identity toward its ban.
		sw.rateLimited.Inc()
		return nil
	default:
		return sw.protoError(s, "hammer login", err)
	}
}

// dupTurn is the duplicate submitter: the first turn earns one
// legitimate credit (via validTurn, which remembers the exact share) and
// every later turn replays that identical (job, nonce, result). The only
// acceptable outcomes are the named duplicate rejection, a rate limit,
// or the ban — a second hash_accepted for the same share is the
// invariant violation this attacker exists to detect.
func (sw *Swarm) dupTurn(s *minerSession) error {
	if !s.dupHave {
		if err := sw.validTurn(s); err != nil {
			return err
		}
		s.dupJobID, s.dupNonce, s.dupSum = s.lastOKJob, s.lastOKNonce, s.lastOKSum
		s.dupHave = true
		return nil
	}
	if err := s.sess.Submit(s.dupJobID, s.dupNonce, s.dupSum); err != nil {
		return sw.protoError(s, "dup submit write", err)
	}
	for {
		env, err := s.sess.ReadEnvelope()
		if err != nil {
			return sw.protoError(s, "read after dup submit", err)
		}
		switch env.Type {
		case stratum.TypeHashAccepted:
			sw.dupCredited.Inc()
			return sw.protoError(s, "duplicate share credited twice", nil)
		case stratum.TypeError:
			var e stratum.Error
			_ = env.Decode(&e)
			switch e.Error {
			case stratum.DuplicateShareMessage:
				sw.dupRejected.Inc()
				return nil
			case stratum.RateLimitedMessage:
				sw.rateLimited.Inc()
				return nil
			default:
				return sw.protoError(s, "dup submit rejection", fmt.Errorf("%s", e.Error))
			}
		case stratum.TypeBanned:
			return errContained
		case stratum.TypeJob:
			// A tip push (TCP) or a stale re-issue riding an earlier reply;
			// irrelevant to the replay, but adopt it so validTurn-style state
			// stays coherent if the session is ever reused.
			if err := sw.adoptJob(s, env); err != nil {
				return err
			}
		case stratum.MethodKeepalive:
		default:
			return sw.protoError(s, "unexpected reply to dup submit", fmt.Errorf("type %q", env.Type))
		}
	}
}

// staleTurn is the stale flooder: it pockets its login job, waits out a
// tip refresh (thinkFor guarantees one per turn), then resubmits the
// dead job forever with fresh nonces. The server re-jobs the first few —
// the dialect's honest-stale answer — then must cut the loop with the
// named too-many-stale error and, as the flood continues, the ban.
func (sw *Swarm) staleTurn(s *minerSession) error {
	if !s.heldSet {
		s.heldJob, s.heldSet = s.job, true
		return nil // wait a turn: the next tip refresh kills the held job
	}
	s.flNonce++
	var junk [32]byte // content irrelevant: staleness is ruled on first
	junk[0], junk[1] = byte(s.idx), byte(s.flNonce)
	if err := s.sess.Submit(s.heldJob.ID, s.flNonce, junk); err != nil {
		return sw.protoError(s, "stale-flood submit write", err)
	}
	sawStaleErr := false
	for {
		env, err := s.sess.ReadEnvelope()
		if err != nil {
			return sw.protoError(s, "read after stale-flood submit", err)
		}
		switch env.Type {
		case stratum.TypeJob:
			// The re-issue (ws: the whole reply; TCP: the notification after
			// the stale error). Deliberately NOT adopted as the held job —
			// ignoring fresh work is the attack.
			if !s.tcp || sawStaleErr {
				return nil
			}
			// A tip push that overtook the response; keep reading.
		case stratum.TypeError:
			var e stratum.Error
			_ = env.Decode(&e)
			switch e.Error {
			case stratum.StaleJobMessage:
				sawStaleErr = true // the replacement notification follows
			case stratum.TooManyStaleMessage:
				sw.staleFloodErrs.Inc()
				return nil // error-only: the retry loop is cut, no re-job
			case stratum.RateLimitedMessage:
				sw.rateLimited.Inc()
				return nil
			default:
				return sw.protoError(s, "stale-flood rejection", fmt.Errorf("%s", e.Error))
			}
		case stratum.TypeBanned:
			return errContained
		case stratum.MethodKeepalive:
		default:
			return sw.protoError(s, "unexpected reply to stale-flood submit", fmt.Errorf("type %q", env.Type))
		}
	}
}

// diffTurn is the difficulty gamer: every submit claims a job ID whose
// -dN tier the session was never served. The server must answer with the
// unknown-job re-job shape — indistinguishable on the wire from honest
// confusion, which is the point — while scoring the forgery toward a
// ban. A hash_accepted here means forged-tier credit landed: the
// credit-scaling invariant is broken.
func (sw *Swarm) diffTurn(s *minerSession) error {
	forged := forgeJobID(s.job.ID)
	if forged == "" {
		// No vardiff tier in the ID — target isn't serving per-session
		// difficulty, so there is nothing to game; behave honestly.
		return sw.validTurn(s)
	}
	s.flNonce++
	var junk [32]byte
	junk[0], junk[1] = 0xd1, byte(s.flNonce)
	if err := s.sess.Submit(forged, s.flNonce, junk); err != nil {
		return sw.protoError(s, "diff-game submit write", err)
	}
	sawStaleErr := false
	for {
		env, err := s.sess.ReadEnvelope()
		if err != nil {
			return sw.protoError(s, "read after diff-game submit", err)
		}
		switch env.Type {
		case stratum.TypeHashAccepted:
			return sw.protoError(s, "forged-difficulty share credited", nil)
		case stratum.TypeJob:
			// The re-job shape. Adopt it: the forger tracks real work so its
			// next forgery stays one tier off whatever it is actually served.
			if err := sw.adoptJob(s, env); err != nil {
				return err
			}
			if !s.tcp || sawStaleErr {
				return nil
			}
		case stratum.TypeError:
			var e stratum.Error
			_ = env.Decode(&e)
			switch e.Error {
			case stratum.StaleJobMessage:
				sawStaleErr = true // TCP renders the re-job shape as stale + notify
			case stratum.RateLimitedMessage:
				sw.rateLimited.Inc()
				return nil
			default:
				return sw.protoError(s, "diff-game rejection", fmt.Errorf("%s", e.Error))
			}
		case stratum.TypeBanned:
			return errContained
		case stratum.MethodKeepalive:
		default:
			return sw.protoError(s, "unexpected reply to diff-game submit", fmt.Errorf("type %q", env.Type))
		}
	}
}

// forgeJobID rewrites a vardiff job ID's -dN difficulty suffix to a tier
// the session was never served (2N+1: never the current tier, never the
// one-retarget-grace tier, and odd so it cannot collide with the ×2
// retarget ladder). Empty when the ID carries no tier.
func forgeJobID(id string) string {
	i := strings.LastIndex(id, "-d")
	if i < 0 {
		return ""
	}
	n, err := strconv.ParseUint(id[i+2:], 10, 64)
	if err != nil || n == 0 {
		return ""
	}
	return id[:i+2] + strconv.FormatUint(n*2+1, 10)
}

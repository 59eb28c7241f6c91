package coinhive

import (
	"math"
	"time"

	"repro/internal/archive"
)

// This file is the per-session variable-difficulty retargeter. The paper's
// subject service handed every browser the same static target, but the
// population it served spanned phones to servers — a real pool (and any
// reproduction that wants honest hashrate accounting under hostile load)
// retargets each session toward a configured accepted-share cadence.
//
// The mechanism is deliberately minimal and allocation-light: each session
// keeps a ring of its last few accept timestamps; on every accept past the
// warm-up count the observed cadence is compared to the goal, and when the
// deviation exceeds a hysteresis band the difficulty is re-estimated as
//
//	ideal = current × observed / goal
//
// (the difficulty that would have produced the goal cadence at the
// session's implied hashrate), damped to at most ×vardiffMaxStep per step
// and clamped to [MinDifficulty, MaxDifficulty]. Credit always equals the
// difficulty actually served — it is encoded in the job ID (see makeJobID)
// — so TotalHashes/second stays an unbiased hashrate estimate across
// retargets: that is the credit-scaling invariant the tests pin.
//
// Difficulties are arbitrary integers, not powers of two: quantising to
// powers of two would park converged sessions up to √2 (~41%) away from
// the goal cadence, outside any useful convergence bound.

// VardiffConfig tunes per-session difficulty retargeting. The zero value
// disables it (TargetSharesPerMin == 0), preserving the static-difficulty
// behaviour. The cadence window is fixed (vardiffWindowShares and
// vardiffMinWindowShares); only the goal and the clamp are settable.
type VardiffConfig struct {
	// TargetSharesPerMin is the accepted-share cadence the retargeter
	// steers every ordinary session toward. 0 disables vardiff.
	TargetSharesPerMin float64
	// MinDifficulty / MaxDifficulty clamp every retarget. Defaults: 1 and
	// ShareDifficulty << 12. NewPool refuses a floor above the ceiling.
	MinDifficulty uint64
	MaxDifficulty uint64
}

const (
	// vardiffWindowShares is the size of the per-session accept-timestamp
	// ring cadence is measured over.
	vardiffWindowShares = 8
	// vardiffMinWindowShares is the warm-up: no retarget until the window
	// holds this many accepts since the last retarget. Short-lived
	// sessions below it never retarget. perMin measures the
	// oldest→newest span, so it must be at least 2: a one-sample window
	// has zero span and reads as +Inf cadence.
	vardiffMinWindowShares = 4
	// vardiffHysteresisPct is the dead band: observed cadence within ±this
	// percent of the goal is jitter, not signal.
	vardiffHysteresisPct = 30
	// vardiffMaxStep damps each retarget to at most ×/÷ this factor.
	vardiffMaxStep = 8
	// vardiffIdleGrace is the idle downstep trigger: a session silent for
	// this many goal share intervals has its difficulty halved on its next
	// keepalive (server-clocked dialects only — the ws dialect has no
	// unsolicited client traffic to evaluate on).
	vardiffIdleGrace = 4
)

// enabled reports whether vardiff is configured on.
func (c VardiffConfig) enabled() bool { return c.TargetSharesPerMin > 0 }

// fillDefaults completes an enabled config. shareDiff is the pool's
// static ShareDifficulty — the starting point every session retargets from.
func (c *VardiffConfig) fillDefaults(shareDiff uint64) {
	if !c.enabled() {
		return
	}
	if c.MinDifficulty == 0 {
		c.MinDifficulty = 1
	}
	if c.MaxDifficulty == 0 {
		c.MaxDifficulty = shareDiff << 12
		if c.MaxDifficulty < shareDiff { // shift overflow
			c.MaxDifficulty = math.MaxUint64
		}
	}
}

// clampDiff bounds a difficulty to the configured range.
func (c VardiffConfig) clampDiff(d uint64) uint64 {
	if d < c.MinDifficulty {
		return c.MinDifficulty
	}
	if d > c.MaxDifficulty {
		return c.MaxDifficulty
	}
	return d
}

// retarget computes the next difficulty for a session observed at
// observedPerMin accepted shares per minute while served cur. It returns
// (cur, false) inside the hysteresis band or when damping+clamping land
// back on cur. observedPerMin may be +Inf (all window samples share one
// timestamp — e.g. a replay burst, or a simulated clock that did not
// advance); the step cap turns that into the maximum upward step.
func (c VardiffConfig) retarget(cur uint64, observedPerMin float64) (uint64, bool) {
	if cur == 0 {
		cur = 1
	}
	band := c.TargetSharesPerMin * vardiffHysteresisPct / 100
	if observedPerMin >= c.TargetSharesPerMin-band && observedPerMin <= c.TargetSharesPerMin+band {
		return cur, false
	}
	fcur := float64(cur)
	ideal := fcur * (observedPerMin / c.TargetSharesPerMin)
	step := float64(vardiffMaxStep)
	if !(ideal <= fcur*step) { // also catches +Inf and NaN
		ideal = fcur * step
	}
	if ideal < fcur/step {
		ideal = fcur / step
	}
	next := c.clampDiff(roundDiff(ideal))
	if next == cur {
		return cur, false
	}
	return next, true
}

// roundDiff converts the ideal float difficulty to an integer without
// overflowing uint64 on huge intermediate values.
func roundDiff(f float64) uint64 {
	if f < 1 {
		return 1
	}
	if f >= math.MaxUint64/2 { // far beyond any sane MaxDifficulty
		return math.MaxUint64 / 2
	}
	return uint64(math.Round(f))
}

// vardiffWindow is the per-session ring of accept timestamps (unixnanos).
// Step-goroutine only — no locking.
type vardiffWindow struct {
	times []int64
	head  int // next write slot
	n     int // live samples
}

func (w *vardiffWindow) init(size int) {
	if cap(w.times) < size {
		w.times = make([]int64, size)
	}
	w.times = w.times[:size]
	w.head, w.n = 0, 0
}

func (w *vardiffWindow) add(t int64) {
	w.times[w.head] = t
	w.head = (w.head + 1) % len(w.times)
	if w.n < len(w.times) {
		w.n++
	}
}

func (w *vardiffWindow) reset() { w.head, w.n = 0, 0 }

// perMin returns the observed cadence in shares/min across the window:
// (n−1) intervals over the oldest→newest span. +Inf when the span is zero.
// Requires n ≥ 2.
func (w *vardiffWindow) perMin() float64 {
	oldest := w.times[(w.head-w.n+len(w.times))%len(w.times)]
	newest := w.times[(w.head-1+len(w.times))%len(w.times)]
	elapsed := newest - oldest
	if elapsed <= 0 {
		return math.Inf(1)
	}
	return float64(w.n-1) * float64(time.Minute) / float64(elapsed)
}

// vardiffAccept records an accepted share and evaluates a retarget. It
// returns the new difficulty and true when one fired (already applied to
// the session). Step-goroutine only.
func (ms *MinerSession) vardiffAccept(nowNs int64) (uint64, bool) {
	vd := &ms.eng.vardiff
	ms.lastAcceptNs = nowNs
	ms.vdWin.add(nowNs)
	if ms.vdWin.n < vardiffMinWindowShares {
		return 0, false
	}
	next, ok := vd.retarget(ms.curDiff.Load(), ms.vdWin.perMin())
	if !ok {
		return 0, false
	}
	ms.applyRetarget(next)
	return next, true
}

// vardiffIdle halves the difficulty of a session silent past the idle
// grace window — the sandbagging recovery path for server-clocked
// dialects, whose keepalives give the engine a clock to evaluate on even
// when no shares arrive. Repeated silence halves again each grace window
// (exponential descent to MinDifficulty).
func (ms *MinerSession) vardiffIdle(nowNs int64) (uint64, bool) {
	vd := &ms.eng.vardiff
	goalIntervalNs := int64(float64(time.Minute) / vd.TargetSharesPerMin)
	if nowNs-ms.lastAcceptNs < vardiffIdleGrace*goalIntervalNs {
		return 0, false
	}
	cur := ms.curDiff.Load()
	next := vd.clampDiff(cur / 2)
	if next == cur {
		return 0, false
	}
	ms.applyRetarget(next)
	ms.lastAcceptNs = nowNs // restart the grace window at the new tier
	return next, true
}

// applyRetarget swaps the served difficulty. The previous tier stays
// submittable (prevDiff) so an in-flight honest share crossing the
// retarget is not punished; the window resets so the next evaluation
// measures the new tier only — without the reset, samples from the old
// tier would bias the very next estimate away from the goal.
func (ms *MinerSession) applyRetarget(next uint64) {
	ms.prevDiff = ms.curDiff.Load()
	ms.curDiff.Store(next)
	ms.vdWin.reset()
	ms.eng.retargets.Inc()
	ms.eng.pool.archiveEvent(archive.Event{
		Kind:   archive.KindRetarget,
		Amount: next,
		Aux:    ms.prevDiff,
		Actor:  ms.siteKey,
	})
}

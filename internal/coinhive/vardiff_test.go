package coinhive

import (
	"math"
	"testing"
	"time"

	"repro/internal/blockchain"
)

// testVardiff is the canonical tuning the retarget tables run against:
// goal 240 shares/min, ±30% hysteresis, step cap ×/÷8, clamp [1, 4096].
func testVardiff() VardiffConfig {
	c := VardiffConfig{
		TargetSharesPerMin: 240,
		MinDifficulty:      1,
		MaxDifficulty:      4096,
	}
	c.fillDefaults(2)
	return c
}

func TestVardiffRetargetTable(t *testing.T) {
	c := testVardiff()
	cases := []struct {
		name     string
		cur      uint64
		observed float64 // accepted shares/min
		want     uint64
		fired    bool
	}{
		// A fast miner ramps up: cadence n× the goal means the difficulty
		// that would have hit the goal is n× the current one.
		{"ramp up 2x", 8, 480, 16, true},
		{"ramp up 4x", 2, 960, 8, true},
		// A sandbagging (or genuinely slow) session steps down.
		{"sandbag down 2x", 64, 120, 32, true},
		{"sandbag down 4x", 64, 60, 16, true},
		// The step cap damps violent swings to ×/÷8 per retarget.
		{"step cap up", 4, 240 * 100, 32, true},
		{"step cap down", 4096, 1, 512, true},
		// A zero-span window reads as +Inf cadence; the cap must turn
		// that into the max upward step, not NaN/overflow.
		{"infinite cadence capped", 4, math.Inf(1), 32, true},
		// Clamping: the ideal lands outside [Min, Max].
		{"clamp at max", 1024, 240 * 8, 4096, true},
		{"clamp at min", 2, 40, 1, true},
		// Hysteresis: within ±30% of the goal is jitter, not signal.
		{"dead band low edge", 100, 240 * 0.70, 100, false},
		{"dead band high edge", 100, 240 * 1.30, 100, false},
		{"dead band exact", 100, 240, 100, false},
		// Just outside the band the retarget fires.
		{"just below band", 100, 240 * 0.69, 69, true},
		{"just above band", 100, 240 * 1.31, 131, true},
		// Already pinned at a clamp edge: no-op retargets report false so
		// the session is not spammed with identical jobs.
		{"pinned at min", 1, 60, 1, false},
		{"pinned at max", 4096, 240 * 10, 4096, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, fired := c.retarget(tc.cur, tc.observed)
			if got != tc.want || fired != tc.fired {
				t.Errorf("retarget(%d, %.1f) = (%d, %v), want (%d, %v)",
					tc.cur, tc.observed, got, fired, tc.want, tc.fired)
			}
		})
	}
}

func TestVardiffWindowCadence(t *testing.T) {
	var w vardiffWindow
	w.init(4)
	base := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	sec := int64(time.Second)

	// Four accepts one second apart: 3 intervals over 3s = 60/min.
	for i := int64(0); i < 4; i++ {
		w.add(base + i*sec)
	}
	if got := w.perMin(); math.Abs(got-60) > 1e-9 {
		t.Errorf("perMin = %v, want 60", got)
	}

	// The ring keeps only the newest len(times) samples: two more
	// accepts evict the two oldest, and the cadence is measured over the
	// surviving span (2s..5s: 3 intervals over 3s).
	w.add(base + 4*sec)
	w.add(base + 5*sec)
	if w.n != 4 {
		t.Fatalf("window n = %d, want 4 (ring must saturate)", w.n)
	}
	if got := w.perMin(); math.Abs(got-60) > 1e-9 {
		t.Errorf("perMin after wrap = %v, want 60", got)
	}

	// A zero span (replay burst / frozen clock) is +Inf, never NaN.
	w.reset()
	for i := 0; i < 4; i++ {
		w.add(base)
	}
	if got := w.perMin(); !math.IsInf(got, 1) {
		t.Errorf("perMin over zero span = %v, want +Inf", got)
	}

	// reset empties the window without reallocating.
	w.reset()
	if w.n != 0 || w.head != 0 {
		t.Errorf("after reset: n=%d head=%d, want 0,0", w.n, w.head)
	}
}

func TestVardiffDefaults(t *testing.T) {
	var c VardiffConfig
	if c.enabled() {
		t.Fatal("zero config must be disabled")
	}
	c.TargetSharesPerMin = 240
	c.fillDefaults(256)
	if c.MinDifficulty != 1 || c.MaxDifficulty != 256<<12 {
		t.Errorf("clamp defaults = [%d, %d], want [1, %d]", c.MinDifficulty, c.MaxDifficulty, 256<<12)
	}

	// A huge ShareDifficulty must not overflow the MaxDifficulty shift.
	big := VardiffConfig{TargetSharesPerMin: 240}
	big.fillDefaults(1 << 60)
	if big.MaxDifficulty < 1<<60 {
		t.Errorf("MaxDifficulty overflowed to %d", big.MaxDifficulty)
	}
}

// TestNewPoolRejectsVardiffFloorAboveCeiling: a floor above the ceiling
// clamps every session to a tier resolve refuses, so each honest share
// would earn a re-job and no credit, forever. NewPool must refuse it,
// whether the ceiling was set or defaulted to ShareDifficulty << 12.
func TestNewPoolRejectsVardiffFloorAboveCeiling(t *testing.T) {
	chain, err := blockchain.NewChain(blockchain.SimParams(), 1_525_000_000, blockchain.AddressFromString("genesis"))
	if err != nil {
		t.Fatal(err)
	}
	for _, vd := range []VardiffConfig{
		{TargetSharesPerMin: 240, MinDifficulty: 64, MaxDifficulty: 16},
		{TargetSharesPerMin: 240, MinDifficulty: 4<<12 + 1},
	} {
		if _, err := NewPool(PoolConfig{Chain: chain, ShareDifficulty: 4, Vardiff: vd}); err == nil {
			t.Errorf("NewPool accepted vardiff clamp [%d, %d] at share difficulty 4", vd.MinDifficulty, vd.MaxDifficulty)
		}
	}
	oneTier := VardiffConfig{TargetSharesPerMin: 240, MinDifficulty: 16, MaxDifficulty: 16}
	if _, err := NewPool(PoolConfig{Chain: chain, ShareDifficulty: 4, Vardiff: oneTier}); err != nil {
		t.Errorf("a one-tier clamp is valid: %v", err)
	}
}

package webminer

import (
	"repro/internal/cryptonight"
	"repro/internal/parallel"
)

// Task is one mining session for a Fleet worker: the same knobs as Client,
// minus the per-fleet ones (variant, hash budget, worker count).
type Task struct {
	URL       string
	SiteKey   string
	LinkID    string
	CaptchaID string
	// WantShares is passed to Client.Mine; ignored for link/captcha
	// sessions, which end when the goal is reached.
	WantShares int
}

// TaskResult pairs a task's index with its session outcome.
type TaskResult struct {
	Result Result
	Err    error
}

// Fleet drives many mining sessions concurrently from a bounded worker
// pool — the shape of the paper's resolver, which mined "multiple short
// links in parallel" against the pool's 32 endpoints. Each worker owns its
// sessions end to end, so a fleet of N workers keeps N CryptoNight
// scratchpads hot on N cores.
type Fleet struct {
	// Variant must match the pool chain's PoW profile.
	Variant cryptonight.Variant
	// Workers bounds concurrent sessions (0 = GOMAXPROCS).
	Workers int
	// MaxHashesPerJob is forwarded to each Client (0 = Client default).
	MaxHashesPerJob int
}

// Run mines every task and returns the outcomes in task order.
func (f *Fleet) Run(tasks []Task) []TaskResult {
	results := make([]TaskResult, len(tasks))
	parallel.ForEach(len(tasks), f.Workers, func(_, i int) {
		t := tasks[i]
		c := &Client{
			URL:             t.URL,
			SiteKey:         t.SiteKey,
			LinkID:          t.LinkID,
			CaptchaID:       t.CaptchaID,
			Variant:         f.Variant,
			MaxHashesPerJob: f.MaxHashesPerJob,
		}
		r, err := c.Mine(t.WantShares)
		results[i] = TaskResult{Result: r, Err: err}
	})
	return results
}

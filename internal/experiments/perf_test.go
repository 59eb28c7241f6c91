package experiments_test

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/poolwatch"
)

// BenchmarkFig5Day runs one simulated day of the Figure 5 observation
// campaign — network, pool, and watcher — per iteration. It is the
// end-to-end number the hash-core and event-loop optimisations target, and
// is cheap enough to stay -short-safe.
func BenchmarkFig5Day(b *testing.B) {
	start := time.Date(2018, 4, 26, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := experiments.NewWorld(start.Add(-3*time.Hour), experiments.PoolHashRate,
			experiments.NetworkHashRate, experiments.CoinhiveActivity, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		watcher := poolwatch.New(poolwatch.Config{Source: w.Net, Chain: w.Chain})
		w.Net.Start()
		stop := watcher.Run(w.Sim, 2*time.Second)
		w.Sim.RunUntil(start)
		w.Sim.RunFor(24 * time.Hour)
		stop()
		watcher.Sweep()
		if len(watcher.Attributed()) == 0 {
			b.Fatal("one simulated day attributed no blocks")
		}
	}
}

// Package parallel provides the bounded worker-pool primitive shared by
// the miner fleet, the experiment ensemble runners and the zone scans
// (crawler.Scan, browser.Crawl).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach invokes fn(w, i) for every i in [0, n), running at most workers
// calls concurrently (workers < 1 means GOMAXPROCS). It returns once all
// calls have finished. Results travel through whatever fn captures; with
// one writer per index, no extra synchronisation is needed.
//
// w numbers the goroutine making the call, in [0, min(workers, n)): calls
// with the same w run one after another, never at once, so fn may keep
// per-worker state (the zone scans' page buffers) in a slice indexed by w
// and reuse it from call to call without a lock.
//
// Workers claim indices, in order, by bumping a shared counter. Handing each
// index over an unbuffered channel instead costs a goroutine switch per call
// and, whenever a P goes idle in between, a futex sleep and wake: at ~15 µs
// of work per call (one site of a zone scan) that was 40% of the wall time,
// and the part of the cost that rose and fell with the machine's other load.
func ForEach(n, workers int, fn func(w, i int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

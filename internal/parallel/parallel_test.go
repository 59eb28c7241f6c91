package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var counts [n]atomic.Int32
		ForEach(n, workers, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(0, 4, func(_, _ int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int32
	ForEach(50, 4, func(_, _ int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > 4 {
		t.Errorf("peak concurrency %d exceeds 4 workers", p)
	}
}

func TestForEachOneWorkerRunsInOrder(t *testing.T) {
	var got []int
	ForEach(50, 1, func(_, i int) { got = append(got, i) })
	if len(got) != 50 {
		t.Fatalf("visited %d indices, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("call %d got index %d", i, v)
		}
	}
}

// TestForEachWorkerNumbersAreExclusive holds the contract per-worker state
// rests on: w lies in [0, min(workers, n)) and no two calls with the same
// w overlap.
func TestForEachWorkerNumbersAreExclusive(t *testing.T) {
	for _, c := range []struct{ n, workers, want int }{{200, 4, 4}, {3, 8, 3}} {
		busy := make([]atomic.Int32, c.want)
		var bad atomic.Int32
		ForEach(c.n, c.workers, func(w, _ int) {
			if w < 0 || w >= c.want {
				bad.Add(1)
				return
			}
			if busy[w].Add(1) != 1 {
				bad.Add(1)
			}
			for j := 0; j < 100; j++ {
				runtime.Gosched()
			}
			busy[w].Add(-1)
		})
		if n := bad.Load(); n != 0 {
			t.Errorf("n=%d workers=%d: %d calls out of range or overlapping on their w", c.n, c.workers, n)
		}
	}
}

package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var counts [n]atomic.Int32
		ForEach(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int32
	ForEach(50, 4, func(int) {
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
	ForEach(50, 1, func(i int) { got = append(got, i) })
	if len(got) != 50 {
		t.Fatalf("visited %d indices, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("call %d got index %d", i, v)
		}
	}
}

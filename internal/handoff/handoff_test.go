package handoff

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// returns fails the test if f has not returned within a few seconds: the
// way a call that must not block is told from one that does.
func returns(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked", what)
	}
}

func TestFullQueueDropsAndCountsWithoutBlocking(t *testing.T) {
	var drops metrics.Counter
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []int
	q := New(4, &drops, func(v int) error {
		<-gate // a wedged consumer: the first item never finishes
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
		return nil
	}, nil)
	taken := 0
	returns(t, "Offer on a full queue", func() {
		for i := 0; i < 64; i++ {
			if q.Offer(i) {
				taken++
			}
		}
	})
	// The handler holds at most one item and the channel four.
	if taken < 4 || taken > 5 {
		t.Errorf("wedged queue of depth 4 took %d items, want 4 or 5", taken)
	}
	if n := drops.Load(); n != uint64(64-taken) {
		t.Errorf("counted %d drops, want %d", n, 64-taken)
	}
	close(gate)
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != taken {
		t.Fatalf("handled %d items, want the %d taken", len(got), taken)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("handled %v, want offer order", got)
		}
	}
}

func TestFlushCoversEverythingOfferedBefore(t *testing.T) {
	var drops metrics.Counter
	var handled, idleSaw int // drain goroutine only; read after Flush/Close
	q := New(1024, &drops, func(int) error { handled++; return nil }, func() { idleSaw = handled })
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q.Offer(i)
			}
		}()
	}
	wg.Wait()
	q.Flush()
	// Flush is a barrier, so these reads are ordered after the drain's
	// writes; the race detector checks that claim.
	if handled != 400 || idleSaw != 400 {
		t.Fatalf("after Flush: handled %d, idle saw %d, want 400 and 400", handled, idleSaw)
	}
	q.Flush() // nothing queued: returns, idle runs again
	q.Close()
	if drops.Load() != 0 {
		t.Errorf("%d drops on a queue that never filled", drops.Load())
	}
}

func TestCloseDrainsThenStops(t *testing.T) {
	var drops metrics.Counter
	release := make(chan struct{})
	handled, idles := 0, 0
	q := New(16, &drops, func(int) error { <-release; handled++; return nil }, func() { idles++ })
	for i := 0; i < 10; i++ {
		q.Offer(i)
	}
	close(release)
	q.Close()
	if handled != 10 || idles == 0 {
		t.Fatalf("Close returned with %d of 10 items handled, idle run %d times", handled, idles)
	}
	returns(t, "second Close", q.Close)
	returns(t, "Flush after Close", q.Flush)
	// The drain goroutine is gone: offers fill the channel, then drop,
	// and nothing more is handled.
	returns(t, "Offer after Close", func() {
		for i := 0; i < 32; i++ {
			q.Offer(i)
		}
	})
	if handled != 10 || drops.Load() != 16 {
		t.Errorf("after Close: handled %d (want 10), drops %d (want 16)", handled, drops.Load())
	}
}

func TestHandlerErrorStopsTheDrain(t *testing.T) {
	var drops metrics.Counter
	dead := errors.New("dead socket")
	release := make(chan struct{})
	handled, idles := 0, 0
	q := New(16, &drops, func(v int) error {
		<-release
		if v == 3 {
			return dead
		}
		handled++
		return nil
	}, func() { idles++ })
	for i := 0; i < 10; i++ {
		q.Offer(i)
	}
	close(release)
	returns(t, "Flush on a drain that ends mid-way", q.Flush)
	returns(t, "Close on an ended drain", q.Close)
	if handled != 3 {
		t.Errorf("handled %d items, want the 3 before the error", handled)
	}
	if idles != 0 {
		t.Errorf("idle ran %d times on a drain that never emptied the queue", idles)
	}
}

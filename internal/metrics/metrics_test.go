package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestGaugePeak(t *testing.T) {
	var g Gauge
	g.add(3)
	g.add(4)
	g.add(-5)
	if got := g.Load(); got != 2 {
		t.Fatalf("Load = %d, want 2", got)
	}
	if got := g.peak.Load(); got != 7 {
		t.Fatalf("Peak = %d, want 7", got)
	}
	g.Set(100)
	g.Set(1)
	if got, peak := g.Load(), g.peak.Load(); got != 1 || peak != 100 {
		t.Fatalf("after Set: Load=%d Peak=%d, want 1/100", got, peak)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 99 fast observations, one slow outlier.
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(50 * time.Millisecond)
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if s.max != 50*time.Millisecond {
		t.Fatalf("Max = %s, want 50ms", s.max)
	}
	// Log2 buckets: the reported quantile is the bucket upper bound, so it
	// must bracket the true value within a factor of 2.
	if s.P50 < 100*time.Microsecond || s.P50 > 200*time.Microsecond {
		t.Fatalf("P50 = %s, want within [100µs, 200µs]", s.P50)
	}
	if s.P99 < 100*time.Microsecond || s.P99 > 200*time.Microsecond {
		t.Fatalf("P99 = %s, want within [100µs, 200µs] (99th of 100 is still fast)", s.P99)
	}
	if mean := s.mean(); mean < 500*time.Microsecond || mean > 700*time.Microsecond {
		t.Fatalf("Mean = %s, want ≈599µs", mean)
	}
}

func TestHistogramOutlierDominatesP99(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 50; i++ {
		h.Observe(8 * time.Millisecond)
	}
	s := h.snapshot()
	if s.P99 < 8*time.Millisecond {
		t.Fatalf("P99 = %s, want ≥ 8ms", s.P99)
	}
	if s.P99 > s.max {
		t.Fatalf("P99 = %s exceeds Max = %s", s.P99, s.max)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second)
	s := h.snapshot()
	if s.Count != 2 || s.Sum != 0 || s.max != 0 || s.P99 != 0 {
		t.Fatalf("zero/negative snapshot = %+v", s)
	}
}

// TestRecordPathAllocs pins the whole record path at zero allocations —
// the property that lets the pool keep these instruments on its
// per-share path without showing up in its own benchmarks.
func TestRecordPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(100, func() { c.Add(1); c.Inc() }); n != 0 {
		t.Errorf("Counter.Add/Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.add(1); g.add(-1); g.Set(3) }); n != 0 {
		t.Errorf("Gauge.add/Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(123 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}

func TestRegistryIdempotentAndKindSafe(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("re-registering a counter must return the same instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge should panic")
		}
	}()
	r.Gauge("x")
}

func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("pool.shares_ok").Add(7)
	r.Gauge("server.sessions").add(3)
	r.Histogram("server.submit_ns").Observe(time.Millisecond)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pool.shares_ok counter 7",
		"server.sessions gauge 3 peak=3",
		"server.submit_ns histogram count=1",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text exposition missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	if err := json.Unmarshal(js.Bytes(), &snaps); err != nil {
		t.Fatalf("JSON exposition does not parse: %v", err)
	}
	if len(snaps) != 3 || snaps[0].Name != "pool.shares_ok" || snaps[0].Value != 7 {
		t.Fatalf("JSON snapshots = %+v", snaps)
	}
	if snaps[2].Kind != "histogram" || snaps[2].Count != 1 || snaps[2].MaxNs != int64(time.Millisecond) {
		t.Fatalf("histogram snapshot = %+v", snaps[2])
	}
}

// TestConcurrentWriters exercises the instruments under the race
// detector; the count invariants double as a correctness check on a
// 1-CPU box where interleaving is scheduler-driven.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
				g.Dec()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Load(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if s := h.snapshot(); s.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*per)
	}
}

// Package metrics is the repo's measurement plane: atomic counters,
// gauges and log-bucketed latency histograms behind a named registry
// with text and JSON exposition.
//
// The paper's scale claims (§4: hundreds of thousands of concurrent
// miners on 32 endpoints) are only reproducible if the live service can
// be measured while under load, so the record path is designed to cost
// nothing worth measuring: every instrument is a fixed set of atomics,
// zero allocations per Add/Set/Observe (pinned by AllocsPerRun in the
// tests), and safe for any number of concurrent writers.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
//
//lint:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//lint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (live sessions, queue depth). It also
// tracks the high-water mark, which is what scale assertions care about:
// "N concurrent sessions" is a statement about the gauge's peak, not its
// value at snapshot time.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// add moves the gauge by delta and updates the peak.
//
//lint:hotpath
func (g *Gauge) add(delta int64) int64 {
	now := g.v.Add(delta)
	for {
		p := g.peak.Load()
		if now <= p || g.peak.CompareAndSwap(p, now) {
			return now
		}
	}
}

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.add(-1) }

// Set forces the gauge to v (peak still tracks).
//
//lint:hotpath
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of log2 duration buckets: bucket i holds
// observations whose nanosecond count has bit-length i, covering the
// whole positive time.Duration range (1 ns up to ~292 years). Factor-2
// resolution is exactly what a latency trajectory needs: p99 moving from
// one bucket to the next is a real regression, anything finer is noise on
// a shared CI box.
const histBuckets = 64

// Histogram is a log-bucketed duration histogram.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
//
//lint:hotpath
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
	b := bits.Len64(ns)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// HistSnapshot is a consistent-enough view of a histogram: buckets are
// read one atomic at a time, so a snapshot taken during writes may be off
// by in-flight observations — fine for exposition, meaningless for audit.
type HistSnapshot struct {
	Count uint64
	Sum   time.Duration
	max   time.Duration
	P50   time.Duration
	P99   time.Duration
}

// mean returns the arithmetic mean of the recorded durations.
func (s HistSnapshot) mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// snapshot computes count/sum/max and the quantiles from the buckets.
// Quantile values are the upper bound of the containing bucket (2^i ns),
// so reported percentiles are conservative: the true value is ≤ reported.
func (h *Histogram) snapshot() HistSnapshot {
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		max:   time.Duration(h.max.Load()),
	}
	if total == 0 {
		return s
	}
	s.P50 = bucketQuantile(&counts, total, 50)
	s.P99 = bucketQuantile(&counts, total, 99)
	if s.P99 > s.max && s.max > 0 {
		s.P99 = s.max // upper-bound estimate cannot exceed the observed max
	}
	if s.P50 > s.P99 {
		s.P50 = s.P99
	}
	return s
}

// HistCursor marks a point in a histogram's life, so a caller can
// compute quantiles over just the observations recorded after it —
// per-phase percentiles from one cumulative instrument.
type HistCursor struct {
	count   uint64
	sum     uint64
	buckets [histBuckets]uint64
}

// Cursor captures the histogram's current state.
func (h *Histogram) Cursor() HistCursor {
	var c HistCursor
	c.count = h.count.Load()
	c.sum = h.sum.Load()
	for i := range c.buckets {
		c.buckets[i] = h.buckets[i].Load()
	}
	return c
}

// SnapshotSince computes a snapshot of the observations recorded after
// the cursor was captured from this same histogram. max is not tracked
// per-interval, so the returned max is zero; quantiles are the usual
// conservative bucket upper bounds.
func (h *Histogram) SnapshotSince(prev HistCursor) HistSnapshot {
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load() - prev.buckets[i]
		total += counts[i]
	}
	s := HistSnapshot{
		Count: h.count.Load() - prev.count,
		Sum:   time.Duration(h.sum.Load() - prev.sum),
	}
	if total == 0 {
		return s
	}
	s.P50 = bucketQuantile(&counts, total, 50)
	s.P99 = bucketQuantile(&counts, total, 99)
	if s.P50 > s.P99 {
		s.P50 = s.P99
	}
	return s
}

// bucketQuantile returns the upper bound of the first bucket whose
// cumulative count reaches pct percent of total.
func bucketQuantile(counts *[histBuckets]uint64, total uint64, pct uint64) time.Duration {
	// rank is ceil(total*pct/100), at least 1.
	rank := (total*pct + 99) / 100
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			switch {
			case i == 0:
				return 0
			case i >= 63:
				// 1<<63 overflows int64; the caller clamps to the observed
				// max anyway.
				return time.Duration(math.MaxInt64)
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return time.Duration(math.MaxInt64)
}

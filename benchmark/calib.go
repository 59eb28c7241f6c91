package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on is a 2-vCPU guest whose neighbours
// slow its memory hierarchy in episodes: within minutes the same binary
// on the same seed reads 34k and 24k domains/s, while a register-only
// loop changes by 4%. What does move with the workloads is a loop of
// dependent loads from a table that just misses L1 — over 22 s spans it
// tracked CryptoNight hashing and the zone pipeline with r = 0.99 and
// 0.98 at slope 1 (README, "Box speed"). So every run carries its own
// measurement of how fast the box was: the calibrator below runs that
// loop for about a millisecond every 25 ms for the whole life of the
// process, timed on its own thread's CPU clock so that waiting for a
// core does not count, and the time-based metrics are stated in
// reference seconds: measured seconds times the box's speed over the
// very interval they were measured in, relative to nominalSpeed.

const (
	calPeriod = 25 * time.Millisecond
	calIters  = 400_000
	calTable  = 8192 // uint64 entries: 64 KiB
	// nominalSpeed is the calibration loop's rate, in iterations per
	// nanosecond of thread CPU time, on the development box at its calm:
	// a box speed of 1.0 means "as fast as that".
	nominalSpeed = 0.300
)

// calSample is one burst: when it ended on the run clock, and how much
// thread CPU time its calIters iterations took.
type calSample struct {
	at    int64
	cpuNs int64
}

type calibrator struct {
	quit chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []calSample
}

var calSink uint64 // keeps the loop's result alive

func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

func startCalibrator() *calibrator {
	c := &calibrator{quit: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

func (c *calibrator) loop() {
	defer close(c.done)
	// The thread CPU clock belongs to a thread: stay on one.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	table := make([]uint64, calTable)
	for i := range table {
		table[i] = splitmix(uint64(i))
	}
	tick := time.NewTicker(calPeriod)
	defer tick.Stop()
	x := uint64(1)
	for {
		select {
		case <-c.quit:
			calSink += x
			return
		case <-tick.C:
		}
		c0 := threadCPU()
		for k := uint64(0); k < calIters; k++ {
			x = table[x&(calTable-1)] ^ (x>>7 | x<<57) + k
		}
		cpu := threadCPU() - c0
		if cpu <= 0 {
			continue
		}
		c.mu.Lock()
		c.samples = append(c.samples, calSample{now(), cpu})
		c.mu.Unlock()
	}
}

func (c *calibrator) stop() {
	close(c.quit)
	<-c.done
}

// between reports the box's speed over [t0, t1] on the run clock,
// relative to nominalSpeed, as the mean over the bursts that ended in
// the interval, and the CPU time those bursts cost (which is the
// harness's, not the workload's). An interval too short to hold a burst
// takes the nearest one; with no burst at all the box counts as nominal.
func (c *calibrator) between(t0, t1 int64) (speed float64, cpu time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		sum     float64
		n       int
		nearest *calSample
	)
	for i := range c.samples {
		s := &c.samples[i]
		if s.at >= t0 && s.at <= t1 {
			sum += calIters / float64(s.cpuNs)
			cpu += time.Duration(s.cpuNs)
			n++
		} else if nearest == nil || abs(s.at-t0) < abs(nearest.at-t0) {
			nearest = s
		}
	}
	switch {
	case n > 0:
		return sum / float64(n) / nominalSpeed, cpu
	case nearest != nil:
		return calIters / float64(nearest.cpuNs) / nominalSpeed, 0
	}
	return 1, 0
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

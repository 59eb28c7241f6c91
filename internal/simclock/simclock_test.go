package simclock

import (
	"testing"
	"time"
)

var t0 = time.Date(2018, 4, 26, 0, 0, 0, 0, time.UTC)

func TestEventsRunInTimestampOrder(t *testing.T) {
	s := New(t0)
	var got []int
	s.ScheduleAfter(3*time.Second, func() { got = append(got, 3) })
	s.ScheduleAfter(1*time.Second, func() { got = append(got, 1) })
	s.ScheduleAfter(2*time.Second, func() { got = append(got, 2) })
	if n := s.RunFor(10 * time.Second); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	s := New(t0)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(t0.Add(time.Minute), func() { got = append(got, i) })
	}
	s.RunFor(2 * time.Minute)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := New(t0)
	var at time.Time
	s.ScheduleAfter(90*time.Second, func() { at = s.Now() })
	s.RunFor(5 * time.Minute)
	if !at.Equal(t0.Add(90 * time.Second)) {
		t.Errorf("handler saw Now = %v, want %v", at, t0.Add(90*time.Second))
	}
	if !s.Now().Equal(t0.Add(5 * time.Minute)) {
		t.Errorf("final Now = %v, want limit", s.Now())
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	s := New(t0)
	ran := false
	s.ScheduleAfter(time.Hour, func() { ran = true })
	s.RunFor(time.Minute)
	if ran {
		t.Error("event beyond limit was executed")
	}
	if len(s.evts) != 1 {
		t.Errorf("%d events queued, want 1", len(s.evts))
	}
	s.RunFor(time.Hour)
	if !ran {
		t.Error("event not executed after advancing far enough")
	}
}

func TestHandlersMayScheduleMoreEvents(t *testing.T) {
	s := New(t0)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 10 {
			s.ScheduleAfter(time.Second, chain)
		}
	}
	s.ScheduleAfter(time.Second, chain)
	s.RunFor(time.Minute)
	if count != 10 {
		t.Errorf("chained events ran %d times, want 10", count)
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	s := New(t0)
	s.RunFor(time.Hour)
	ran := false
	s.Schedule(t0, func() { ran = true }) // in the past now
	s.RunFor(0)
	if !ran {
		t.Error("past-scheduled event did not run immediately")
	}
}

// The de-boxed event heap must not allocate per event at steady state: a
// schedule/pop cycle with a prebuilt handler reuses the heap's backing
// array (the seed's container/heap version boxed every event).
func TestSchedulePopCycleAllocatesNothing(t *testing.T) {
	s := New(t0)
	fn := func() {}
	// Grow the backing array to steady-state capacity first.
	for i := 0; i < 64; i++ {
		s.ScheduleAfter(time.Duration(i)*time.Millisecond, fn)
	}
	s.RunFor(time.Second)
	avg := testing.AllocsPerRun(500, func() {
		s.ScheduleAfter(time.Millisecond, fn)
		s.RunFor(2 * time.Millisecond)
	})
	if avg != 0 {
		t.Errorf("schedule/pop cycle: %.1f allocs/op, want 0", avg)
	}
}

func TestRealClockTicks(t *testing.T) {
	c := Real()
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Error("real clock went backwards")
	}
}

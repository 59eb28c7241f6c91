package simclock_test

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

// BenchmarkSchedulePop measures one schedule/pop cycle on the de-boxed
// event heap with a prebuilt handler — allocation-free at steady state.
func BenchmarkSchedulePop(b *testing.B) {
	s := simclock.New(time.Date(2018, 4, 26, 0, 0, 0, 0, time.UTC))
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ScheduleAfter(time.Millisecond, fn)
		s.RunFor(2 * time.Millisecond)
	}
}

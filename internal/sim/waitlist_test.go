package sim

import (
	"testing"
	"time"
)

// TestWaitListParkAndWakeAllocateNothing: once the clock has warmed its
// event records, a park and a wake, timed or not, allocate nothing.
func TestWaitListParkAndWakeAllocateNothing(t *testing.T) {
	for _, timed := range []bool{false, true} {
		c := NewClock()
		l := NewWaitList(c, nil)
		var allocs float64
		done := false
		c.Go("waiter", func() {
			defer func() { done = true }()
			allocs = testing.AllocsPerRun(200, func() {
				var deadline time.Duration
				if timed {
					deadline = c.Now() + time.Millisecond
				}
				if !l.Wait(false, deadline) {
					t.Error("wait timed out")
				}
			})
		})
		c.Go("waker", func() {
			for !done {
				c.Sleep(time.Microsecond)
				l.Wake()
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("timed=%v: %v allocs per park + wake, want 0", timed, allocs)
		}
	}
}

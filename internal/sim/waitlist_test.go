package sim

import (
	"slices"
	"testing"
	"time"
)

// TestWaitListSkipsWaiterKilledWhileParked: a waiter killed while parked
// leaves the list as it unwinds, so the next wake goes to the one behind it
// and it runs nothing after its wait.
func TestWaitListSkipsWaiterKilledWhileParked(t *testing.T) {
	c := NewClock()
	l := NewWaitList(c, nil)
	var got []string
	a := c.Go("a", func() {
		l.Wait(false, 0)
		got = append(got, "a")
	})
	c.Go("b", func() {
		l.Wait(false, 0)
		got = append(got, "b")
	})
	c.Go("script", func() {
		c.Sleep(time.Millisecond)
		c.Kill(a)
		c.Sleep(time.Millisecond)
		if n := l.Len(); n != 1 {
			t.Errorf("%d waiters after the kill unwound, want 1", n)
		}
		l.Wake()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"b"}; !slices.Equal(got, want) {
		t.Fatalf("woken %v, want %v", got, want)
	}
}

// TestWaitListDeadline: a timed wait that no wake reaches returns false at
// exactly its deadline and leaves the list; one woken first returns true at
// its wake, and its deadline never fires into a later sleep.
func TestWaitListDeadline(t *testing.T) {
	c := NewClock()
	l := NewWaitList(c, nil)
	c.Go("late", func() {
		if l.Wait(false, 5*time.Millisecond) {
			t.Error("a wait nobody woke returned true")
		}
		if now := c.Now(); now != 5*time.Millisecond {
			t.Errorf("deadline returned at %v, want 5ms", now)
		}
		if l.Len() != 0 {
			t.Error("a timed-out waiter stayed listed")
		}
		if l.Wait(false, c.Now()) {
			t.Error("a wait past its deadline parked")
		}
	})
	c.Go("early", func() {
		c.Sleep(10 * time.Millisecond)
		if !l.Wait(false, 30*time.Millisecond) {
			t.Error("a woken timed wait returned false")
		}
		if now := c.Now(); now != 12*time.Millisecond {
			t.Errorf("woken at %v, want 12ms", now)
		}
		c.Sleep(40 * time.Millisecond)
		if now := c.Now(); now != 52*time.Millisecond {
			t.Errorf("the cancelled deadline cut a later sleep short: %v, want 52ms", now)
		}
	})
	c.Go("waker", func() {
		c.Sleep(12 * time.Millisecond)
		l.Wake()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

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

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

// slots is a transfer budget on a wait list, the way the cluster's handoff
// coordinator uses one: a release hands its slot to the head waiter with the
// wake, or frees it when nobody waits.
type slots struct {
	l      *WaitList
	free   int
	queued int
}

func newSlots(c *Clock, n int) *slots {
	s := &slots{free: n}
	s.l = NewWaitList(c, func() { s.free++ })
	return s
}

func (s *slots) acquire() (release func()) {
	released := false
	release = func() {
		if !released {
			released = true
			if !s.l.Wake() {
				s.free++
			}
		}
	}
	if s.free > 0 {
		s.free--
		return release
	}
	s.queued++
	s.l.Wait(false, 0)
	return release
}

// TestTransferSlotKillPaths scripts the three ways a kill can meet a
// one-slot budget: the holder is killed mid-transfer (its deferred release
// must pass the slot on), a queued waiter is killed while parked (the
// release must skip it), and both in one run. A leaked slot parks every
// later acquirer forever and the run deadlocks.
func TestTransferSlotKillPaths(t *testing.T) {
	clock := NewClock()
	s := newSlots(clock, 1)
	var log []string
	use := func(name string, hold time.Duration) func() {
		return func() {
			release := s.acquire()
			defer release()
			log = append(log, name)
			clock.Sleep(hold)
		}
	}
	a := clock.Go("a", use("a", 10*time.Millisecond))
	clock.Go("script", func() {
		clock.Sleep(time.Millisecond)
		b := clock.Go("b", use("b", 10*time.Millisecond))
		clock.Sleep(time.Millisecond)
		clock.Go("c", use("c", 2*time.Millisecond))
		clock.Sleep(time.Millisecond)
		clock.Kill(b) // t=3ms: waiter b dies while parked
		clock.Sleep(time.Millisecond)
		clock.Kill(a) // t=4ms: holder a dies mid-transfer; c gets the slot
		clock.Sleep(10 * time.Millisecond)
		clock.Go("d", use("d", time.Millisecond)) // t=14ms: the slot is free
	})
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v (a leaked transfer slot deadlocks the clock)", err)
	}
	if want := []string{"a", "c", "d"}; !slices.Equal(log, want) {
		t.Fatalf("acquisition order = %v, want %v", log, want)
	}
	if s.free != 1 || s.l.Len() != 0 || s.queued != 2 {
		t.Fatalf("after the drain: %d free, %d waiting, %d queued; want 1, 0, 2", s.free, s.l.Len(), s.queued)
	}
}

// TestTransferSlotGrantedThenKilled: the head waiter is handed the slot by a
// releasing holder and killed at the same instant, before it wakes. Its
// unwind owns the slot and must free it.
func TestTransferSlotGrantedThenKilled(t *testing.T) {
	clock := NewClock()
	s := newSlots(clock, 1)
	var order []string
	use := func(name string, hold time.Duration) func() {
		return func() {
			release := s.acquire()
			defer release()
			order = append(order, name)
			clock.Sleep(hold)
		}
	}
	clock.Go("a", use("a", 10*time.Millisecond))
	clock.Go("script", func() {
		clock.Sleep(time.Millisecond)
		b := clock.Go("b", use("b", 10*time.Millisecond))
		// At 10ms a wakes first (older event), releases and hands b the slot;
		// this kill lands before b's wake dispatches.
		clock.Sleep(9 * time.Millisecond)
		clock.Kill(b)
		clock.Sleep(time.Millisecond)
		clock.Go("d", use("d", time.Millisecond))
	})
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []string{"a", "d"}; !slices.Equal(order, want) {
		t.Fatalf("acquisition order = %v, want %v", order, want)
	}
	if s.free != 1 || s.l.Len() != 0 {
		t.Fatalf("budget: %d free, %d waiting; want 1, 0", s.free, s.l.Len())
	}
}

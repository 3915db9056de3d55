package sim

import (
	"testing"
	"time"

	"pie/api"
)

// TestReceiverLosesNoMessageToAny: api.Any over a receive and a timer that
// fires first takes no message, so the next receive gets the message the
// race did not wait for; a receiver that wins takes exactly its message.
// An eager future would have taken the first message into the losing arm.
func TestReceiverLosesNoMessageToAny(t *testing.T) {
	c := NewClock()
	m := NewMailbox[int](c)
	c.Go("client", func() {
		timer := NewFuture[int](c)
		c.After(time.Millisecond, func() { timer.Resolve(-1) })
		if v, err := api.Any[int](m.Receiver(), timer).Get(); err != nil || v != -1 {
			t.Errorf("Any = %d, %v; want the timer's -1", v, err)
		}
		if v, err := m.Recv(); err != nil || v != 1 {
			t.Errorf("the receive after a lost race got %d, %v; want 1", v, err)
		}
		late := NewFuture[int](c)
		c.After(time.Hour, func() { late.Resolve(-1) })
		if v, err := api.Any[int](m.Receiver(), late).Get(); err != nil || v != 2 {
			t.Errorf("Any = %d, %v; want the message 2", v, err)
		}
		if _, ok := m.TryRecv(); ok {
			t.Error("a won race left a message queued")
		}
	})
	c.Go("sender", func() {
		c.Sleep(2 * time.Millisecond)
		m.Send(1)
		c.Sleep(time.Millisecond)
		m.Send(2)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxRecvAllocatesNothing: a receive that parks and the Send that
// wakes it allocate nothing once the mailbox has parked a receiver before.
func TestMailboxRecvAllocatesNothing(t *testing.T) {
	c := NewClock()
	ping, pong := NewMailbox[int](c), NewMailbox[int](c)
	allocs := -1.0
	c.Go("ping", func() {
		round := func() {
			ping.Send(1)
			pong.Recv()
		}
		round()
		allocs = testing.AllocsPerRun(100, round)
		ping.Close()
	})
	c.Go("pong", func() {
		for {
			v, err := ping.Recv()
			if err != nil {
				return
			}
			pong.Send(v)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a send and a parked receive make %v allocations, want 0", allocs)
	}
}

// TestFreshMailboxFirstRecvAllocatesNothing: a mailbox's first receive
// that parks allocates nothing: the wait list holds its first waiter inline
// and its owner without a method value. (Each mailbox has queued and taken
// one message before, so the Send that wakes it has its message array.)
func TestFreshMailboxFirstRecvAllocatesNothing(t *testing.T) {
	c := NewClock()
	const runs = 50
	boxes := make([]*Mailbox[int], runs+1)
	for i := range boxes {
		boxes[i] = NewMailbox[int](c)
		boxes[i].Send(0)
		boxes[i].TryRecv()
	}
	acks := NewMailbox[int](c)
	allocs := -1.0
	c.Go("receiver", func() {
		i := 0
		allocs = testing.AllocsPerRun(runs, func() {
			boxes[i].Recv()
			i++
		})
		acks.Close()
	})
	c.Go("sender", func() {
		for _, m := range boxes {
			c.Yield() // the receiver parks on m first
			m.Send(1)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a fresh mailbox's first parked receive makes %v allocations, want 0", allocs)
	}
}

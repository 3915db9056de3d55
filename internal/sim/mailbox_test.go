package sim

import (
	"slices"
	"testing"
	"time"

	"pie/api"
)

// recvLog runs fn as a process named name that receives once and records
// "name=value" (or "name:error") in *got.
func recvLog(c *Clock, got *[]string, name string, recv func() (int, error)) *Proc {
	return c.Go(name, func() {
		v, err := recv()
		if err != nil {
			*got = append(*got, name+":"+err.Error())
			return
		}
		*got = append(*got, name+"="+string(rune('0'+v)))
	})
}

// TestMailboxRecvFIFOOrder: three receivers park in order and take the
// first three messages in that order. Two more arrive between the wakes and
// the woken receivers' resumes: the sender, which finds a message nobody
// was woken for and takes it at once, and d, which finds only owed
// messages and parks behind the three.
func TestMailboxRecvFIFOOrder(t *testing.T) {
	c := NewClock()
	m := NewMailbox[int](c)
	var got []string
	for _, name := range []string{"a", "b", "c"} {
		recvLog(c, &got, name, m.Recv)
	}
	c.Go("sender", func() {
		c.Sleep(time.Millisecond)
		for v := 1; v <= 4; v++ {
			m.Send(v)
		}
		if v, err := m.Recv(); err != nil || v != 4 {
			t.Errorf("a receiver arriving after the wakes took %d, %v; want 4", v, err)
		}
		c.Sleep(time.Millisecond)
		m.Send(5)
	})
	c.Go("d", func() {
		c.Sleep(time.Millisecond)
		if m.Len() != 0 || m.Receiver().Done() {
			t.Errorf("owed messages read as receivable: Len %d", m.Len())
		}
		if _, ok := m.TryRecv(); ok {
			t.Error("TryRecv took an owed message")
		}
		recvLog(c, &got, "d", m.Recv)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a=1", "b=2", "c=3", "d=5"}; !slices.Equal(got, want) {
		t.Errorf("received %v, want %v", got, want)
	}
}

// TestMailboxCloseReleasesParkedReceivers: Close wakes every parked
// receiver with ErrMailboxClosed, except that one a Send already woke still
// takes its message; a message queued before Close stays receivable.
func TestMailboxCloseReleasesParkedReceivers(t *testing.T) {
	c := NewClock()
	m := NewMailbox[int](c)
	var got []string
	for _, name := range []string{"a", "b", "c"} {
		recvLog(c, &got, name, m.Recv)
	}
	fired := 0
	c.Go("closer", func() {
		c.Sleep(time.Millisecond)
		m.OnReadable(func() { fired++ })
		m.Send(1)
		m.Close()
		m.Send(2) // dropped
		if fired != 1 || !m.Receiver().Done() {
			t.Errorf("Close: hook fired %d times, Done %v; want 1, true", fired, m.Receiver().Done())
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	closed := ":" + ErrMailboxClosed.Error()
	if want := []string{"a=1", "b" + closed, "c" + closed}; !slices.Equal(got, want) {
		t.Errorf("received %v, want %v", got, want)
	}

	c = NewClock()
	m = NewMailbox[int](c)
	c.Go("p", func() {
		m.Send(7)
		m.Close()
		if v, err := m.Recv(); err != nil || v != 7 {
			t.Errorf("a closed mailbox gave %d, %v; want its queued 7", v, err)
		}
		if _, err := m.Recv(); err != ErrMailboxClosed {
			t.Errorf("a closed, drained mailbox gave %v, want ErrMailboxClosed", err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

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

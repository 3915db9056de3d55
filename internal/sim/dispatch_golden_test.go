package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"
)

// The dispatch-order golden: an FNV-1a hash over (virtual time, process
// name) of every dispatch in one Clock.Run that uses every way a process
// can be scheduled. The constants below were generated at the commit before
// the event loop moved from goroutine handoffs to coroutines (PR 14) and
// must never be regenerated: they are the proof that a change to clock.go
// reorders no event. CI runs this at -cpu 1,2,4.
const (
	goldenRunHash  = 0xc0cc3dfe7f5f724d
	goldenRunCount = 228
)

// dispatchRec hashes the dispatches of one clock's processes. The processes
// report themselves: at the top of the body and after every blocking call,
// whether it returned or unwound with Killed.
type dispatchRec struct {
	c *Clock
	h hash.Hash64
	n int
}

func newDispatchRec(c *Clock) *dispatchRec { return &dispatchRec{c: c, h: fnv.New64a()} }

func (r *dispatchRec) rec(name string) {
	r.c.mu.Lock()
	now, finished := r.c.now, r.c.finished
	r.c.mu.Unlock()
	if finished {
		return // unwinding after the clock finished is not a dispatch
	}
	fmt.Fprintf(r.h, "%d %s\n", now, name)
	r.n++
}

func (r *dispatchRec) wrap(name string, fn func()) func() {
	return func() {
		r.rec(name)
		fn()
	}
}

func (r *dispatchRec) spawn(name string, fn func()) *Proc { return r.c.Go(name, r.wrap(name, fn)) }

func (r *dispatchRec) sleep(name string, d time.Duration) {
	defer r.rec(name)
	r.c.Sleep(d)
}

func recGet[T any](r *dispatchRec, name string, f *Future[T]) (T, error) {
	defer r.rec(name)
	return f.Get()
}

const us = time.Microsecond

// dispatchScenarioRun is one Clock.Run mixing Sleep(0) ties, park/unpark,
// Kill in all four states, Group, Mailbox.OnReadable and abandoned daemons.
func dispatchScenarioRun(t *testing.T) (uint64, int) {
	c := NewClock()
	r := newDispatchRec(c)
	rng := NewRNG(7)

	// Sleep(0) ties, and short random sleeps that collide on purpose.
	for i := 0; i < 6; i++ {
		i, name := i, fmt.Sprintf("tie%d", i)
		r.spawn(name, func() {
			for j := 0; j < 3+i; j++ {
				r.sleep(name, 0)
			}
			r.sleep(name, time.Duration(i)*us)
			r.sleep(name, 0)
		})
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("rnd%d", i)
		ds := make([]time.Duration, 10)
		for j := range ds {
			ds[j] = time.Duration(rng.Intn(5)) * us
		}
		r.spawn(name, func() {
			for _, d := range ds {
				r.sleep(name, d)
			}
		})
	}

	// Park/unpark: a mailbox ping-pong and four waiters on one future.
	ping, pong := NewMailbox[int](c), NewMailbox[int](c)
	r.spawn("ping", func() {
		for i := 0; i < 5; i++ {
			ping.Send(i)
			if v, err := recGet(r, "ping", pong.RecvFuture()); err != nil || v != i {
				t.Errorf("ping got %d, %v", v, err)
			}
			r.sleep("ping", us)
		}
		ping.Close()
	})
	r.spawn("pong", func() {
		for {
			v, err := recGet(r, "pong", ping.RecvFuture())
			if err != nil {
				return
			}
			pong.Send(v)
		}
	})
	shared := NewFuture[int](c)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("waiter%d", i)
		r.spawn(name, func() {
			recGet(r, name, shared)
			r.sleep(name, 0)
		})
	}
	r.spawn("resolver", func() {
		r.sleep("resolver", 3*us)
		shared.Resolve(1)
		r.sleep("resolver", 0)
	})

	// Kill: a sleeping, a parked, a ready-but-never-dispatched and the
	// running process. The parked victim blocks again while it unwinds.
	never := NewFuture[int](c)
	vSleep := r.spawn("v-sleep", func() {
		r.sleep("v-sleep", time.Hour)
		t.Error("v-sleep survived Kill")
	})
	vPark := r.spawn("v-park", func() {
		defer func() {
			defer func() { recover() }()
			r.sleep("v-park:cleanup", us)
			t.Error("v-park's cleanup sleep returned")
		}()
		recGet(r, "v-park", never)
		t.Error("v-park survived Kill")
	})
	r.spawn("killer", func() {
		r.sleep("killer", 2*us)
		c.Kill(vSleep)
		c.Kill(vPark)
		vReady := r.spawn("v-ready", func() {
			r.rec("v-ready:ran") // killed before its first dispatch: still runs to here
			r.sleep("v-ready", 0)
			t.Error("v-ready survived Kill")
		})
		c.Kill(vReady)
		r.sleep("killer", 0)
		c.Kill(c.Current())
		r.rec("killer:flagged") // killing the running process only sets the flag
		r.sleep("killer", us)
		t.Error("killer survived killing itself")
	})

	// Group.
	r.spawn("group", func() {
		g := NewGroup(c)
		for i := 0; i < 4; i++ {
			i, name := i, fmt.Sprintf("child%d", i)
			g.Go(name, r.wrap(name, func() { r.sleep(name, time.Duration(i%2)*us) }))
		}
		defer r.rec("group")
		g.Wait()
	})

	// OnReadable: the hook spawns a process and resolves a future from
	// inside Send.
	watched := NewMailbox[string](c)
	r.spawn("watcher", func() {
		sig := NewSignal(c)
		watched.OnReadable(func() {
			r.spawn("on-readable", func() { r.sleep("on-readable", 0) })
			Fire(sig)
		})
		recGet(r, "watcher", sig)
		if v, ok := watched.TryRecv(); !ok || v != "x" {
			t.Errorf("watcher TryRecv = %q, %v", v, ok)
		}
	})
	r.spawn("sender", func() {
		r.sleep("sender", 4*us)
		watched.Send("x")
		r.sleep("sender", 0)
	})

	// Daemons abandoned at the finish: one ticking, one parked for good.
	c.GoDaemon("d-tick", r.wrap("d-tick", func() {
		for {
			r.sleep("d-tick", us)
		}
	}))
	c.GoDaemon("d-park", r.wrap("d-park", func() { recGet(r, "d-park", NewFuture[int](c)) }))

	if err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r.h.Sum64(), r.n
}

func TestDispatchOrderGolden(t *testing.T) {
	t.Run("run", func(t *testing.T) {
		for rep := 0; rep < 3; rep++ {
			h, n := dispatchScenarioRun(t)
			if h != goldenRunHash || n != goldenRunCount {
				t.Fatalf("rep %d: dispatch hash %#x over %d dispatches, golden %#x over %d: an event moved",
					rep, h, n, uint64(goldenRunHash), goldenRunCount)
			}
		}
	})
}

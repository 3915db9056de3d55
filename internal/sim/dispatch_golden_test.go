package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"
)

// The dispatch-order golden: an FNV-1a hash over (virtual time, process
// name) of every dispatch in three scenarios that between them use every
// way a process can be scheduled. The constants below were generated at the
// commit before the event loop moved from goroutine handoffs to coroutines
// (PR 14) and must never be regenerated: they are the proof that a change
// to clock.go reorders no event. CI runs this at -cpu 1,2,4.
const (
	goldenRunHash    = 0xc0cc3dfe7f5f724d
	goldenRunCount   = 228
	goldenWindowHash = 0x6bf8cf634f3c3376
	goldenWindowCnt  = 41
	goldenShardHash  = 0xfa18046cbbbb0e57
	goldenShardCount = 180
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

// dispatchScenarioWindows drives one clock through three RunWindow calls
// with InjectAt/InjectDaemonAt between them, as ShardGroup's barrier does.
func dispatchScenarioWindows(t *testing.T) (uint64, int) {
	c := NewClock()
	r := newDispatchRec(c)
	gate := NewFuture[int](c)
	for i := 0; i < 3; i++ {
		i, name := i, fmt.Sprintf("long%d", i)
		r.spawn(name, func() {
			for j := 0; j < 6; j++ {
				r.sleep(name, time.Duration(3+i)*us) // crosses every horizon
			}
		})
	}
	r.spawn("gated", func() {
		if v, _ := recGet(r, "gated", gate); v != 9 {
			t.Errorf("gated got %d", v)
		}
		r.sleep("gated", 7*us)
	})
	window := func(h time.Duration) {
		if err := c.RunWindow(h); err != nil {
			t.Fatalf("RunWindow(%v): %v", h, err)
		}
		if now := c.Now(); now >= h {
			t.Fatalf("RunWindow(%v) left the clock at %v", h, now)
		}
	}
	window(10 * us)
	c.InjectAt(12*us, "inj-a", r.wrap("inj-a", func() {
		r.sleep("inj-a", 0)
		gate.Resolve(9)
		r.sleep("inj-a", 9*us)
	}))
	c.InjectDaemonAt(11*us, "inj-d", r.wrap("inj-d", func() {
		for {
			r.sleep("inj-d", 3*us)
		}
	}))
	c.InjectAt(5*us, "inj-past", r.wrap("inj-past", func() { r.sleep("inj-past", 0) })) // clamped to now
	window(20 * us)
	c.InjectAt(20*us, "inj-edge", r.wrap("inj-edge", func() { r.sleep("inj-edge", us) }))
	window(40 * us)
	if live := c.liveProcs(); live != 0 {
		t.Fatalf("%d live processes after the last window", live)
	}
	c.finishWindowed(nil)
	return r.h.Sum64(), r.n
}

// dispatchScenarioShards is a 3-shard ShardGroup run: generators, replies
// and a daemon beat stream; the per-shard hashes are folded in shard order.
func dispatchScenarioShards(t *testing.T) (uint64, int) {
	const shards = 3
	g := NewShardGroup(10*us, shards)
	recs := make([]*dispatchRec, shards)
	for i := range recs {
		recs[i] = newDispatchRec(g.Shard(i).Clock())
	}
	for i := 0; i < shards; i++ {
		i, r, s := i, recs[i], g.Shard(i)
		rng := NewRNG(uint64(100 + i))
		gen := fmt.Sprintf("gen%d", i)
		r.spawn(gen, func() {
			for m := 0; m < 8; m++ {
				r.sleep(gen, time.Duration(rng.Intn(15))*us)
				dst := rng.Intn(shards)
				msg := fmt.Sprintf("s%dm%d", i, m)
				s.Send(dst, msg, time.Duration(rng.Intn(25))*us, recs[dst].wrap(msg, func() {
					recs[dst].sleep(msg, 2*us)
					g.Shard(dst).Send(i, msg+":ack", 0, recs[i].wrap(msg+":ack", func() {}))
				}))
			}
		})
		beat := fmt.Sprintf("beat%d", i)
		s.Clock().GoDaemon(beat, r.wrap(beat, func() {
			for {
				r.sleep(beat, 7*us)
				to := (i + 1) % shards
				s.SendDaemon(to, beat+":probe", us, recs[to].wrap(beat+":probe", func() {}))
			}
		}))
	}
	if err := g.Run(); err != nil {
		t.Fatalf("ShardGroup.Run: %v", err)
	}
	h, n := fnv.New64a(), 0
	for _, r := range recs {
		fmt.Fprintf(h, "%016x\n", r.h.Sum64())
		n += r.n
	}
	return h.Sum64(), n
}

func TestDispatchOrderGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   func(*testing.T) (uint64, int)
		hash  uint64
		count int
	}{
		{"run", dispatchScenarioRun, goldenRunHash, goldenRunCount},
		{"windows", dispatchScenarioWindows, goldenWindowHash, goldenWindowCnt},
		{"shards", dispatchScenarioShards, goldenShardHash, goldenShardCount},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for rep := 0; rep < 3; rep++ {
				h, n := tc.run(t)
				if h != tc.hash || n != tc.count {
					t.Fatalf("rep %d: dispatch hash %#x over %d dispatches, golden %#x over %d: an event moved",
						rep, h, n, tc.hash, tc.count)
				}
			}
		})
	}
}

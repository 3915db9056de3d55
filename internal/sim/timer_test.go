package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// Timers take their (time, seq) slot among processes and other timers: an
// earlier instant first, and at one instant the order the events were made.
func TestAfterFiresInTimeSeqOrder(t *testing.T) {
	c := NewClock()
	var got []string
	log := func(s string) func() { return func() { got = append(got, fmt.Sprintf("%s@%v", s, c.Now())) } }
	c.Go("p1", func() {
		c.Sleep(10 * time.Millisecond)
		log("p1")()
	})
	c.Go("p2", func() {
		c.After(10*time.Millisecond, log("t1"))
		c.After(5*time.Millisecond, log("early"))
		c.After(10*time.Millisecond, log("t2"))
		c.After(-time.Second, log("now")) // a negative delay is none
		c.Sleep(10 * time.Millisecond)
		log("p2")()
	})
	c.Go("p3", func() {
		c.Sleep(10 * time.Millisecond)
		log("p3")()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"now@0s", "early@5ms", "p1@10ms", "t1@10ms", "t2@10ms", "p2@10ms", "p3@10ms"}
	if !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if ev := c.Events(); ev != 10 {
		t.Fatalf("%d events, want 10: three spawns, three wakes, four timers", ev)
	}
}

// A timer may do everything but block: resolve a future, send, spawn, re-arm.
func TestAfterTimerResolvesSendsSpawnsAndRearms(t *testing.T) {
	c := NewClock()
	f := NewFuture[int](c)
	m := NewMailbox[int](c)
	var gotF, gotM int
	var spawnedAt, wokeAt time.Duration
	ticks := 0
	var tick func()
	tick = func() {
		if c.Current() != nil {
			t.Error("a timer runs with no current process")
		}
		if ticks++; ticks < 5 {
			c.After(time.Millisecond, tick)
			return
		}
		f.Resolve(7)
		m.Send(8)
		c.Go("child", func() { spawnedAt = c.Now() })
	}
	c.Go("waiter", func() {
		c.After(time.Millisecond, tick)
		gotF, _ = f.Get() // the only process: the timers run inside this park
		wokeAt = c.Now()
		gotM, _ = m.Recv()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if gotF != 7 || gotM != 8 || wokeAt != 5*time.Millisecond || spawnedAt != 5*time.Millisecond || ticks != 5 {
		t.Fatalf("future %d, message %d, woke at %v, child ran at %v, %d ticks", gotF, gotM, wokeAt, spawnedAt, ticks)
	}
}

// A timer that kills the process whose block it runs inside unwinds it there.
func TestAfterTimerKillsTheBlockedProcess(t *testing.T) {
	for _, blocking := range []string{"sleep", "park"} {
		c := NewClock()
		unwound := false
		var victim *Proc
		victim = c.Go("victim", func() {
			defer func() { unwound = true }()
			c.After(time.Millisecond, func() { c.Kill(victim) })
			if blocking == "sleep" {
				c.Sleep(time.Hour)
			} else {
				NewFuture[int](c).Get()
			}
			t.Errorf("%s: the killed process went on", blocking)
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if !unwound || c.Now() != time.Millisecond {
			t.Fatalf("%s: unwound %v at %v", blocking, unwound, c.Now())
		}
	}
}

// Blocking inside a timer is a bug, reported the way a blocking call from
// outside the simulation is.
func TestAfterBlockingCallPanics(t *testing.T) {
	c := NewClock()
	var msgs []string
	try := func(name string, block func()) {
		c.After(0, func() {
			defer func() { msgs = append(msgs, fmt.Sprint(name, ": ", recover())) }()
			block()
		})
	}
	try("sleep", func() { c.Sleep(time.Millisecond) })
	try("get", func() { NewFuture[int](c).Get() })
	try("recv", func() { NewMailbox[int](c).Recv() })
	c.Go("p", func() { c.Sleep(time.Millisecond) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("%d of 3 timers ran: %v", len(msgs), msgs)
	}
	for _, m := range msgs {
		if !strings.Contains(m, "outside the simulation") {
			t.Errorf("blocking in a timer: %s", m)
		}
	}
}

// Pending timers are like daemons: Run returns when the last live process
// does, and a clock with timers only has nothing to run. Every re-arms at
// each period.
func TestPendingTimersDoNotKeepRunAlive(t *testing.T) {
	c := NewClock()
	var ticks []time.Duration
	tick := func() { ticks = append(ticks, c.Now()) }
	c.Every(time.Millisecond, tick)
	c.Go("p", func() { c.Sleep(10*time.Millisecond + time.Microsecond) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 10 || ticks[0] != time.Millisecond || ticks[9] != 10*time.Millisecond || c.Now() != 10*time.Millisecond+time.Microsecond {
		t.Fatalf("ticks at %v by %v, want 1ms..10ms by 10.001ms", ticks, c.Now())
	}
	c.After(0, tick) // dropped: the clock is finished
	if len(ticks) != 10 {
		t.Fatal("a finished clock ran a timer")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Every with no period did not panic")
			}
		}()
		c.Every(0, tick)
	}()

	c = NewClock()
	c.After(0, func() { t.Error("a timer ran on a clock with no process") })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// In external mode with no live process a periodic timer is paced to the
// wall clock like a daemon's sleep, not free-run.
func TestExternalModeIdleTimersPaceToWallClock(t *testing.T) {
	c, _ := startExternalTicker(t, time.Hour)
	var tick func()
	tick = func() { c.After(10*time.Millisecond, tick) }
	done := make(chan struct{})
	c.Inject("arm", func() { tick(); close(done) })
	<-done
	time.Sleep(200 * time.Millisecond)
	if _, _, _, events := c.Stats(); events > 50 {
		t.Fatalf("idle clock ran %d events in 200ms of wall time, want <= 50", events)
	}
	if now := c.Now(); now > 500*time.Millisecond {
		t.Fatalf("idle clock advanced to %v of virtual time in 200ms of wall time", now)
	}
}

// Sleep's self-dispatch fast path survives a pending timer that is not due
// first: the sleeper's event never enters the heap, so the heap's array
// never grows past the one slot the timer holds.
func TestSleepFastPathWithTimerPending(t *testing.T) {
	c := NewClock()
	fired := time.Duration(-1)
	c.Go("sleeper", func() {
		c.After(time.Second, func() { fired = c.Now() })
		for i := 0; i < 999; i++ {
			c.Sleep(time.Millisecond)
		}
		if n := cap(c.heap.es); n != 1 {
			t.Errorf("heap grew to %d slots: the sleeps went through it", n)
		}
		c.Sleep(time.Millisecond) // due with the timer, which was made first
		if fired != time.Second {
			t.Errorf("the timer due at 1s fired at %v, after the sleeper woke", fired)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if ev := c.Events(); ev != 1002 {
		t.Fatalf("%d events, want 1002", ev)
	}
}

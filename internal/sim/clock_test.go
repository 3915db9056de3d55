package sim

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestNowFromOutsideTheLoop: Now takes no lock, and a goroutine outside the
// simulation reading it while the loop advances time sees time only move
// forward (run with -race: the read and the loop's writes must be ordered).
func TestNowFromOutsideTheLoop(t *testing.T) {
	const steps = 2000
	c := NewClock()
	c.Go("sleeper", func() {
		for i := 0; i < steps; i++ {
			c.Sleep(time.Microsecond)
		}
	})
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var last time.Duration
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := c.Now()
			if now < last {
				t.Errorf("Now went back from %v to %v", last, now)
				return
			}
			last = now
		}
	}()
	err := c.Run()
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Now(); got != steps*time.Microsecond {
		t.Errorf("Now = %v after %d sleeps of 1µs", got, steps)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	c := NewClock()
	var got time.Duration
	c.Go("p", func() {
		c.Sleep(10 * time.Millisecond)
		got = c.Now()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 10*time.Millisecond {
		t.Fatalf("Now after sleep = %v, want 10ms", got)
	}
}

func TestSleepOrderingIsDeterministic(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.Go("p", func() {
			// Process i sleeps i*ms: wakes in ascending order.
			c.Sleep(time.Duration(i) * time.Millisecond)
			order = append(order, i)
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order = %v, want ascending", order)
		}
	}
}

func TestSameTimeEventsRunInSpawnOrder(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		c.Go("p", func() { order = append(order, i) })
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want spawn order", order)
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	c := NewClock()
	var order []string
	c.Go("a", func() {
		order = append(order, "a1")
		c.Yield()
		order = append(order, "a2")
	})
	c.Go("b", func() {
		order = append(order, "b1")
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFutureResolveWakesWaiter(t *testing.T) {
	c := NewClock()
	f := NewFuture[int](c)
	var got int
	var at time.Duration
	c.Go("waiter", func() {
		got, _ = f.Get()
		at = c.Now()
	})
	c.Go("resolver", func() {
		c.Sleep(5 * time.Millisecond)
		f.Resolve(42)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 || at != 5*time.Millisecond {
		t.Fatalf("got %d at %v, want 42 at 5ms", got, at)
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	c := NewClock()
	f := NewFuture[string](c)
	count := 0
	for i := 0; i < 10; i++ {
		c.Go("w", func() {
			v, err := f.Get()
			if err != nil || v != "x" {
				t.Errorf("Get = %q, %v", v, err)
			}
			count++
		})
	}
	c.Go("r", func() { f.Resolve("x") })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestFutureGetAfterResolve(t *testing.T) {
	c := NewClock()
	var got int
	c.Go("p", func() {
		f := NewFuture[int](c)
		f.Resolve(7)
		got, _ = f.Get()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}

func TestFutureFail(t *testing.T) {
	c := NewClock()
	var err error
	f := NewFuture[int](c)
	c.Go("w", func() { _, err = f.Get() })
	c.Go("r", func() { f.Fail(nil) })
	if e := c.Run(); e != nil {
		t.Fatal(e)
	}
	if err != ErrFailed {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	c := NewClock()
	f := NewFuture[int](c)
	c.Go("stuck", func() { f.Get() })
	if err := c.Run(); err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

// TestMailboxReusesItsArrays: a mailbox that is drained between sends — one
// message queued and taken, or one receiver parked and served, at a time —
// keeps the message array it started with and parks its receiver in its
// wait list's own waiter slot, and keeps FIFO order when it is not drained.
func TestMailboxReusesItsArrays(t *testing.T) {
	c := NewClock()
	c.Go("p", func() {
		m := NewMailbox[int](c)
		m.Send(0)
		m.TryRecv()
		buf := &m.buf[:1][0]
		for i := 1; i <= 50; i++ {
			m.Send(i)
			if v, _ := m.Recv(); v != i {
				t.Fatalf("received %d, want %d", v, i)
			}
		}
		if &m.buf[:1][0] != buf {
			t.Error("the message array was reallocated by send/receive alternation")
		}
		c.Go("r", func() {
			for i := 51; i <= 100; i++ {
				if v, _ := m.Recv(); v != i {
					t.Errorf("a parked receiver got %d, want %d", v, i)
				}
			}
		})
		for i := 51; i <= 100; i++ {
			c.Yield() // r parks
			m.Send(i)
		}
		c.Yield()
		if &m.recv.q[:1][0] != &m.recv.one[0] {
			t.Error("one receiver parked at a time made a waiter array")
		}
		// Not drained: order holds across the restart.
		for i := 0; i < 3; i++ {
			m.Send(i)
		}
		a, _ := m.TryRecv()
		m.Send(3)
		var got []int
		for m.Len() > 0 {
			v, _ := m.TryRecv()
			got = append(got, v)
		}
		if a != 0 || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("received %d then %v, want 0 then [1 2 3]", a, got)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	c := NewClock()
	c.Go("p", func() {
		m := NewMailbox[int](c)
		if _, ok := m.TryRecv(); ok {
			t.Error("TryRecv on empty mailbox returned ok")
		}
		m.Send(9)
		if m.Len() != 1 {
			t.Errorf("Len = %d, want 1", m.Len())
		}
		v, ok := m.TryRecv()
		if !ok || v != 9 {
			t.Errorf("TryRecv = %d,%v", v, ok)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKillSleepingProcess(t *testing.T) {
	c := NewClock()
	reached := false
	var p *Proc
	p = c.Go("victim", func() {
		c.Sleep(time.Hour)
		reached = true
	})
	c.Go("killer", func() {
		c.Sleep(time.Millisecond)
		c.Kill(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("victim survived Kill")
	}
	if got := c.Now(); got >= time.Hour {
		t.Fatalf("clock advanced to %v; kill should cancel the sleep", got)
	}
}

func TestKillParkedProcess(t *testing.T) {
	c := NewClock()
	f := NewFuture[int](c)
	cleanedUp := false
	var p *Proc
	p = c.Go("victim", func() {
		defer func() { cleanedUp = true }()
		f.Get()
		t.Error("victim resumed after kill")
	})
	c.Go("killer", func() { c.Kill(p) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleanedUp {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if !p.Killed() {
		t.Fatal("Killed() = false")
	}
}

// TestKillBeforeFirstDispatch: a process killed before it first runs
// unwinds at its first blocking call instead of parking there for good or
// sleeping it out: Run ends with no deadlock, at virtual time 0, and the
// body's defers have run.
func TestKillBeforeFirstDispatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(c *Clock, m *Mailbox[int])
	}{
		{"recv", func(c *Clock, m *Mailbox[int]) { m.Recv() }},
		{"sleep", func(c *Clock, m *Mailbox[int]) { c.Sleep(time.Hour) }},
	} {
		c := NewClock()
		m := NewMailbox[int](c)
		cleanedUp := false
		c.Go("killer", func() {
			c.Kill(c.Go("victim", func() {
				defer func() { cleanedUp = true }()
				tc.block(c, m)
				t.Errorf("%s: victim went on after kill", tc.name)
			}))
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if !cleanedUp {
			t.Fatalf("%s: deferred cleanup did not run on kill", tc.name)
		}
		if c.Now() != 0 {
			t.Fatalf("%s: run ended at %v, want 0", tc.name, c.Now())
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	c := NewClock()
	depth := 0
	var spawn func(n int)
	spawn = func(n int) {
		if n == 0 {
			return
		}
		c.Go("child", func() {
			depth++
			spawn(n - 1)
		})
	}
	c.Go("root", func() { spawn(50) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(1234), NewRNG(1234)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds produced identical first values")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 32; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(5)
	a := r.Fork(1)
	b := r.Fork(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams collide %d/64 times", same)
	}
}

// Property: arbitrary DAGs of sleeps and futures always quiesce with
// monotonically non-decreasing wake times.
func TestQuickSchedulerMonotonicTime(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		c := NewClock()
		var last time.Duration
		mono := true
		n := 3 + r.Intn(10)
		sigs := make([]*Signal, n)
		for i := range sigs {
			sigs[i] = NewSignal(c)
		}
		for i := 0; i < n; i++ {
			i := i
			d := time.Duration(r.Intn(50)) * time.Millisecond
			dep := r.Intn(n)
			c.Go("p", func() {
				c.Sleep(d)
				if i > 0 && dep < i {
					Await(sigs[dep]) // only wait on earlier-indexed signals
				}
				if c.Now() < last {
					mono = false
				}
				last = c.Now()
				Fire(sigs[i])
			})
		}
		if err := c.Run(); err != nil {
			return false
		}
		return mono
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExternalModeInjectAfterIdle(t *testing.T) {
	// Server mode: the clock must stay alive while idle — even once every
	// process it had has finished — so a later Inject can start work. (This
	// used to finish the clock at the first idle moment and panic the
	// first Inject with "Inject after clock finished".)
	c := NewClock()
	c.EnableExternal()
	c.Go("start-up", func() { c.Sleep(time.Millisecond) })
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run() }()

	injected := make(chan int, 1)
	// Wait until Run has finished the start-up process and gone idle: no
	// process live, the heap drained, nothing running. (The event count
	// tells that Run has started: before it, too, nothing is live.)
	for i := 0; i < 5000; i++ {
		live, _, pending, events := c.Stats()
		if live == 0 && pending == 0 && events == 2 && c.Current() == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Inject("work", func() {
		c.Sleep(5 * time.Millisecond)
		injected <- 42
	})
	select {
	case v := <-injected:
		if v != 42 {
			t.Fatalf("injected work returned %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injected work never ran")
	}
	c.Shutdown()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Shutdown")
	}
}

// startExternalTicker runs an external-mode clock whose only work is a
// periodic timer, like pie-server's cluster tick. Cleanup shuts the clock
// down and waits for Run to return.
func startExternalTicker(t *testing.T, tick time.Duration) (*Clock, *atomic.Int64) {
	t.Helper()
	c := NewClock()
	c.EnableExternal()
	ticks := new(atomic.Int64)
	c.Every(tick, func() { ticks.Add(1) })
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run() }()
	t.Cleanup(func() {
		c.Shutdown()
		select {
		case err := <-runDone:
			if err != nil {
				t.Errorf("Run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Run did not return after Shutdown")
		}
	})
	return c, ticks
}

// TestExternalModeIdleDaemonsPaceToWallClock: an idle server must not
// free-run its background tickers, which are periodic timers armed before
// Run. A 10ms ticker over 200ms of wall time is about 20 events; unpaced it
// was millions (and a spinning core).
func TestExternalModeIdleDaemonsPaceToWallClock(t *testing.T) {
	c, _ := startExternalTicker(t, 10*time.Millisecond)
	time.Sleep(200 * time.Millisecond)
	if _, _, _, events := c.Stats(); events > 50 {
		t.Fatalf("idle clock ran %d events in 200ms of wall time, want <= 50", events)
	}
	if now := c.Now(); now > 500*time.Millisecond {
		t.Fatalf("idle clock advanced to %v of virtual time in 200ms of wall time", now)
	}
}

// TestExternalModeInjectDuringIdleWait: the idle wait is for timers only.
// With the next tick an hour away, injected work still runs at once, and
// free-runs past the tick while it is live.
func TestExternalModeInjectDuringIdleWait(t *testing.T) {
	c, _ := startExternalTicker(t, time.Hour)
	// Let Run reach the idle wait for the first tick.
	for i := 0; i < 5000; i++ {
		c.mu.Lock()
		armed := !c.idleUntil.IsZero()
		c.mu.Unlock()
		if armed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan time.Duration, 1)
	c.Inject("work", func() {
		c.Sleep(90 * time.Minute) // crosses the tick
		done <- c.Now()
	})
	select {
	case now := <-done:
		if now != 90*time.Minute {
			t.Fatalf("injected work finished at %v, want 1h30m", now)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injected work waited on the idle timer")
	}
}

// TestExternalModePollingDoesNotStarveTimers: requests that arrive more
// often than a timer ticks (a client polling /v1/fleet for convergence)
// must not keep pushing the tick back.
func TestExternalModePollingDoesNotStarveTimers(t *testing.T) {
	c, ticks := startExternalTicker(t, 10*time.Millisecond)
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		done := make(chan struct{})
		c.Inject("poll", func() { close(done) })
		<-done
		time.Sleep(time.Millisecond)
	}
	if n := ticks.Load(); n < 5 || n > 50 {
		t.Fatalf("ticker ran %d times under 200ms of 1ms polling, want about 20", n)
	}
}

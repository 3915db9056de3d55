package sim

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

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
		f := Resolved(c, 7)
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

func TestMailboxFIFO(t *testing.T) {
	c := NewClock()
	m := NewMailbox[int](c)
	var got []int
	c.Go("recv", func() {
		for i := 0; i < 3; i++ {
			v, err := m.Recv()
			if err != nil {
				t.Errorf("Recv: %v", err)
			}
			got = append(got, v)
		}
	})
	c.Go("send", func() {
		for i := 1; i <= 3; i++ {
			m.Send(i)
			c.Sleep(time.Millisecond)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v, want [1 2 3]", got)
		}
	}
}

// TestMailboxReusesItsArrays: a mailbox that is drained between sends — one
// message queued and taken, or one receiver parked and served, at a time —
// keeps the backing arrays it started with, and keeps FIFO order when it is
// not drained.
func TestMailboxReusesItsArrays(t *testing.T) {
	c := NewClock()
	c.Go("p", func() {
		m := NewMailbox[int](c)
		m.Send(0)
		m.TryRecv()
		buf := &m.buf[:1][0]
		for i := 1; i <= 50; i++ {
			m.Send(i)
			if v, _ := m.RecvFuture().Get(); v != i {
				t.Fatalf("received %d, want %d", v, i)
			}
		}
		if &m.buf[:1][0] != buf {
			t.Error("the message array was reallocated by send/receive alternation")
		}
		first := m.RecvFuture()
		waiters := &m.waiters[0]
		m.Send(51)
		for i := 52; i <= 100; i++ {
			f := m.RecvFuture()
			m.Send(i)
			if v, _ := f.Get(); v != i {
				t.Fatalf("a parked receiver got %d, want %d", v, i)
			}
		}
		if v, _ := first.Get(); v != 51 || &m.waiters[:1][0] != waiters {
			t.Errorf("first receiver got %d (want 51); waiter array reallocated: %v", v, &m.waiters[:1][0] != waiters)
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

// OnReadable is a one-shot, non-consuming watch: it fires from the Send
// that queues a message or from Close, at once if either already happened,
// never for a message handed to a parked receiver, and a registration made
// after it has fired works like the first.
func TestMailboxOnReadable(t *testing.T) {
	c := NewClock()
	c.Go("p", func() {
		m := NewMailbox[int](c)
		fired := 0
		hook := func() { fired++ }

		m.OnReadable(hook)
		if fired != 0 {
			t.Error("hook fired on an empty, open mailbox")
		}
		m.Send(1)
		m.Send(2)
		if fired != 1 {
			t.Errorf("two sends after one registration fired the hook %d times, want once", fired)
		}
		if m.Len() != 2 {
			t.Errorf("the hook consumed a message: Len = %d, want 2", m.Len())
		}

		m.OnReadable(hook) // messages are queued: fires at once
		if fired != 2 {
			t.Errorf("registration with a message queued: fired %d times in all, want 2", fired)
		}
		m.TryRecv()
		m.TryRecv()

		m.OnReadable(hook) // empty again: waits for the next send
		if fired != 2 {
			t.Error("a registration after firing fired on an empty mailbox")
		}
		m.Send(3)
		if v, ok := m.TryRecv(); fired != 3 || !ok || v != 3 {
			t.Errorf("second registration: fired %d times, TryRecv = %d,%v; want 3 and 3,true", fired, v, ok)
		}

		// A message a parked receiver takes never becomes readable.
		m.OnReadable(hook)
		got := m.RecvFuture()
		m.Send(4)
		if v, _ := got.Get(); v != 4 || fired != 3 {
			t.Errorf("parked receiver got %d and the hook fired %d times, want 4 and 3", v, fired)
		}
		m.Close()
		if fired != 4 {
			t.Errorf("Close fired the pending hook %d times in all, want 4", fired)
		}
		m.OnReadable(hook) // closed: fires at once
		if fired != 5 {
			t.Errorf("registration on a closed mailbox: fired %d times in all, want 5", fired)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxClose(t *testing.T) {
	c := NewClock()
	m := NewMailbox[int](c)
	var err error
	c.Go("recv", func() { _, err = m.Recv() })
	c.Go("close", func() { m.Close() })
	if e := c.Run(); e != nil {
		t.Fatal(e)
	}
	if err != ErrMailboxClosed {
		t.Fatalf("err = %v, want ErrMailboxClosed", err)
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

func TestGroupWait(t *testing.T) {
	c := NewClock()
	total := 0
	c.Go("main", func() {
		g := NewGroup(c)
		for i := 1; i <= 4; i++ {
			i := i
			g.Go("child", func() {
				c.Sleep(time.Duration(i) * time.Millisecond)
				total += i
			})
		}
		g.Wait()
		if total != 10 {
			t.Errorf("total = %d before Wait returned", total)
		}
		if c.Now() != 4*time.Millisecond {
			t.Errorf("Wait returned at %v, want 4ms", c.Now())
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
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
	// Server mode: the clock must stay alive while idle — even when only
	// daemons have run so far — so a later Inject can start work. (This
	// used to finish the clock at the first idle moment and panic the
	// first Inject with "Inject after clock finished".)
	c := NewClock()
	c.EnableExternal()
	c.GoDaemon("service", func() {
		m := NewMailbox[int](c)
		m.Recv() // parks forever: the daemon is idle infrastructure
	})
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run() }()

	injected := make(chan int, 1)
	// Wait until Run has dispatched the daemon and gone idle: the daemon
	// parked, the heap drained, and no process running. (Current() alone
	// is nil before Run starts too, which would race Inject against Run's
	// entry check.)
	for i := 0; i < 5000; i++ {
		_, parked, pending, _ := c.Stats()
		if parked == 1 && pending == 0 && c.Current() == nil {
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

// startExternalTicker runs an external-mode clock whose only process is a
// daemon sleeping tick in a loop, like pie-server's health monitor or fleet
// reconciler. Cleanup shuts the clock down and waits for Run to return.
func startExternalTicker(t *testing.T, tick time.Duration) (*Clock, *atomic.Int64) {
	t.Helper()
	c := NewClock()
	c.EnableExternal()
	ticks := new(atomic.Int64)
	c.GoDaemon("ticker", func() {
		for {
			c.Sleep(tick)
			ticks.Add(1)
		}
	})
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
// free-run its periodic daemons. A 10ms ticker over 200ms of wall time is
// about 20 events; unpaced it was millions (and a spinning core).
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

// TestExternalModeInjectDuringIdleWait: the idle wait is for daemons only.
// With the next daemon wake an hour away, injected work still runs at
// once, and free-runs past daemon wakes while it is live.
func TestExternalModeInjectDuringIdleWait(t *testing.T) {
	c, _ := startExternalTicker(t, time.Hour)
	// Let the ticker reach its first sleep, so the idle wait is armed.
	for i := 0; i < 5000; i++ {
		if _, _, _, events := c.Stats(); events >= 1 && c.Current() == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan time.Duration, 1)
	c.Inject("work", func() {
		c.Sleep(90 * time.Minute) // crosses the ticker's wake
		done <- c.Now()
	})
	select {
	case now := <-done:
		if now != 90*time.Minute {
			t.Fatalf("injected work finished at %v, want 1h30m", now)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injected work waited on the idle daemon timer")
	}
}

// TestExternalModePollingDoesNotStarveDaemons: requests that arrive more
// often than a daemon ticks (a client polling /v1/fleet for convergence)
// must not keep pushing the daemon's wake back.
func TestExternalModePollingDoesNotStarveDaemons(t *testing.T) {
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

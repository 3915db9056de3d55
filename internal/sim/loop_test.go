package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settledGoroutines waits for the goroutine count to come down to want and
// returns the last count seen: a stopped coroutine's goroutine exits a
// moment after stop returns.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 400 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A finished clock leaves no goroutine behind: the reap unwinds the
// waiters nobody resolved through their defers and frees the pool, whether
// the clock finished deadlocked or was shut down in external mode.
func TestFinishedClockLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	for i := 0; i < 20; i++ {
		external := i%2 == 1
		c := NewClock()
		if external {
			c.EnableExternal()
		}
		c.Go("server", func() {
			defer func() { unwound++ }()
			NewMailbox[int](c).Recv()
		})
		c.Go("blocks-while-unwinding", func() {
			defer func() {
				defer func() {
					if _, ok := recover().(Killed); ok {
						unwound++
					}
				}()
				c.Sleep(time.Millisecond) // must fail at once, not hang the reap
			}()
			NewFuture[int](c).Get()
		})
		for j := 0; j < 8; j++ {
			c.Go("work", func() { c.Sleep(10 * time.Millisecond) })
		}
		var err error
		if external {
			runDone := make(chan error, 1)
			go func() { runDone <- c.Run() }()
			for k := 0; k < 5000; k++ {
				if live, parked, pending, _ := c.Stats(); live == 2 && parked == 2 && pending == 0 && c.Current() == nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
			c.Shutdown()
			if err = <-runDone; err != nil {
				t.Fatalf("Run after Shutdown: %v", err)
			}
		} else if err = c.Run(); err == nil {
			t.Fatal("two processes parked for good: want a deadlock error")
		}
		if c.Current() != nil || len(c.workers) != 0 || len(c.idle) != 0 {
			t.Fatalf("after Run: current %v, %d workers, %d pooled", c.Current(), len(c.workers), len(c.idle))
		}
	}
	if unwound != 40 {
		t.Errorf("%d defers of parked processes ran, want 40", unwound)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("%d goroutines before 20 clocks, %d after", before, after)
	}
}

// A deadlocked clock is finished too: its stuck processes are unwound.
func TestDeadlockedClockLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	cleaned := false
	c.Go("stuck", func() {
		defer func() { cleaned = true }()
		NewFuture[int](c).Get()
	})
	if err := c.Run(); err == nil {
		t.Fatal("expected a deadlock error")
	}
	if !cleaned {
		t.Error("the stuck process was not unwound")
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("%d goroutines before, %d after", before, after)
	}
}

// 10 000 short processes, at most 64 alive at once, run on at most 64
// coroutines, and every tenant of a reused coroutine is a new Proc.
func TestWorkerReuse(t *testing.T) {
	const total, width = 10000, 64
	c := NewClock()
	spawned, ran, maxWorkers := 0, 0, 0
	ids := make(map[uint64]bool, total)
	var spawn func()
	spawn = func() {
		name := fmt.Sprintf("p%d", spawned)
		spawned++
		c.Go(name, func() {
			c.Sleep(time.Duration(1+ran%7) * time.Microsecond)
			p := c.Current()
			if p.Name() != name || ids[p.ID()] {
				t.Errorf("process %s runs as %q with id %d (seen before: %v)", name, p.Name(), p.ID(), ids[p.ID()])
			}
			ids[p.ID()] = true
			ran++
			maxWorkers = max(maxWorkers, len(c.workers))
			if spawned < total {
				spawn() // dispatched after this one has finished
			}
		})
	}
	for i := 0; i < width; i++ {
		spawn()
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != total || maxWorkers > width {
		t.Fatalf("%d of %d processes ran on %d coroutines, want at most %d", ran, total, maxWorkers, width)
	}
}

// An unpark aimed at a dead process must not wake the next tenant of its
// coroutine.
func TestStaleUnparkAfterWorkerReuse(t *testing.T) {
	c := NewClock()
	f, g := NewFuture[int](c), NewFuture[int](c)
	var order []string
	c.Go("main", func() {
		a := c.Go("a", func() {
			f.Get()
			t.Error("a survived Kill")
		})
		c.Sleep(us) // a parks on f
		wa := a.w
		c.Kill(a)
		c.Sleep(us) // a unwinds; its coroutine goes to the pool
		b := c.Go("b", func() {
			v, _ := g.Get()
			order = append(order, fmt.Sprint("b got ", v))
		})
		c.Sleep(us) // b parks on g
		if wa == nil || b.w != wa {
			t.Error("b is not hosted on a's coroutine: the test proves nothing")
		}
		if b.ID() == a.ID() || b.Name() != "b" {
			t.Errorf("b = %q/%d, a = %q/%d", b.Name(), b.ID(), a.Name(), a.ID())
		}
		f.Resolve(1) // a's waiter entry is stale
		c.Sleep(us)
		order = append(order, "stale unpark ignored")
		g.Resolve(2)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[stale unpark ignored b got 2]" {
		t.Fatalf("order = %v", order)
	}
}

func TestProcessPanicSurfacesFromRun(t *testing.T) {
	c := NewClock()
	c.Go("bystander", func() { c.Sleep(time.Second) })
	c.Go("p", func() {
		c.Sleep(us)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("Run panicked with %v, want boom", r)
		}
	}()
	_ = c.Run()
	t.Fatal("Run returned")
}

// t.FailNow in a process is runtime.Goexit on its coroutine; it must end
// the goroutine that called Run (the test's), not strand it.
func TestGoexitInProcessEndsRun(t *testing.T) {
	c := NewClock()
	c.Go("p", func() {
		c.Sleep(us)
		runtime.Goexit()
	})
	how := make(chan string, 2)
	go func() {
		defer func() { how <- "goexit" }()
		_ = c.Run()
		how <- "returned"
	}()
	select {
	case got := <-how:
		if got != "goexit" {
			t.Fatalf("Run %s", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung after Goexit in a process")
	}
}

// Injects from many goroutines race Shutdown: each is either run to its end
// before Run returns or refused with the usual panic, and nothing is left.
func TestExternalInjectRacesShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	const injectors, each = 8, 500
	c := NewClock()
	c.EnableExternal()
	c.Go("service", func() { NewMailbox[int](c).Recv() }) // parked until the reap
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run() }()

	var accepted, refused, ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if r != "sim: Inject after clock finished" {
								t.Errorf("Inject panicked with %v", r)
							}
							refused.Add(1)
						}
					}()
					c.Inject("work", func() {
						c.Sleep(us)
						ran.Add(1)
					})
					accepted.Add(1)
				}()
				if g == 0 && i == each/2 {
					c.Shutdown()
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Shutdown")
	}
	if a, r := accepted.Load(), refused.Load(); a+r != injectors*each || ran.Load() != a {
		t.Fatalf("%d accepted, %d refused, %d ran", a, r, ran.Load())
	}
	func() {
		defer func() {
			if r := recover(); r != "sim: Inject after clock finished" {
				t.Errorf("Inject after Run returned: recovered %v", r)
			}
		}()
		c.Inject("late", func() {})
	}()
	if after := settledGoroutines(before); after > before {
		t.Fatalf("%d goroutines before, %d after Shutdown", before, after)
	}
}

// A future resolved from outside the simulation wakes the idle loop.
func TestExternalUnparkFromOutside(t *testing.T) {
	c := NewClock()
	c.EnableExternal()
	f := NewFuture[int](c)
	got := make(chan int, 1)
	c.Go("waiter", func() {
		v, _ := f.Get()
		got <- v
	})
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run() }()
	for i := 0; i < 5000; i++ {
		if _, parked, _, _ := c.Stats(); parked == 1 && c.Current() == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	f.Resolve(7)
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter never woke")
	}
	c.Shutdown()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}

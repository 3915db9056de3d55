package sim

import (
	"testing"
	"time"
)

// BenchmarkClockEventLoop measures raw event throughput of the
// discrete-event core: 1k concurrent processes each sleeping
// pseudo-random durations, so every event is a heap push, a heap pop,
// and a coroutine switch to the loop and on to the next process. The
// events/sec metric is the headline number tracked in BENCH_sim.json.
func BenchmarkClockEventLoop(b *testing.B) {
	const (
		procs  = 1000
		rounds = 50
	)
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		c := NewClock()
		for p := 0; p < procs; p++ {
			r := NewRNG(uint64(p) + 1)
			c.Go("p", func() {
				for k := 0; k < rounds; k++ {
					c.Sleep(time.Duration(r.Intn(1000)) * time.Microsecond)
				}
			})
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		_, _, _, ev := c.Stats()
		events += int64(ev)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkClockSparseTicker measures the sparse-heap regime that
// dominates real engine runs: one pacing process advances virtual time
// while 1k other processes sit parked on futures (a health monitor ticking
// while inferlets await completions). Every tick takes the self-dispatch
// fast path: no heap traffic, no event record, no coroutine switch.
func BenchmarkClockSparseTicker(b *testing.B) {
	const parked = 1000
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		c := NewClock()
		futs := make([]*Future[int], parked)
		for p := 0; p < parked; p++ {
			f := NewFuture[int](c)
			futs[p] = f
			c.Go("waiter", func() { f.Get() })
		}
		c.Go("ticker", func() {
			for k := 0; k < 100000; k++ {
				c.Sleep(time.Microsecond)
			}
			for _, f := range futs {
				f.Resolve(1)
			}
		})
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		_, _, _, ev := c.Stats()
		events += int64(ev)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkClockSpawnChurn is the regime the serving workloads are in: a
// steady 64 live processes, each short-lived (a per-token helper, a batch
// completion) and replaced by a new one as it finishes, so what is measured
// is the cost of making a process, not of keeping one.
func BenchmarkClockSpawnChurn(b *testing.B) {
	const (
		total = 20000
		width = 64
	)
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		c := NewClock()
		r := NewRNG(uint64(i) + 1)
		spawned := 0
		var spawn func()
		spawn = func() {
			spawned++
			d := time.Duration(1+r.Intn(20)) * time.Microsecond
			c.Go("p", func() {
				c.Sleep(d)
				if spawned < total {
					spawn()
				}
			})
		}
		for p := 0; p < width; p++ {
			spawn()
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		_, _, _, ev := c.Stats()
		events += int64(ev)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkClockHandoff is the bare switch: two processes passing one
// message back and forth, so every event parks one and wakes the other.
func BenchmarkClockHandoff(b *testing.B) {
	const trips = 50000
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		c := NewClock()
		ping, pong := NewMailbox[int](c), NewMailbox[int](c)
		c.Go("ping", func() {
			for k := 0; k < trips; k++ {
				ping.Send(k)
				pong.Recv()
			}
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
			b.Fatal(err)
		}
		_, _, _, ev := c.Stats()
		events += int64(ev)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkRoomWait is one park on a WaitList with a deadline, the way a
// call waits for device page room, and the wake that ends it: two switches,
// no allocation. One op is one park and one wake.
func BenchmarkRoomWait(b *testing.B) {
	c := NewClock()
	l := NewWaitList(c, nil)
	c.Go("waiter", func() {
		for n := 0; n < b.N; n++ {
			l.Wait(false, c.Now()+time.Second)
		}
	})
	c.Go("waker", func() {
		for n := 0; n < b.N; n++ {
			c.Sleep(time.Microsecond)
			l.Wake()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := c.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMailboxRecv is a message each way between two processes, each
// received by a process parked in Mailbox.Recv: two sends, two parks and two
// wakes on the mailboxes' own wait lists, no allocation. One op is one round.
func BenchmarkMailboxRecv(b *testing.B) {
	c := NewClock()
	ping, pong := NewMailbox[int](c), NewMailbox[int](c)
	c.Go("ping", func() {
		for n := 0; n < b.N; n++ {
			ping.Send(n)
			pong.Recv()
		}
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
	b.ReportAllocs()
	b.ResetTimer()
	if err := c.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchRec is a pooled call record with an int result, recycled in place.
type benchRec struct {
	res Cell
	val int
}

func (r *benchRec) Recycle() { r.res.Reset() }

// BenchmarkFutureWait is one read of a pooled call record's result: a
// process parks in Result.Get, and another completes the record and lets
// go of it, as a decode step's call completes. The record recycles itself
// once both holders have let go. One op is one park, one completion and
// one wake, no allocation.
func BenchmarkFutureWait(b *testing.B) {
	c := NewClock()
	r := new(benchRec)
	r.res.Init(c, r)
	c.Go("reader", func() {
		for n := 0; n < b.N; n++ {
			if v, err := Hold(&r.res, &r.val).Get(); err != nil || v != n {
				b.Fatalf("read %d, %v; want %d", v, err, n)
			}
		}
	})
	c.Go("completer", func() {
		for n := 0; n < b.N; n++ {
			c.Sleep(time.Microsecond) // the reader parks
			r.val = n
			r.res.Resolve()
			r.res.Release()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := c.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkClockTimer is one timer from After to its callback, re-armed from
// inside it, with one process parked so the clock stays alive: a heap push,
// a pop and a call — no switch, no allocation. One op is one timer.
func BenchmarkClockTimer(b *testing.B) {
	c := NewClock()
	done := NewSignal(c)
	n := 0
	var tick func()
	tick = func() {
		if n++; n == b.N {
			Fire(done)
			return
		}
		c.After(time.Microsecond, tick)
	}
	c.Go("host", func() {
		c.After(time.Microsecond, tick)
		Await(done)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := c.Run(); err != nil {
		b.Fatal(err)
	}
}

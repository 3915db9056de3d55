// Package sim provides a deterministic discrete-event simulation runtime.
//
// One rule decides what is a process: only code that blocks. Inferlets,
// clients and engines block, and each runs as a cooperative process on a
// shared virtual Clock. Whatever only waits and then acts is a timer — a
// callback armed with After (or Every, for a period) that runs between
// processes and never blocks — or a busy-until timestamp. A device
// finishing a kernel, a batch crossing the IPC boundary, the scheduler's
// kick and its T-only and K-only ticks, a tool call's latency, a launch
// deadline, a fault plan's events, the cluster's policy tick and a fleet
// prewarm's uploads are timers, and so is every step of a baseline engine,
// which runs on its device's completion callback; launch admission and the
// backend's ingress are busy-until timestamps. A launch's requeue after a
// replica death sleeps its backoff and relaunches, so it is a process, and
// like every process it keeps Run alive until it ends.
//
// Exactly one process or timer executes at any instant. A process blocks
// only in Sleep and on a WaitList (Future.Get, Result.Get, Mailbox.Recv and
// Group.Wait park on one), and each hands control to the earliest pending
// event, ordered by (virtual time, sequence number). This makes experiments
// with hundreds of concurrent agents fully deterministic and lets hours of
// simulated GPU time replay in milliseconds of wall time.
//
// Simulated code must never block on real OS primitives (time.Sleep,
// channel receives, sync.WaitGroup); it must use the Clock's primitives so
// the scheduler can observe the block and advance virtual time.
//
// The event loop is the hottest path in the repository. One goroutine —
// the caller of Run — owns dispatch; every process is a coroutine
// (iter.Pull) that the loop resumes with a direct switch: no channel, no
// scheduler, no futex. Run has two modes: to completion (the default: it
// returns when every process has finished) and external (EnableExternal:
// it idles for Inject until Shutdown). A process that
// blocks picks its successor itself under the clock lock (one heap push and
// one pop, fused into a single sift for Sleep), yields it to the loop and is
// suspended; when its own event is the next to run it never leaves its
// coroutine at all. A timer that comes due runs right there, on whichever
// coroutine is picking the successor: it costs a heap pop and a call, no
// switch. Coroutines cost more to make than goroutines, so a
// finished process's coroutine is pooled for the next spawn, and when the
// clock finishes the loop unwinds whatever is still suspended (waiters
// nobody resolved, after a deadlock or a Shutdown): a finished clock leaves
// no goroutine behind.
// The rest is an inlined 4-ary heap (heap.go) and a free list of event
// records.
package sim

import (
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"
)

// procState tracks where a process currently lives in the scheduler.
type procState int

const (
	stateReady    procState = iota // queued in the event heap
	stateRunning                   // the single currently-executing process
	stateSleeping                  // in the heap with a future wake time
	stateParked                    // blocked on a WaitList, not in the heap
	stateDead                      // finished or killed and unwound
)

// Proc is a simulated process. Procs are created with Clock.Go and are
// scheduled cooperatively; a Proc's coroutine runs only while it is the
// clock's current process.
type Proc struct {
	id     uint64
	name   string
	fn     func()  // the body, until the process finishes
	w      *worker // the coroutine hosting it, from first dispatch to finish
	state  procState
	killed bool
	ev     *event // pending heap event while ready/sleeping
	// parkToken increments on every wait on a WaitList; a wake or release
	// that carries a stale token (e.g. a future resolving after the waiter
	// was killed) is ignored.
	parkToken uint64
}

// Name returns the debugging name given at spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id (assigned in spawn order).
func (p *Proc) ID() uint64 { return p.id }

// Killed reports whether the process has been killed with Clock.Kill.
func (p *Proc) Killed() bool { return p.killed }

type event struct {
	t         time.Duration
	seq       uint64
	p         *Proc  // the process to resume; nil for a timer
	fn        func() // the timer's callback
	cancelled bool
}

// worker is a pooled coroutine hosting one process at a time. The loop
// resumes it with next; it suspends by yielding the process the loop should
// resume in its place (nil when there is none).
type worker struct {
	p     *Proc
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
}

// block suspends the running process p, naming next as its successor, and
// returns when p is dispatched again. It reports whether p must unwind:
// killed (nothing runs between a dispatch and the resume, so the flag is
// the one the dispatcher saw), or the clock finished and is reaping.
func (p *Proc) block(next *Proc) bool {
	return !p.w.yield(next) || p.killed
}

// Killed is the panic value delivered to a process that was terminated with
// Clock.Kill while blocked. Runtimes hosting user code recover it at the
// process boundary.
type Killed struct{ Reason string }

func (k Killed) Error() string { return "sim: process killed: " + k.Reason }

// totalEvents aggregates events processed by finished clocks across the
// whole process; the eval harness runs many clocks (in parallel) and
// pie-bench reports the sum as a wall-clock throughput.
var totalEvents atomic.Uint64

// TotalEvents returns the number of events processed by all clocks that
// have finished (or been shut down) so far in this process.
func TotalEvents() uint64 { return totalEvents.Load() }

// Clock is the discrete-event scheduler. The zero value is not usable; use
// NewClock.
type Clock struct {
	mu       sync.Mutex
	now      atomic.Int64 // virtual time: written under mu, read by Now without it
	seq      uint64
	heap     eventHeap
	pool     []*event // free list of recycled event records
	current  *Proc
	inTimer  bool // a timer's callback is running (current is nil meanwhile)
	live     int  // spawned and not yet finished
	parked   int  // processes in stateParked
	finished bool
	err      error

	// Every coroutine made and not yet reaped, and those among them whose
	// process has finished. Owned by the goroutine driving the loop.
	workers []*worker
	idle    []*worker

	// events is atomic (not mu-guarded) so Events can be read from any
	// goroutine while the loop runs, without contending for the clock lock.
	events atomic.Uint64

	external bool // keep running while idle, waiting for Inject
	shutdown bool
	running  bool // Run has been entered (guards against nested Run)
	// wakeCh rouses the idle loop in external mode: signalled by Inject, a
	// wait-list wake or release from outside the simulation, Shutdown and
	// the idle-pacing timer.
	wakeCh chan struct{}

	// Idle-server pacing (external mode, only timers left): the timer due
	// at virtual time idleFor may run once the wall clock reaches
	// idleUntil. A zero idleUntil means no wait is armed. See
	// idleWaitLocked.
	idleFor   time.Duration
	idleUntil time.Time
}

// NewClock returns a fresh virtual clock at time zero.
func NewClock() *Clock { return &Clock{} }

// EnableExternal puts the clock in server mode: when the event heap drains
// while processes remain parked, Run waits for Inject or Shutdown instead of
// reporting a deadlock. Used by interactive front-ends (cmd/pie-server).
func (c *Clock) EnableExternal() {
	c.mu.Lock()
	c.external = true
	c.wakeCh = make(chan struct{}, 1)
	c.mu.Unlock()
}

// wake rouses the loop if it is idle in external mode; otherwise the
// signal is dropped or costs one empty dispatch attempt later.
func (c *Clock) wake() {
	select {
	case c.wakeCh <- struct{}{}:
	default:
	}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// advanceLocked moves virtual time forward to t, never back.
func (c *Clock) advanceLocked(t time.Duration) {
	if t > c.Now() {
		c.now.Store(int64(t))
	}
}

// Current returns the currently-executing process, or nil when called from
// outside the simulation.
func (c *Clock) Current() *Proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current
}

// newEventLocked takes an event record from the free list (or makes a new
// one) and stamps it with the next sequence number.
func (c *Clock) newEventLocked(t time.Duration) *event {
	c.seq++
	if n := len(c.pool); n > 0 {
		ev := c.pool[n-1]
		c.pool = c.pool[:n-1]
		ev.t, ev.seq, ev.cancelled = t, c.seq, false
		return ev
	}
	return &event{t: t, seq: c.seq}
}

// allocEventLocked makes p's next event.
func (c *Clock) allocEventLocked(t time.Duration, p *Proc) *event {
	ev := c.newEventLocked(t)
	ev.p, p.ev = p, ev
	return ev
}

func (c *Clock) pushLocked(t time.Duration, p *Proc) {
	c.heap.push(c.allocEventLocked(t, p))
}

// recycleLocked returns an event record to the free list.
func (c *Clock) recycleLocked(ev *event) {
	ev.p, ev.fn = nil, nil
	c.pool = append(c.pool, ev)
}

// Go spawns fn as a new process named name, runnable at the current virtual
// time. It may be called from inside a process or from the coordinator
// before Run.
func (c *Clock) Go(name string, fn func()) *Proc {
	return c.spawn(name, fn, "Go")
}

// After arms a timer: fn runs d of virtual time from now, at its (time,
// sequence) slot among the processes and other timers due then. A timer has
// no process. fn runs with none current and must not block (a blocking call
// panics as one from outside the simulation does), but it may do anything
// else a process may: resolve futures, send, spawn, arm timers. A pending
// timer does not keep Run alive: Run returns when the last process ends,
// and the finished clock drops it. Arming one allocates nothing when fn is
// a method value bound once; call After from simulation code or before Run.
func (c *Clock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	if !c.finished {
		ev := c.newEventLocked(c.Now() + d)
		ev.fn = fn
		c.heap.push(ev)
	}
	c.mu.Unlock()
}

// Every arms a periodic timer: fn runs every d of virtual time from now,
// re-armed after each run, until the clock finishes. fn is a timer's
// callback and must not block. The re-arming closure is made once, here, so
// a tick allocates nothing.
func (c *Clock) Every(d time.Duration, fn func()) {
	if d <= 0 {
		panic("sim: Every needs a positive period")
	}
	var tick func()
	tick = func() {
		fn()
		c.After(d, tick)
	}
	c.After(d, tick)
}

// spawn queues a new process for its first dispatch at the current virtual
// time. It gets a coroutine when the loop first resumes it.
func (c *Clock) spawn(name string, fn func(), api string) *Proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		panic("sim: " + api + " after clock finished")
	}
	c.seq++
	p := &Proc{id: c.seq, name: name, fn: fn, state: stateReady}
	c.live++
	c.pushLocked(c.Now(), p)
	return p
}

// loop is the event loop. It resumes one process at a time; each hands
// back its successor when it blocks or finishes. A nil successor means the
// clock finished or (external mode) the clock is idle, in which case the
// loop sleeps until wake.
func (c *Clock) loop() {
	for idle := false; ; idle = true {
		if idle {
			<-c.wakeCh
		}
		c.mu.Lock()
		p := c.dispatchNextLocked()
		c.mu.Unlock()
		for p != nil {
			p = c.resume(p)
		}
		c.mu.Lock()
		done := c.finished || !c.external
		c.mu.Unlock()
		if done {
			return
		}
	}
}

// resume switches to p's coroutine — on p's first dispatch a pooled one,
// or a new one — and returns the successor p yields. A process killed
// before its first dispatch still runs to its first blocking call, and
// unwinds there (Kill). A panic in the process other than Killed
// propagates to the loop's caller.
func (c *Clock) resume(p *Proc) *Proc {
	w := p.w
	if w == nil {
		if n := len(c.idle); n > 0 {
			w, c.idle = c.idle[n-1], c.idle[:n-1]
		} else {
			w = c.newWorker()
		}
		w.p, p.w = p, w
	}
	next, _ := w.next()
	return next
}

// newWorker makes a coroutine that runs one process after another: each
// body under the Killed recover, then finish, then back in the pool until
// resume gives it a new tenant or reap stops it.
func (c *Clock) newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(*Proc) bool) {
		w.yield = yield
		for {
			runBody(w.p.fn)
			if !yield(c.finish(w)) {
				return
			}
		}
	})
	c.workers = append(c.workers, w)
	return w
}

func runBody(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Killed); !ok {
				panic(r)
			}
			// killed processes unwind silently
		}
	}()
	fn()
}

// finish retires w's process, pools w, and picks the next event.
func (c *Clock) finish(w *worker) *Proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := w.p
	p.state, p.fn, p.w, w.p = stateDead, nil, nil, nil
	c.live--
	c.idle = append(c.idle, w)
	return c.dispatchNextLocked()
}

// reap runs after the clock finishes: it unwinds every process still
// suspended (waiters nobody resolved) and frees the pooled
// coroutines. stop makes a suspended yield return false, so the process
// panics Killed at its block site and runs its defers; a blocking call it
// makes while unwinding fails the same way at once.
func (c *Clock) reap() {
	for _, w := range c.workers {
		c.mu.Lock()
		c.current = w.p
		c.mu.Unlock()
		w.stop()
	}
	c.workers, c.idle = nil, nil // an unwound process's worker pooled itself
	c.mu.Lock()
	c.current = nil
	c.mu.Unlock()
}

// dispatchNextLocked selects the earliest pending event, marks its process
// running, and returns it for the loop to resume; timers that come due first
// run here, one after another, with the lock released. It returns nil when
// there is nothing to resume: the simulation finished or deadlocked, or the
// clock went idle in external mode. The simulation is over when every
// process has finished; pending timers are dropped.
func (c *Clock) dispatchNextLocked() *Proc {
	if c.finished {
		return nil
	}
	if c.live == 0 && !c.external {
		c.finishClockLocked()
		return nil
	}
	for c.heap.len() > 0 {
		if c.heap.min().ev.cancelled {
			c.recycleLocked(c.heap.pop())
			continue
		}
		if c.external && c.live == 0 {
			if c.shutdown {
				break // only timers remain: nothing left to shut down for
			}
			if !c.idleWaitLocked(c.heap.min().t) {
				c.current = nil
				return nil
			}
		}
		ev := c.heap.pop()
		c.advanceLocked(ev.t)
		c.events.Add(1)
		p := ev.p
		if p == nil {
			fn := ev.fn
			c.recycleLocked(ev)
			// A timer cannot finish a process, and Shutdown leaves a clock
			// that is inside one alone: neither check above needs repeating.
			c.current, c.inTimer = nil, true
			c.mu.Unlock()
			fn()
			c.mu.Lock()
			c.inTimer = false
			continue
		}
		p.ev = nil
		c.recycleLocked(ev)
		p.state = stateRunning
		c.current = p
		return p
	}
	c.current = nil
	if c.external && !c.shutdown {
		// Server mode: stay alive waiting for injected work — even with no
		// live process. (Requiring live > 0 here used to finish the clock
		// the moment start-up went idle, so the first Inject from an HTTP
		// handler panicked with "Inject after clock finished".)
		return nil
	}
	if c.live > 0 && !c.external {
		// Shut down in external mode, a parked process waits for outside
		// input, not a deadlock: the reap unwinds it.
		c.err = fmt.Errorf("sim: deadlock at %v: %d process(es) blocked with no pending events", c.Now(), c.live)
	}
	c.finishClockLocked()
	return nil
}

// idleWaitLocked keeps an idle server from free-running its periodic
// timers (the cluster tick's health checks and reconcile passes): with no
// live process there is nobody to serve by racing ahead, and a timer that
// re-arms itself would otherwise spin a core. It reports whether the next
// timer, due at virtual time t, may run now. The first call for a timer
// arms a wall timer as long as its virtual distance and answers no; the
// wall timer's wake (or any later dispatch attempt past the deadline)
// answers yes. The wait belongs to the timer, not to the idle spell:
// requests that come and go meanwhile run at once (Inject makes the clock
// live) and do not push the deadline back, so frequent polling cannot
// starve the timers.
func (c *Clock) idleWaitLocked(t time.Duration) bool {
	now := c.Now()
	if t <= now {
		return true
	}
	if c.idleUntil.IsZero() || c.idleFor != t {
		c.idleFor = t
		c.idleUntil = time.Now().Add(t - now)
		time.AfterFunc(t-now, c.wake)
		return false
	}
	if time.Now().Before(c.idleUntil) {
		return false
	}
	c.idleUntil = time.Time{}
	return true
}

// finishClockLocked marks the simulation over and publishes its event count
// to the process-wide total.
func (c *Clock) finishClockLocked() {
	if c.finished {
		return
	}
	c.finished = true
	totalEvents.Add(c.events.Load())
}

// Run drives the simulation until every process has finished (or, in
// external mode, until Shutdown), on the calling goroutine. It returns a
// non-nil error if the simulation deadlocked. Run must be called from
// outside the simulation.
func (c *Clock) Run() error {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		panic("sim: Run called re-entrantly")
	}
	c.running = true
	c.mu.Unlock()
	c.loop()
	c.reap()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Inject schedules fn as a new process from outside the simulation (e.g. a
// real HTTP handler in server mode) and wakes the loop if it is idle. The
// caller never runs simulation work itself.
func (c *Clock) Inject(name string, fn func()) *Proc {
	p := c.spawn(name, fn, "Inject")
	c.wake()
	return p
}

// Shutdown ends an external-mode simulation once it next goes idle: no
// process running and nothing pending but timers. Processes still parked
// then are unwound; Run reports no deadlock for them.
func (c *Clock) Shutdown() {
	c.mu.Lock()
	c.shutdown = true
	if c.current == nil && !c.inTimer && (c.heap.live() == 0 || c.live == 0) && !c.finished {
		c.finishClockLocked()
	}
	c.mu.Unlock()
	c.wake()
}

// Sleep suspends the current process for d of virtual time. A non-positive
// d yields the processor, letting other same-time events run first.
func (c *Clock) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	p := c.current
	if p == nil {
		c.mu.Unlock()
		panic("sim: Sleep called from outside the simulation")
	}
	if p.killed {
		// Killed before it first ran, or while running: unwind at once
		// instead of sleeping out d.
		c.mu.Unlock()
		panic(Killed{Reason: "terminated before it blocked"})
	}
	p.state = stateSleeping
	next := c.sleepDispatchLocked(p, c.Now()+d)
	killed := p.killed
	c.mu.Unlock()
	// Fast path when next == p: our own event was the earliest, so control
	// never leaves this coroutine.
	if next != p {
		killed = p.block(next)
	}
	if killed {
		panic(Killed{Reason: "terminated while blocked"})
	}
}

// sleepDispatchLocked is the fused push+dispatch for Sleep, the single
// hottest operation in the simulator. When the sleeping process's own wake
// at time t precedes everything pending, it is redispatched directly — no
// heap traffic, no event record, no coroutine switch. Otherwise, when the
// minimum is a process's, its event replaces it in one sift instead of a push
// followed by a pop.
func (c *Clock) sleepDispatchLocked(p *Proc, t time.Duration) *Proc {
	if c.finished {
		return nil // p is unwinding in the reap: nothing runs after it
	}
	for c.heap.len() > 0 && c.heap.min().ev.cancelled {
		c.recycleLocked(c.heap.pop())
	}
	if c.heap.len() > 0 && c.heap.min().t <= t && c.heap.min().ev.p == nil {
		// A timer is due first: the generic path runs it.
		c.pushLocked(t, p)
		return c.dispatchNextLocked()
	}
	if c.heap.len() == 0 || t < c.heap.min().t {
		c.seq++ // the skipped event still consumes its sequence number
		c.advanceLocked(t)
		p.state = stateRunning
		c.events.Add(1)
		return p
	}
	ev := c.heap.replaceMin(c.allocEventLocked(t, p))
	c.advanceLocked(ev.t)
	nextP := ev.p
	nextP.ev = nil
	c.recycleLocked(ev)
	nextP.state = stateRunning
	c.current = nextP
	c.events.Add(1)
	return nextP
}

// unwindIfKilled panics Killed in the current process if it was killed: a
// call that would not block (a receive that finds a message) must not act
// for a killed process either. Outside the simulation it does nothing.
func (c *Clock) unwindIfKilled() {
	c.mu.Lock()
	killed := c.current != nil && c.current.killed
	c.mu.Unlock()
	if killed {
		panic(Killed{Reason: "terminated before it blocked"})
	}
}

// Yield is Sleep(0): requeue behind all currently-ready events.
func (c *Clock) Yield() { c.Sleep(0) }

// Kill terminates a process. If it is blocked (sleeping or parked) it is
// scheduled immediately and unwinds with a Killed panic at its block site.
// One not yet dispatched is scheduled immediately too and runs to its first
// blocking call, where it unwinds at once. Killing the current or an
// already-dead process only sets the flag; the process observes it at its
// next blocking call.
func (c *Clock) Kill(p *Proc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.killed || p.state == stateDead {
		p.killed = true
		return
	}
	p.killed = true
	switch p.state {
	case stateSleeping, stateReady:
		c.cancelLocked(p)
		c.pushLocked(c.Now(), p)
		p.state = stateReady
	case stateParked:
		c.parked--
		c.pushLocked(c.Now(), p)
		p.state = stateReady
	case stateRunning:
		// Will observe the flag at its next blocking call.
	}
}

// cancelLocked drops p's pending heap event, if any: it stays in the heap,
// marked, until popped or compacted away.
func (c *Clock) cancelLocked(p *Proc) {
	if p.ev != nil {
		p.ev.cancelled = true
		c.heap.cancelled++
		p.ev = nil
		c.heap.maybeCompact(c.recycleLocked)
	}
}

// Stats reports coarse scheduler state for diagnostics: live and parked
// process counts, pending (non-cancelled) events, and the total number of
// events this clock has processed.
func (c *Clock) Stats() (live, parked, pending int, events uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live, c.parked, c.heap.live(), c.events.Load()
}

// Events returns the number of events this clock has processed so far. The
// counter is atomic, so reading it from outside the simulation is safe while
// the loop runs.
func (c *Clock) Events() uint64 {
	return c.events.Load()
}

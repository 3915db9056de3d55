package sim

import "time"

// WaitList is a FIFO of parked processes: besides Sleep, the one way a
// process blocks. Futures and call-record cells (Get), mailboxes (Recv),
// groups, device page room and handoff transfer slots each park on one.
// What the waiters wait for is the owner's business; the list orders them
// and hands each wake to exactly one:
//
//   - a waiter parks at the tail, or at the head (a woken waiter that still
//     cannot proceed keeps its place);
//   - Wake goes to the head waiter only, and takes it off the list;
//   - a wait may carry a deadline;
//   - a waiter killed while parked is skipped, and one killed after a wake
//     reached it, before it resumed, passes the wake on;
//   - Release lets every waiter go without a wake (a completed future, a
//     closed mailbox, a group whose count reached zero). A released waiter
//     stays listed until it resumes.
//
// A wait reuses the process's park token and, with a deadline, its own heap
// event, and the list keeps its first waiter in an array of its own: no
// wait allocates, not even the first. A list must not be copied once a
// process has parked on it.
type WaitList struct {
	c *Clock
	// q[head:] are the parked processes, head first. The array is reused
	// the way cmdQueue's is: a list that drains restarts at its front, and
	// one that never drains compacts before it would grow.
	q     []waiter
	head  int
	owner unclaimer
	one   [1]waiter // q's first array
}

// waiter is a parked process and the park token of the wait it is in.
type waiter struct {
	p     *Proc
	token uint64
}

// unclaimer is a list's owner, told of a wake that found nobody to take it.
type unclaimer interface{ unclaimed() }

type hook func()

func (f hook) unclaimed() {
	if f != nil {
		f()
	}
}

// NewWaitList returns an empty list on clock c. unclaimed, when not nil,
// runs when a wake that a killed waiter passes on finds nobody parked: an
// owner that hands a unit of its resource over with each wake frees the
// unit there.
func NewWaitList(c *Clock, unclaimed func()) *WaitList {
	return &WaitList{c: c, owner: hook(unclaimed)}
}

// Len reports the number of parked waiters. A waiter killed while parked
// counts until its process unwinds.
func (l *WaitList) Len() int {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return len(l.q) - l.head
}

// Wait parks the calling process on the list, at the head when front is
// set and at the tail otherwise, until Wake reaches it or, when deadline is
// positive, until virtual time reaches deadline. It reports whether a wake
// reached it; false means the deadline came first, or a Release. A process
// killed while parked unwinds with Killed, as from any blocking call; if a
// wake had already reached it, it passes the wake on first.
func (l *WaitList) Wait(front bool, deadline time.Duration) bool {
	l.c.mu.Lock()
	woken := l.waitLocked(front, deadline)
	l.c.mu.Unlock()
	return woken
}

// waitLocked is Wait under the clock lock, which it returns holding: a
// caller that checks whether it must wait under the same lock (a
// completion) cannot miss a release from outside the simulation in
// between.
func (l *WaitList) waitLocked(front bool, deadline time.Duration) bool {
	c := l.c
	p := c.current
	if p == nil {
		c.mu.Unlock()
		panic("sim: blocking call from outside the simulation")
	}
	if p.killed {
		// Killed before it first ran, or while running: nothing is listed,
		// so there is no wake to pass on.
		c.mu.Unlock()
		panic(Killed{Reason: "terminated before it blocked"})
	}
	if deadline > 0 && deadline <= c.Now() {
		return false
	}
	p.parkToken++
	l.pushLocked(waiter{p: p, token: p.parkToken}, front)
	if deadline > 0 {
		// A timed wait sleeps until its deadline unless Wake cuts it short.
		p.state = stateSleeping
		c.pushLocked(deadline, p)
	} else {
		p.state = stateParked
		c.parked++
	}
	next := c.dispatchNextLocked()
	killed := p.killed
	c.mu.Unlock()
	// next == p when a timer that ran meanwhile woke p and nothing else was
	// due before it: control stays in this coroutine.
	if next != p {
		killed = p.block(next)
	}
	c.mu.Lock()
	listed := l.removeLocked(p)
	if killed {
		c.mu.Unlock()
		if !listed {
			l.pass()
		}
		panic(Killed{Reason: "terminated while blocked"})
	}
	return !listed
}

// pushLocked adds w at the head (front) or the tail.
func (l *WaitList) pushLocked(w waiter, front bool) {
	if cap(l.q) == 0 {
		l.q = l.one[:0]
	}
	switch {
	case front && l.head > 0:
		l.head--
		l.q[l.head] = w
	case front:
		l.q = append(l.q, waiter{})
		copy(l.q[1:], l.q)
		l.q[0] = w
	default:
		if l.head > 0 && len(l.q) == cap(l.q) {
			n := copy(l.q, l.q[l.head:])
			clear(l.q[n:])
			l.q, l.head = l.q[:n], 0
		}
		l.q = append(l.q, w)
	}
}

// popLocked removes and returns the head waiter; the list must not be
// empty.
func (l *WaitList) popLocked() waiter {
	w := l.q[l.head]
	l.q[l.head] = waiter{}
	if l.head++; l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	return w
}

// removeLocked takes p's entry off the list and reports whether it was
// there: a waiter that resumes still listed was not reached by a wake.
// Released waiters resume in the order they parked, each at the head.
func (l *WaitList) removeLocked(p *Proc) bool {
	for i := l.head; i < len(l.q); i++ {
		switch {
		case l.q[i].p != p:
			continue
		case i == l.head:
			l.popLocked()
		default:
			copy(l.q[i:], l.q[i+1:])
			l.q[len(l.q)-1] = waiter{}
			l.q = l.q[:len(l.q)-1]
		}
		return true
	}
	return false
}

// Wake makes the head waiter runnable at the current time and reports
// whether there was one. A head that was killed and has not unwound yet
// still takes the wake: it passes it on when it unwinds.
func (l *WaitList) Wake() bool {
	c := l.c
	c.mu.Lock()
	if l.head == len(l.q) {
		c.mu.Unlock()
		return false
	}
	c.readyLocked(l.popLocked())
	c.mu.Unlock()
	return true
}

// Release makes every parked waiter runnable at the current time, in the
// order they parked, without handing it a wake: each returns false from
// Wait, as at a deadline. A released waiter keeps its place until it
// resumes, so a wake that a killed waiter passes on meanwhile may still
// reach it (Wait then reports true); one killed before it resumes has no
// wake to pass on.
func (l *WaitList) Release() {
	c := l.c
	c.mu.Lock()
	for _, w := range l.q[l.head:] {
		c.readyLocked(w)
	}
	c.mu.Unlock()
}

// readyLocked makes w's process runnable at the current time if it is still
// parked or sleeping on the wait that w records. In external mode a
// goroutine outside the simulation (an HTTP handler resolving a future) may
// do so while the loop is idle: then it rouses the loop.
func (c *Clock) readyLocked(w waiter) {
	p := w.p
	if p.parkToken != w.token {
		return
	}
	switch p.state {
	case stateParked:
		c.parked--
	case stateSleeping:
		c.cancelLocked(p)
	default:
		return
	}
	p.state = stateReady
	c.pushLocked(c.Now(), p)
	if c.external && c.current == nil && !c.inTimer {
		c.wake()
	}
}

// pass hands on a wake its waiter cannot use: to the next waiter, or to the
// owner's unclaimed hook when nobody is parked.
func (l *WaitList) pass() {
	if !l.Wake() && l.owner != nil {
		l.owner.unclaimed()
	}
}

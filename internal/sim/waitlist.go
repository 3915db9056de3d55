package sim

import "time"

// WaitList is a FIFO of processes waiting for a scarce resource (transfer
// slots, device page room). What the resource is, and whether a woken
// waiter finds enough of it, is the owner's business; the list orders the
// waiters and hands each wake to exactly one of them:
//
//   - a waiter parks at the tail, or at the head (a woken waiter that still
//     cannot proceed keeps its place);
//   - Wake goes to the head waiter only;
//   - a wait may carry a deadline;
//   - a waiter killed while parked is skipped, and one killed after a wake
//     reached it, before it resumed, passes the wake on;
//   - Release lets every waiter go without a wake (a closed mailbox).
//
// A wait reuses the process's park token and, with a deadline, its own heap
// event: it allocates no Signal, no closure and no timer.
type WaitList struct {
	c *Clock
	// q[head:] are the parked processes, head first. The array is reused
	// the way cmdQueue's is: a list that drains restarts at its front, and
	// one that never drains compacts before it would grow.
	q     []waiter
	head  int
	owner unclaimer
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
// reached it; false means the deadline came first. A process killed while
// parked unwinds with Killed, as from any blocking call; if a wake had
// already reached it, it passes the wake on first.
func (l *WaitList) Wait(front bool, deadline time.Duration) bool {
	c := l.c
	c.mu.Lock()
	p := c.current
	if p == nil {
		c.mu.Unlock()
		panic("sim: WaitList.Wait from outside the simulation")
	}
	if deadline > 0 && deadline <= c.now {
		c.mu.Unlock()
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
	if next != p {
		killed = p.block(next)
	}
	c.mu.Lock()
	listed := l.removeLocked(p)
	c.mu.Unlock()
	if killed {
		if !listed {
			l.pass()
		}
		panic(Killed{Reason: "terminated while blocked"})
	}
	return !listed
}

// pushLocked adds w at the head (front) or the tail.
func (l *WaitList) pushLocked(w waiter, front bool) {
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
func (l *WaitList) removeLocked(p *Proc) bool {
	for i := l.head; i < len(l.q); i++ {
		if l.q[i].p == p {
			copy(l.q[i:], l.q[i+1:])
			l.q[len(l.q)-1] = waiter{}
			l.q = l.q[:len(l.q)-1]
			if l.head == len(l.q) {
				l.q, l.head = l.q[:0], 0
			}
			return true
		}
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

// Release makes every parked waiter runnable at the current time without
// handing it a wake: each returns false from Wait, as at a deadline. A
// released waiter keeps its place until it resumes, so a wake that a killed
// waiter passes on meanwhile may still reach it (Wait then reports true);
// one killed before it resumes has no wake to pass on.
func (l *WaitList) Release() {
	c := l.c
	c.mu.Lock()
	for _, w := range l.q[l.head:] {
		c.readyLocked(w)
	}
	c.mu.Unlock()
}

// readyLocked makes w's process runnable at the current time if it is still
// parked or sleeping on the wait that w records.
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
	c.pushLocked(c.now, p)
}

// pass hands on a wake its waiter cannot use: to the next waiter, or to the
// owner's unclaimed hook when nobody is parked.
func (l *WaitList) pass() {
	if !l.Wake() && l.owner != nil {
		l.owner.unclaimed()
	}
}

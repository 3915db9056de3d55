package sim

import (
	"errors"

	"pie/api"
)

// ErrFailed is returned by Future.Get when the future was failed without a
// specific error.
var ErrFailed = errors.New("sim: future failed")

// completion is what a Future and a record's Cell share: whether the
// result is in, with what error, and who waits for it or is told of it.
type completion struct {
	c    *Clock
	done bool
	err  error
	// Waiters wake in arrival order: first, then more. Nearly every
	// completion has exactly one, which therefore costs no allocation.
	first waiter
	more  []waiter
	subs  []func()
}

type waiter struct {
	p     *Proc
	token uint64
}

// Done reports whether the result is in.
func (x *completion) Done() bool {
	x.c.mu.Lock()
	defer x.c.mu.Unlock()
	return x.done
}

// Fail completes with err and wakes all waiters.
func (x *completion) Fail(err error) {
	if err == nil {
		err = ErrFailed
	}
	x.complete(err)
}

// complete marks the result in and wakes all waiters. Completing twice
// panics: it indicates a double-completion bug.
func (x *completion) complete(err error) {
	x.c.mu.Lock()
	if x.done {
		x.c.mu.Unlock()
		panic("sim: completed twice")
	}
	x.done, x.err = true, err
	first, more, subs := x.first, x.more, x.subs
	x.first, x.more, x.subs = waiter{}, nil, nil
	x.c.mu.Unlock()
	// Callbacks run before waiters wake so api.Any relays fire first —
	// the wake order stays deterministic either way, but this keeps the
	// "first completion wins" rule independent of waiter registration.
	for _, fn := range subs {
		fn()
	}
	if first.p != nil {
		x.c.unpark(first.p, first.token)
	}
	for _, w := range more {
		x.c.unpark(w.p, w.token)
	}
}

// wait blocks the calling process until the result is in and returns its
// error.
func (x *completion) wait() error {
	c := x.c
	c.mu.Lock()
	if !x.done {
		p := c.current
		if p == nil {
			c.mu.Unlock()
			panic("sim: Get from outside the simulation")
		}
		if w := (waiter{p: p, token: p.parkToken + 1}); x.first.p == nil {
			x.first = w
		} else {
			x.more = append(x.more, w)
		}
		c.mu.Unlock()
		c.park()
		c.mu.Lock()
	}
	err := x.err
	c.mu.Unlock()
	return err
}

// Subscribe registers fn to run exactly once when the result is in; if it
// already is, fn runs immediately. This is the api.Subscriber hook behind
// the future combinators.
func (x *completion) Subscribe(fn func()) {
	x.c.mu.Lock()
	if x.done {
		x.c.mu.Unlock()
		fn()
		return
	}
	x.subs = append(x.subs, fn)
	x.c.mu.Unlock()
}

// MakeRelay mints an unresolved one-shot latch on this clock, implementing
// api.RelayMaker for the Any combinator.
func (x *completion) MakeRelay() api.Relay { return relay{s: NewSignal(x.c)} }

// relay adapts a Signal to api.Relay with idempotent Fire.
type relay struct{ s *Signal }

func (r relay) Fire() {
	if !r.s.Done() {
		Fire(r.s)
	}
}

func (r relay) Await() error { return Await(r.s) }

// Future is a one-shot result that any number of processes may Get; all of
// them resume once Resolve or Fail is called. Futures complete what several
// processes may wait on (a synchronize, a launch's end, a Group); one call's
// result is a Result.
type Future[T any] struct {
	completion
	val T
}

// NewFuture creates an unresolved future on clock c.
func NewFuture[T any](c *Clock) *Future[T] {
	f := new(Future[T])
	f.Init(c)
	return f
}

// Init makes f an unresolved future on clock c, in place (a record that
// holds its future by value).
func (f *Future[T]) Init(c *Clock) { *f = Future[T]{completion: completion{c: c}} }

// Resolve completes the future with v and wakes all waiters.
func (f *Future[T]) Resolve(v T) {
	f.val = v // a Get reads it only once complete says it is in
	f.complete(nil)
}

// Get blocks the calling process until the future completes, then returns
// its value and error.
func (f *Future[T]) Get() (T, error) {
	err := f.wait()
	return f.val, err
}

// Signal is a value-less future used as a completion barrier.
type Signal = Future[struct{}]

// NewSignal creates an unresolved Signal.
func NewSignal(c *Clock) *Signal { return NewFuture[struct{}](c) }

// Fire resolves a Signal.
func Fire(s *Signal) { s.Resolve(struct{}{}) }

// Await blocks until the signal fires.
func Await(s *Signal) error {
	_, err := s.Get()
	return err
}

// Group waits for a dynamic set of subtasks, like sync.WaitGroup but on
// virtual time.
type Group struct {
	c      *Clock
	n      int
	signal *Signal
}

// NewGroup returns an empty group.
func NewGroup(c *Clock) *Group { return &Group{c: c} }

// Add registers n more subtasks.
func (g *Group) Add(n int) { g.n += n }

// Done marks one subtask complete.
func (g *Group) Done() {
	g.n--
	if g.n < 0 {
		panic("sim: Group.Done without Add")
	}
	if g.n == 0 && g.signal != nil {
		s := g.signal
		g.signal = nil
		Fire(s)
	}
}

// Wait blocks until the count drops to zero.
func (g *Group) Wait() {
	if g.n == 0 {
		return
	}
	if g.signal == nil {
		g.signal = NewSignal(g.c)
	}
	s := g.signal
	_, _ = s.Get()
}

// Go runs fn as a child process tracked by the group.
func (g *Group) Go(name string, fn func()) {
	g.Add(1)
	g.c.Go(name, func() {
		defer g.Done()
		fn()
	})
}

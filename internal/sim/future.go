package sim

import (
	"errors"

	"pie/api"
)

// ErrFailed is returned by Future.Get when the future was failed without a
// specific error.
var ErrFailed = errors.New("sim: future failed")

// Future is a one-shot result cell. Any number of processes may Get; all of
// them resume once Resolve or Fail is called. Futures are the asynchronous
// completion primitive for every API call in the system.
type Future[T any] struct {
	c    *Clock
	done bool
	val  T
	err  error
	// Waiters wake in arrival order: first, then more. Nearly every future
	// has exactly one, which therefore costs no allocation.
	first waiter
	more  []waiter
	subs  []func()
}

type waiter struct {
	p     *Proc
	token uint64
}

// NewFuture creates an unresolved future on clock c.
func NewFuture[T any](c *Clock) *Future[T] {
	return &Future[T]{c: c}
}

// Resolved returns an already-resolved future holding v.
func Resolved[T any](c *Clock, v T) *Future[T] {
	return &Future[T]{c: c, done: true, val: v}
}

// FailedFuture returns an already-failed future holding err.
func FailedFuture[T any](c *Clock, err error) *Future[T] {
	if err == nil {
		err = ErrFailed
	}
	return &Future[T]{c: c, done: true, err: err}
}

// Done reports whether the future has been resolved or failed.
func (f *Future[T]) Done() bool {
	f.c.mu.Lock()
	defer f.c.mu.Unlock()
	return f.done
}

// Resolve completes the future with v and wakes all waiters. Resolving an
// already-completed future panics: it indicates a double-completion bug.
func (f *Future[T]) Resolve(v T) { f.complete(v, nil) }

// Fail completes the future with err and wakes all waiters.
func (f *Future[T]) Fail(err error) {
	var zero T
	if err == nil {
		err = ErrFailed
	}
	f.complete(zero, err)
}

func (f *Future[T]) complete(v T, err error) {
	f.c.mu.Lock()
	if f.done {
		f.c.mu.Unlock()
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = v
	f.err = err
	first, more := f.first, f.more
	f.first, f.more = waiter{}, nil
	subs := f.subs
	f.subs = nil
	f.c.mu.Unlock()
	// Callbacks run before waiters wake so api.Any relays fire first —
	// the wake order stays deterministic either way, but this keeps the
	// "first completion wins" rule independent of waiter registration.
	for _, fn := range subs {
		fn()
	}
	if first.p != nil {
		f.c.unpark(first.p, first.token)
	}
	for _, w := range more {
		f.c.unpark(w.p, w.token)
	}
}

// Subscribe registers fn to run exactly once when the future completes;
// if it already has, fn runs immediately. This is the api.Subscriber hook
// behind the future combinators.
func (f *Future[T]) Subscribe(fn func()) {
	f.c.mu.Lock()
	if f.done {
		f.c.mu.Unlock()
		fn()
		return
	}
	f.subs = append(f.subs, fn)
	f.c.mu.Unlock()
}

// MakeRelay mints an unresolved one-shot latch on this future's clock,
// implementing api.RelayMaker for the Any combinator.
func (f *Future[T]) MakeRelay() api.Relay { return relay{s: NewSignal(f.c)} }

// relay adapts a Signal to api.Relay with idempotent Fire.
type relay struct{ s *Signal }

func (r relay) Fire() {
	if !r.s.Done() {
		Fire(r.s)
	}
}

func (r relay) Await() error { return Await(r.s) }

// Get blocks the calling process until the future completes, then returns
// its value and error.
func (f *Future[T]) Get() (T, error) {
	f.c.mu.Lock()
	if f.done {
		v, err := f.val, f.err
		f.c.mu.Unlock()
		return v, err
	}
	p := f.c.current
	if p == nil {
		f.c.mu.Unlock()
		panic("sim: Future.Get from outside the simulation")
	}
	if w := (waiter{p: p, token: p.parkToken + 1}); f.first.p == nil {
		f.first = w
	} else {
		f.more = append(f.more, w)
	}
	f.c.mu.Unlock()
	f.c.park()
	f.c.mu.Lock()
	v, err := f.val, f.err
	f.c.mu.Unlock()
	return v, err
}

// MustGet is Get for futures that cannot fail in correct programs; it
// panics on error.
func (f *Future[T]) MustGet() T {
	v, err := f.Get()
	if err != nil {
		panic(err)
	}
	return v
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

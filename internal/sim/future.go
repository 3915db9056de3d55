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
	waiters WaitList // the processes in Get, released in the order they came
	done    bool
	err     error
	subs    []func()
}

// Done reports whether the result is in.
func (x *completion) Done() bool {
	x.waiters.c.mu.Lock()
	defer x.waiters.c.mu.Unlock()
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
	c := x.waiters.c
	c.mu.Lock()
	if x.done {
		c.mu.Unlock()
		panic("sim: completed twice")
	}
	x.done, x.err = true, err
	subs := x.subs
	x.subs = nil
	c.mu.Unlock()
	// Callbacks run before waiters wake so api.Any relays fire first —
	// the wake order stays deterministic either way, but this keeps the
	// "first completion wins" rule independent of waiter registration.
	for _, fn := range subs {
		fn()
	}
	x.waiters.Release()
}

// wait blocks the calling process until the result is in and returns its
// error. It checks and parks under one lock, so a completion from outside
// the simulation cannot slip in between.
func (x *completion) wait() error {
	c := x.waiters.c
	c.mu.Lock()
	if !x.done {
		x.waiters.waitLocked(false, 0)
	}
	err := x.err
	c.mu.Unlock()
	return err
}

// Subscribe registers fn to run exactly once when the result is in; if it
// already is, fn runs immediately. This is the api.Subscriber hook behind
// the future combinators.
func (x *completion) Subscribe(fn func()) {
	c := x.waiters.c
	c.mu.Lock()
	if x.done {
		c.mu.Unlock()
		fn()
		return
	}
	x.subs = append(x.subs, fn)
	c.mu.Unlock()
}

// MakeRelay mints an unresolved one-shot latch on this clock, implementing
// api.RelayMaker for the Any combinator.
func (x *completion) MakeRelay() api.Relay { return relay{s: NewSignal(x.waiters.c)} }

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
func (f *Future[T]) Init(c *Clock) { *f = Future[T]{completion: completion{waiters: WaitList{c: c}}} }

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
	n       int
	waiters WaitList // released when n reaches zero
}

// NewGroup returns an empty group.
func NewGroup(c *Clock) *Group { return &Group{waiters: WaitList{c: c}} }

// Add registers n more subtasks.
func (g *Group) Add(n int) { g.n += n }

// Done marks one subtask complete.
func (g *Group) Done() {
	g.n--
	if g.n < 0 {
		panic("sim: Group.Done without Add")
	}
	if g.n == 0 {
		g.waiters.Release()
	}
}

// Wait blocks until the count drops to zero.
func (g *Group) Wait() {
	if g.n > 0 {
		g.waiters.Wait(false, 0)
	}
}

// Go runs fn as a child process tracked by the group.
func (g *Group) Go(name string, fn func()) {
	g.Add(1)
	g.waiters.c.Go(name, func() {
		defer g.Done()
		fn()
	})
}

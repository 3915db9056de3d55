package api

// Future combinators. Inferlets are single-threaded and event-driven;
// before these existed every program hand-rolled "issue N calls, Get them
// in order" loops. The combinators compose futures without blocking until
// the composed value is demanded:
//
//	dists, err := api.All(f1, f2, f3).Get()        // await everything
//	first, err := api.Any(toolA, toolB).Get()      // first completion wins
//	text := api.Then(tokF, decodeFn)               // transform lazily
//
// A combinator future is owned by the inferlet that created it and must
// not be shared across sim processes. It reads each future it wraps at
// most once, as a call's result must be read (sim.Result), and a second
// Get of the combinator returns what the first read.

// Subscriber is the optional interface of runtime futures that can invoke
// a callback when they complete. Subscribe runs fn exactly once — either
// immediately, when the future is already complete, or at completion time.
// Every future returned by a Pie API call implements it.
type Subscriber interface {
	Subscribe(fn func())
}

// Relay is a one-shot completion latch on the runtime's virtual clock:
// Any parks the calling inferlet on a relay fired by the first completion.
type Relay interface {
	// Fire completes the relay; extra calls are no-ops.
	Fire()
	// Await blocks the calling process until the relay fires.
	Await() error
}

// RelayMaker is the optional interface of runtime futures that can mint a
// Relay on their own clock. Every future returned by a Pie API call
// implements it.
type RelayMaker interface {
	MakeRelay() Relay
}

// trySubscribe registers fn on f when f supports completion callbacks;
// it reports whether fn is guaranteed to run (either it already did —
// f was complete — or it will at completion time).
func trySubscribe[T any](f Future[T], fn func()) bool {
	if s, ok := f.(Subscriber); ok {
		s.Subscribe(fn)
		return true
	}
	if f.Done() {
		fn()
		return true
	}
	return false
}

// relayOf mints a relay from the first of fs that can (or a future it
// wraps); nil when none can.
func relayOf[T any](fs ...Future[T]) Relay {
	for _, f := range fs {
		if rm, ok := f.(RelayMaker); ok {
			if r := rm.MakeRelay(); r != nil {
				return r
			}
		}
	}
	return nil
}

// All composes futures into one that resolves with every value, in
// argument order, or fails with the first error encountered.
func All[T any](fs ...Future[T]) Future[[]T] {
	return &allFuture[T]{fs: fs}
}

type allFuture[T any] struct {
	fs   []Future[T]
	done bool
	vals []T
	err  error
}

func (a *allFuture[T]) Done() bool {
	if a.done {
		return true
	}
	for _, f := range a.fs {
		if !f.Done() {
			return false
		}
	}
	return true
}

func (a *allFuture[T]) Get() ([]T, error) {
	if a.done {
		return a.vals, a.err
	}
	vals := make([]T, len(a.fs))
	for i, f := range a.fs {
		v, err := f.Get()
		if err != nil {
			a.done, a.err = true, err
			return nil, err
		}
		vals[i] = v
	}
	a.done, a.vals = true, vals
	return vals, nil
}

// Subscribe implements Subscriber by delegation: fn runs once every
// underlying future has completed (combinators nest inside Any).
func (a *allFuture[T]) Subscribe(fn func()) {
	remaining := len(a.fs)
	if remaining == 0 {
		fn()
		return
	}
	// Single-threaded inferlet runtime: no atomics needed.
	countdown := func() {
		remaining--
		if remaining == 0 {
			fn()
		}
	}
	for _, f := range a.fs {
		trySubscribe(f, countdown)
	}
}

// MakeRelay implements RelayMaker by delegating to the first underlying
// future that can mint one; nil when none can.
func (a *allFuture[T]) MakeRelay() Relay { return relayOf(a.fs...) }

// Any composes futures into one that resolves with the value (or error)
// of the first to complete. Ties at the same virtual instant break in
// argument order. Any panics when called with no futures.
func Any[T any](fs ...Future[T]) Future[T] {
	if len(fs) == 0 {
		panic("api: Any of zero futures")
	}
	return &anyFuture[T]{fs: fs}
}

type anyFuture[T any] struct {
	fs   []Future[T]
	done bool
	val  T
	err  error
}

func (a *anyFuture[T]) winner() Future[T] {
	for _, f := range a.fs {
		if f.Done() {
			return f
		}
	}
	return nil
}

func (a *anyFuture[T]) Done() bool { return a.done || a.winner() != nil }

// Get reads the winner once; a later Get returns what the first read.
func (a *anyFuture[T]) Get() (T, error) {
	if !a.done {
		a.val, a.err = a.await().Get()
		a.done = true
	}
	return a.val, a.err
}

// await returns the first future to complete, waiting if none has: it
// parks on a relay that every future's completion fires. Combinator
// futures delegate Subscribe/MakeRelay to the runtime futures they wrap,
// so nesting (Any of Then of All ...) races correctly too.
func (a *anyFuture[T]) await() Future[T] {
	if w := a.winner(); w != nil {
		return w
	}
	if relay := a.MakeRelay(); relay != nil {
		armed := false
		for _, f := range a.fs {
			armed = trySubscribe(f, relay.Fire) || armed
		}
		if armed {
			_ = relay.Await()
			if w := a.winner(); w != nil {
				return w
			}
		}
	}
	// Degraded mode for futures that cannot subscribe (tests, fakes), or
	// a relay that fired with no winner: the first future, once done,
	// wins in argument order.
	return a.fs[0]
}

// Subscribe implements Subscriber by delegation: fn runs once the first
// underlying future completes (Fire-style callbacks are idempotent at
// the relay, so multiple completions are harmless).
func (a *anyFuture[T]) Subscribe(fn func()) {
	for _, f := range a.fs {
		trySubscribe(f, fn)
	}
}

// MakeRelay implements RelayMaker by delegating to the first underlying
// future that can mint one; nil when none can.
func (a *anyFuture[T]) MakeRelay() Relay { return relayOf(a.fs...) }

// Then derives a future that applies fn to f's value once it resolves.
// fn runs at most once, in the process that first Gets the derived
// future; errors short-circuit.
func Then[T, U any](f Future[T], fn func(T) (U, error)) Future[U] {
	return &thenFuture[T, U]{f: f, fn: fn}
}

type thenFuture[T, U any] struct {
	f    Future[T]
	fn   func(T) (U, error)
	done bool
	val  U
	err  error
}

func (t *thenFuture[T, U]) Done() bool { return t.done || t.f.Done() }

func (t *thenFuture[T, U]) Get() (U, error) {
	if t.done {
		return t.val, t.err
	}
	v, err := t.f.Get()
	if err != nil {
		t.done, t.err = true, err
		return t.val, err
	}
	t.val, t.err = t.fn(v)
	t.done = true
	return t.val, t.err
}

// Subscribe implements Subscriber by delegating to the wrapped future
// (the transform is lazy; completion of the source IS completion here).
func (t *thenFuture[T, U]) Subscribe(fn func()) { trySubscribe(t.f, fn) }

// MakeRelay implements RelayMaker by delegation; nil when the wrapped
// future cannot mint one.
func (t *thenFuture[T, U]) MakeRelay() Relay { return relayOf(t.f) }

// Map composes All and a per-element transform: the derived future
// resolves with fn applied to every input value, in order.
func Map[T, U any](fs []Future[T], fn func(T) (U, error)) Future[[]U] {
	return Then(All(fs...), func(vals []T) ([]U, error) {
		out := make([]U, len(vals))
		for i, v := range vals {
			u, err := fn(v)
			if err != nil {
				return nil, err
			}
			out[i] = u
		}
		return out, nil
	})
}

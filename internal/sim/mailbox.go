package sim

// Mailbox is an unbounded FIFO queue with blocking receive, the message
// primitive for user↔inferlet and inferlet↔inferlet communication.
type Mailbox[T any] struct {
	c       *Clock
	buf     []T
	waiters []*Future[T] // parked receivers, oldest first
	closed  bool
	// readable holds the one-shot OnReadable hooks waiting for the next
	// buffered message or Close.
	readable []func()
}

// NewMailbox returns an empty mailbox on clock c.
func NewMailbox[T any](c *Clock) *Mailbox[T] {
	return &Mailbox[T]{c: c}
}

// Send enqueues v, waking the oldest pending receiver if any. Send never
// blocks.
func (m *Mailbox[T]) Send(v T) {
	if m.closed {
		return // messages to a closed mailbox are dropped
	}
	if len(m.waiters) > 0 {
		shift(&m.waiters).Resolve(v)
		return
	}
	m.buf = append(m.buf, v)
	m.fireReadable()
}

// shift removes and returns the first element of a FIFO. A drained FIFO
// restarts at the front of its backing array, so a mailbox that takes one
// message (or parks one receiver) at a time never reallocates.
func shift[T any](q *[]T) T {
	s := *q
	v := s[0]
	var zero T
	s[0] = zero // the array outlives the element
	if len(s) == 1 {
		*q = s[:0]
	} else {
		*q = s[1:]
	}
	return v
}

// FIFO is a first-in first-out queue for state machines driven by timers
// (a device's kernels, a backend's batches in flight). It keeps its array
// the way a mailbox does: one that drains between pushes never reallocates.
type FIFO[T any] struct{ s []T }

// Push appends v.
func (q *FIFO[T]) Push(v T) { q.s = append(q.s, v) }

// Pop removes and returns the oldest element; the FIFO must not be empty.
func (q *FIFO[T]) Pop() T { return shift(&q.s) }

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.s) }

// OnReadable runs fn once, the next time a receive would not block: from
// inside the Send that queues a message (one handed straight to a parked
// receiver does not count) or from inside Close, and at once if a message
// is already queued or the mailbox is closed. It consumes nothing and parks
// no process, so a watcher that goes away leaves the mailbox as it found
// it; to keep watching, register again after fn has run. fn runs on the
// simulation's goroutine and must not block.
func (m *Mailbox[T]) OnReadable(fn func()) {
	if len(m.buf) > 0 || m.closed {
		fn()
		return
	}
	m.readable = append(m.readable, fn)
}

func (m *Mailbox[T]) fireReadable() {
	fns := m.readable
	m.readable = nil
	for _, fn := range fns {
		fn()
	}
}

// RecvFuture returns a future that resolves with the next message. If a
// message is already queued the future is resolved immediately.
func (m *Mailbox[T]) RecvFuture() *Future[T] {
	if len(m.buf) > 0 {
		return Resolved(m.c, shift(&m.buf))
	}
	if m.closed {
		return FailedFuture[T](m.c, ErrMailboxClosed)
	}
	f := NewFuture[T](m.c)
	m.waiters = append(m.waiters, f)
	return f
}

// Recv blocks the calling process until a message arrives.
func (m *Mailbox[T]) Recv() (T, error) {
	return m.RecvFuture().Get()
}

// TryRecv returns a queued message without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	var zero T
	if len(m.buf) == 0 {
		return zero, false
	}
	return shift(&m.buf), true
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return len(m.buf) }

// Close fails all pending receivers and drops future sends.
func (m *Mailbox[T]) Close() {
	if m.closed {
		return
	}
	m.closed = true
	ws := m.waiters
	m.waiters = nil
	for _, f := range ws {
		f.Fail(ErrMailboxClosed)
	}
	m.fireReadable()
}

// ErrMailboxClosed is returned by receives on a closed, drained mailbox.
var ErrMailboxClosed = errorString("sim: mailbox closed")

type errorString string

func (e errorString) Error() string { return string(e) }

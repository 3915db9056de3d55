package sim

import (
	"errors"
	"slices"

	"pie/api"
)

// Mailbox is an unbounded FIFO queue with blocking receive, the message
// primitive for user↔inferlet and inferlet↔inferlet communication.
//
// Recv parks the caller on the mailbox's own wait list and allocates
// nothing; receivers are served in the order they came, each message to
// one receiver.
type Mailbox[T any] struct {
	buf []T // starts on one, so a mailbox that holds one message at a time allocates nothing
	one [1]T
	// owed counts the messages at the front of buf that Sends handed to
	// receivers they woke from Recv: such a receiver takes the front
	// message when it resumes, and no other receiver may take one of
	// them meanwhile.
	owed   int
	recv   WaitList // the receivers parked in Recv
	closed bool
	// readable holds the one-shot OnReadable hooks waiting for the next
	// receivable message or Close.
	readable []func()
}

// NewMailbox returns an empty mailbox on clock c.
func NewMailbox[T any](c *Clock) *Mailbox[T] {
	m := new(Mailbox[T])
	m.Init(c)
	return m
}

// Init makes m an empty mailbox on clock c, in place: a record that holds
// its mailboxes by value (a launch handle) sets them up without allocating.
// The mailbox refers to itself, so it must not be copied after Init.
func (m *Mailbox[T]) Init(c *Clock) {
	*m = Mailbox[T]{recv: WaitList{c: c, owner: m}}
	m.buf = m.one[:0]
}

// Send enqueues v, handing it to the oldest waiting receiver if any. Send
// never blocks.
func (m *Mailbox[T]) Send(v T) {
	if m.closed {
		return // messages to a closed mailbox are dropped
	}
	m.buf = append(m.buf, v)
	if m.recv.Wake() {
		m.owed++
		return
	}
	m.fireReadable()
}

// unclaimed frees a message whose woken receiver was killed before it
// resumed, when no other receiver is parked to take it over.
func (m *Mailbox[T]) unclaimed() {
	m.owed--
	m.fireReadable()
}

// receivable reports whether a receive would not block.
func (m *Mailbox[T]) receivable() bool { return m.Len() > 0 || m.closed }

// take removes and returns the first message not owed to a woken receiver;
// there must be one.
func (m *Mailbox[T]) take() T {
	if m.owed == 0 {
		return shift(&m.buf)
	}
	v := m.buf[m.owed]
	m.buf = slices.Delete(m.buf, m.owed, m.owed+1)
	return v
}

// shift removes and returns the first element of a FIFO. A drained FIFO
// restarts at the front of its backing array, so a mailbox that takes one
// message at a time never reallocates.
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
// inside the Send that queues a message (one a parked receiver is woken
// for does not count), from inside Close, and
// at once if a message is already receivable or the mailbox is closed. It
// consumes nothing and parks no process, so a watcher that goes away
// leaves the mailbox as it found it; to keep watching, register again
// after fn has run. fn runs on the simulation's goroutine and must not
// block.
func (m *Mailbox[T]) OnReadable(fn func()) {
	if m.receivable() {
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

// Recv blocks the calling process until a message arrives and returns it,
// or ErrMailboxClosed once the mailbox is closed and drained. It parks on
// the mailbox's wait list, so it allocates nothing; a receiver killed after
// a Send woke it leaves its message to the next parked receiver, or
// buffered. A killed receiver unwinds before it takes a message, so the
// message stays buffered for the next receiver.
func (m *Mailbox[T]) Recv() (T, error) {
	m.recv.c.unwindIfKilled()
	for {
		if m.Len() > 0 {
			return m.take(), nil
		}
		if m.closed {
			var zero T
			return zero, ErrMailboxClosed
		}
		// A wake carries the front message; Close releases without one.
		if m.recv.Wait(false, 0) {
			m.owed--
			return shift(&m.buf), nil
		}
	}
}

// TryRecv returns a receivable message without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	if m.Len() == 0 {
		var zero T
		return zero, false
	}
	return m.take(), true
}

// Len reports the number of receivable messages.
func (m *Mailbox[T]) Len() int { return len(m.buf) - m.owed }

// Close fails all pending receivers and drops future sends. A receiver a
// Send already woke still takes its message; messages still queued stay
// receivable.
func (m *Mailbox[T]) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.recv.Release()
	m.fireReadable()
}

// Receiver is a mailbox's receive operation as an api.Future: each Get
// takes the next message (Mailbox.Recv), and Done reports that a receive
// would not block. It holds only the mailbox, so storing it in an
// api.Future allocates nothing, and it takes no message until Get: an
// api.Any it loses leaves the mailbox as it was.
type Receiver[T any] struct{ m *Mailbox[T] }

// Receiver returns m's receive operation.
func (m *Mailbox[T]) Receiver() Receiver[T] { return Receiver[T]{m} }

// Get blocks until a message arrives and takes it (Mailbox.Recv).
func (r Receiver[T]) Get() (T, error) { return r.m.Recv() }

// Done reports whether a receive would not block: a message is receivable
// or the mailbox is closed.
func (r Receiver[T]) Done() bool { return r.m.receivable() }

// Subscribe runs fn once, the next time a receive would not block
// (Mailbox.OnReadable): the api.Subscriber hook of the combinators.
func (r Receiver[T]) Subscribe(fn func()) { r.m.OnReadable(fn) }

// MakeRelay mints a one-shot latch on the mailbox's clock (api.RelayMaker).
func (r Receiver[T]) MakeRelay() api.Relay { return relay{s: NewSignal(r.m.recv.c)} }

// ErrMailboxClosed is returned by receives on a closed, drained mailbox.
var ErrMailboxClosed = errors.New("sim: mailbox closed")

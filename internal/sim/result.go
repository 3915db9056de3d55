package sim

import "pie/api"

// Cell is the result cell of a pooled call record, whose value lives in the
// record beside it. While a Result is out (Hold) the record has two
// holders, the completing party (Release) and the Result's first Get, which
// lets go when it returns or its process is killed; the later recycles the
// record through its owner, and Reset moves the cell on a generation. Only
// simulation code touches a record, so the holder flags need no lock.
type Cell struct {
	completion
	owner Recycler
	gen   uint32
	held  bool // a Result is out and its first Get has not returned
	freed bool // the completing party let go while held
	read  bool // a Get has claimed the result
}

// Recycler takes back a record whose cell both holders let go of.
type Recycler interface{ Recycle() }

// Init binds a new record's cell to its clock and owner.
func (x *Cell) Init(c *Clock, owner Recycler) { x.waiters.c, x.owner = c, owner }

// Reset blanks the cell for the record's next call, one generation on. Its
// wait list is empty by then (the reader has resumed) and keeps its array.
func (x *Cell) Reset() {
	x.done, x.err, x.subs, x.gen = false, nil, nil, x.gen+1
	x.held, x.freed, x.read = false, false, false
}

// Blank reports whether the cell is as Reset leaves it.
func (x *Cell) Blank() bool {
	return !x.done && x.err == nil && len(x.waiters.q)+len(x.subs) == 0 && !x.held && !x.freed && !x.read
}

// Resolve completes the cell: its value is in the record.
func (x *Cell) Resolve() { x.complete(nil) }

// Release is the completing party letting go: it recycles the record
// unless a Result is out, whose first Get then does.
func (x *Cell) Release() {
	if x.freed = x.held; !x.held {
		x.owner.Recycle()
	}
}

// letGo is the first Get letting go.
func (x *Cell) letGo() {
	if x.held = false; x.freed {
		x.owner.Recycle()
	}
}

// Result is a call's result: its record's cell, the value's place in the
// record and the call's generation, or a ready value with no record. It is
// read once: a later Get fails with api.ErrResultRead, never reading
// another call's value. As an api.Future (to combine it) it costs one
// allocation.
type Result[T any] struct {
	x   *Cell // nil for a ready value
	val *T
	gen uint32
	v   T // a ready value
}

// Hold hands out the result of x's call, whose record keeps the value at
// val. A Result never read leaves its record to the GC.
func Hold[T any](x *Cell, val *T) Result[T] {
	x.held = true
	return Result[T]{x: x, val: val, gen: x.gen}
}

// Ready returns a result that is already in.
func Ready[T any](v T) Result[T] { return Result[T]{v: v} }

// Get blocks the calling process until the result is in and returns it.
func (r Result[T]) Get() (T, error) {
	x := r.x
	if x == nil {
		return r.v, nil
	}
	if x.gen != r.gen || x.read {
		var zero T
		return zero, api.ErrResultRead
	}
	x.read = true
	defer x.letGo()
	err := x.wait()
	return *r.val, err
}

// Done reports whether the result is in; one whose record has moved on
// stays done.
func (r Result[T]) Done() bool { return r.x == nil || r.x.gen != r.gen || r.x.Done() }

// Subscribe runs fn once the result is in, at once if it already is.
func (r Result[T]) Subscribe(fn func()) {
	if r.x == nil || r.x.gen != r.gen {
		fn()
		return
	}
	r.x.Subscribe(fn)
}

// MakeRelay mints a one-shot latch on the record's clock; a ready value
// has none.
func (r Result[T]) MakeRelay() api.Relay {
	if r.x == nil {
		return nil
	}
	return r.x.MakeRelay()
}

package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// The park protocol against a reference model. A script of bytes decodes to
// bursts of operations: parks (on a WaitList, with and without a deadline,
// at the front or the tail), wakes, releases and kills; mailbox receives,
// sends, closes, TryRecvs and OnReadable hooks; future and call-record
// completions; group adds and dones. A director process runs each burst on
// a real clock at one virtual instant and then sleeps one step, so
// everything made runnable runs; the model runs the same burst and the same
// step. After every step the two must agree on who resumed when, with what
// (each wake, message and result), on the waiters still listed, the
// processes the clock counts parked, the wakes passed to an owner's
// unclaimed hook, the hooks run, the messages owed and the call records
// recycled. A recycled record's cell must read Blank. At the end everything
// is released and nothing may stay parked.
//
// The model keeps what the real clock keeps in its heap as one FIFO of
// runnable processes, and deadlines fall between the director's steps, so
// the order in which processes run is the order they were made runnable.

const modelStep = 10 * time.Microsecond

type waitKind int

const (
	onList    waitKind = iota // WaitList.Wait
	onMailbox                 // Mailbox.Recv
	onFuture                  // Future.Get
	onCell                    // Result.Get
	onGroup                   // Group.Wait
)

type mState int

const (
	mNew      mState = iota // spawned, not yet run
	mParked                 // listed, untimed
	mSleeping               // listed, until its deadline
	mReady                  // runnable
	mDone
)

// The operations, by what they do to both sides.
const (
	opPark      = iota // a process parks on the list, timed or not, at the front or the tail
	opRecv             // a process receives from the mailbox
	opGet              // a process reads the future
	opCall             // a call record's result is handed out and a process reads it
	opGroupWait        // a process waits for the group
	opWake             // the list's Wake
	opRelease          // the list's Release
	opKill             // a live process is killed, started or not
	opSend             // a message to the mailbox
	opClose            // the mailbox closes
	opResolve          // the future completes or fails
	opComplete         // a pending call completes or fails, and its completing party lets go
	opAdd              // the group counts more
	opDone             // the group counts one down
	opWatch            // an OnReadable hook on the mailbox
	opTryRecv          // the director receives without blocking
)

// opMix weighs the operations: parks, wakes, sends and kills come often, so
// that lists hold several waiters when wakes and kills arrive.
var opMix = []int{
	opPark, opPark, opPark, opPark, opRecv, opRecv, opRecv, opGet, opGet, opCall, opCall, opGroupWait,
	opWake, opWake, opWake, opWake, opRelease, opKill, opKill, opKill, opKill,
	opSend, opSend, opSend, opSend, opClose, opResolve, opComplete, opComplete, opAdd, opDone, opWatch, opTryRecv, opTryRecv,
}

// mProc is one process in the model, and its real counterpart.
type mProc struct {
	name     string
	kind     waitKind
	obj      int // the mailbox, future or record it waits on
	front    bool
	deadline time.Duration
	order    int // when it parked timed: ties between equal deadlines
	state    mState
	killed   bool
	real     *Proc
}

// mList is a wait list in the model: its listed processes, head first.
type mList struct{ q []*mProc }

func (l *mList) remove(p *mProc) bool {
	i := slices.Index(l.q, p)
	if i < 0 {
		return false
	}
	l.q = slices.Delete(l.q, i, i+1)
	return true
}

type mMailbox struct {
	buf      []int
	owed     int
	closed   bool
	recv     mList
	watchers int // OnReadable hooks not yet run
}

type mCompletion struct {
	done    bool
	failed  bool
	val     int
	waiters mList
}

type mRecord struct {
	mCompletion
	held, freed bool
}

type parkModel struct {
	now       time.Duration
	runnable  []*mProc
	procs     []*mProc
	log       []string
	list      mList
	unclaimed int
	fired     int // OnReadable hooks run
	boxes     []*mMailbox
	futs      []*mCompletion
	recs      []*mRecord // every result handed out, in order
	recOf     []int      // the record each result uses
	pool      []int      // free records, last freed first
	nrecs     int
	recycled  int
	groupN    int
	group     mList
	timed     int
}

// ready makes p runnable if it is parked or sleeping.
func (m *parkModel) ready(p *mProc) {
	if p.state == mParked || p.state == mSleeping {
		p.state = mReady
		m.runnable = append(m.runnable, p)
	}
}

func (m *parkModel) wake(l *mList) bool {
	if len(l.q) == 0 {
		return false
	}
	h := l.q[0]
	l.q = l.q[1:]
	m.ready(h)
	return true
}

func (m *parkModel) release(l *mList) {
	for _, p := range l.q {
		m.ready(p)
	}
}

func (m *parkModel) kill(p *mProc) {
	if p.killed || p.state == mDone {
		p.killed = true
		return
	}
	p.killed = true
	if p.state == mReady || p.state == mNew {
		m.runnable = slices.Delete(m.runnable, slices.Index(m.runnable, p), slices.Index(m.runnable, p)+1)
	}
	if p.state != mNew {
		p.state = mReady
	}
	m.runnable = append(m.runnable, p)
}

// listOf is the wait list p parks on.
func (m *parkModel) listOf(p *mProc) *mList {
	switch p.kind {
	case onMailbox:
		return &m.boxes[p.obj].recv
	case onFuture:
		return &m.futs[p.obj].waiters
	case onCell:
		return &m.recs[p.obj].waiters
	case onGroup:
		return &m.group
	}
	return &m.list
}

// completionOf is the future or call record p reads.
func (m *parkModel) completionOf(p *mProc) *mCompletion {
	if p.kind == onFuture {
		return m.futs[p.obj]
	}
	return &m.recs[p.obj].mCompletion
}

// park lists p, at the head when front is set.
func (m *parkModel) park(p *mProc, front bool) {
	if p.killed {
		// Killed before its first wait: it unwinds there, listed nowhere.
		m.finish(p, "killed")
		if p.kind == onCell {
			m.letGo(p.obj)
		}
		return
	}
	l := m.listOf(p)
	if front {
		l.q = slices.Insert(l.q, 0, p)
	} else {
		l.q = append(l.q, p)
	}
	p.state = mParked
	if p.deadline > 0 {
		p.state = mSleeping
		m.timed++
		p.order = m.timed
	}
}

// pass hands a wake a killed waiter cannot use to the next waiter, or to
// the owner's unclaimed hook.
func (m *parkModel) pass(p *mProc) {
	if m.wake(m.listOf(p)) {
		return
	}
	switch p.kind {
	case onList:
		m.unclaimed++
	case onMailbox:
		m.boxes[p.obj].owed--
		m.readable(m.boxes[p.obj])
	}
}

// readable runs b's OnReadable hooks.
func (m *parkModel) readable(b *mMailbox) {
	m.fired += b.watchers
	b.watchers = 0
}

// take removes the first message not owed to a woken receiver.
func (b *mMailbox) take() int {
	v := b.buf[b.owed]
	b.buf = slices.Delete(b.buf, b.owed, b.owed+1)
	return v
}

func (m *parkModel) finish(p *mProc, outcome string) {
	p.state = mDone
	m.log = append(m.log, fmt.Sprintf("%v %s %s", m.now, p.name, outcome))
}

func completionOutcome(x *mCompletion) string {
	if x.failed {
		return "failed"
	}
	return fmt.Sprint("got ", x.val)
}

// letGo is a result's first Get returning: the later of the two holders
// recycles the record.
func (m *parkModel) letGo(res int) {
	r := m.recs[res]
	if r.held = false; r.freed {
		m.recycled++
		m.pool = append(m.pool, m.recOf[res])
	}
}

// receive is one pass of Mailbox.Recv's loop for a receiver not carrying a
// wake: take the first message not owed, fail on a closed mailbox, or park.
func (m *parkModel) receive(p *mProc) {
	b := m.boxes[p.obj]
	switch {
	case len(b.buf) > b.owed:
		m.finish(p, fmt.Sprint("got ", b.take()))
	case b.closed:
		m.finish(p, "closed")
	default:
		m.park(p, false)
	}
}

// run is p's turn: its first blocking call, or its resume from a wait.
func (m *parkModel) run(p *mProc) {
	if p.state == mNew {
		switch p.kind {
		case onList:
			m.park(p, p.front)
		case onMailbox:
			if p.killed {
				// Recv unwinds a killed receiver before it takes a message.
				m.finish(p, "killed")
				return
			}
			m.receive(p)
		case onFuture, onCell:
			x := m.completionOf(p)
			if !x.done {
				m.park(p, false)
				return
			}
			m.finish(p, completionOutcome(x))
			if p.kind == onCell {
				m.letGo(p.obj)
			}
		case onGroup:
			if m.groupN == 0 {
				m.finish(p, "released")
				return
			}
			m.park(p, false)
		}
		return
	}
	listed := m.listOf(p).remove(p)
	if p.killed {
		if !listed {
			m.pass(p)
		}
		m.finish(p, "killed")
		if p.kind == onCell {
			m.letGo(p.obj)
		}
		return
	}
	switch p.kind {
	case onList:
		m.finish(p, map[bool]string{true: "not woken", false: "woken"}[listed])
	case onMailbox:
		if listed {
			m.receive(p)
			return
		}
		b := m.boxes[p.obj]
		b.owed--
		v := b.buf[0]
		b.buf = b.buf[1:]
		m.finish(p, fmt.Sprint("got ", v))
	case onFuture:
		m.finish(p, completionOutcome(m.completionOf(p)))
	case onCell:
		m.finish(p, completionOutcome(m.completionOf(p)))
		m.letGo(p.obj)
	case onGroup:
		m.finish(p, "released")
	}
}

// step runs the director's sleep of one step: every runnable process in the
// order it was made runnable, then the deadlines that fall in the step.
func (m *parkModel) step() {
	for len(m.runnable) > 0 {
		p := m.runnable[0]
		m.runnable = m.runnable[1:]
		m.run(p)
	}
	start := m.now
	for {
		var next *mProc
		for _, p := range m.procs {
			if p.state == mSleeping && p.deadline < start+modelStep &&
				(next == nil || p.deadline < next.deadline || p.deadline == next.deadline && p.order < next.order) {
				next = p
			}
		}
		if next == nil {
			break
		}
		m.now = next.deadline
		m.listOf(next).remove(next)
		m.finish(next, "not woken")
	}
	m.now = start + modelStep
}

// modelRec is a pooled call record with an int result.
type modelRec struct {
	res Cell
	val int
	id  int
	h   *parkHarness
}

func (r *modelRec) Recycle() {
	if len(r.res.waiters.q) != 0 {
		r.h.t.Errorf("record %d recycled with %d waiters listed", r.id, len(r.res.waiters.q))
	}
	r.res.Reset()
	if !r.res.Blank() {
		r.h.t.Errorf("record %d recycled and not blank", r.id)
	}
	r.h.recycled++
	r.h.pool = append(r.h.pool, r)
}

// parkHarness is the real side: the objects the model mirrors and the log
// the processes write.
type parkHarness struct {
	t         *testing.T
	c         *Clock
	list      *WaitList
	unclaimed int
	fired     int
	boxes     []*Mailbox[int]
	futs      []*Future[int]
	recs      []*modelRec // the record of each result handed out
	results   []Result[int]
	pool      []*modelRec
	recycled  int
	group     *Group
	log       []string
}

var errModel = errors.New("model failure")

// block is p's blocking call on the real objects.
func (h *parkHarness) block(p *mProc) string {
	outcome := func(v int, err error) string {
		switch {
		case errors.Is(err, ErrMailboxClosed):
			return "closed"
		case err != nil:
			return "failed"
		}
		return fmt.Sprint("got ", v)
	}
	switch p.kind {
	case onMailbox:
		return outcome(h.boxes[p.obj].Recv())
	case onFuture:
		return outcome(h.futs[p.obj].Get())
	case onCell:
		return outcome(h.results[p.obj].Get())
	case onGroup:
		h.group.Wait()
		return "released"
	}
	if h.list.Wait(p.front, p.deadline) {
		return "woken"
	}
	return "not woken"
}

func (h *parkHarness) spawn(p *mProc) {
	p.real = h.c.Go(p.name, func() {
		returned := false
		defer func() {
			if !returned {
				h.log = append(h.log, fmt.Sprintf("%v %s killed", h.c.Now(), p.name))
			}
		}()
		out := h.block(p)
		returned = true
		h.log = append(h.log, fmt.Sprintf("%v %s %s", h.c.Now(), p.name, out))
	})
}

// script reads operations off a byte string; a drained script reads zeros.
type script struct {
	b []byte
	i int
}

func (s *script) next() int {
	if s.i++; s.i > len(s.b) {
		return 0
	}
	return int(s.b[s.i-1])
}

func (s *script) done() bool { return s.i >= len(s.b) }

// runParkModel runs script on a clock and on the model and fails t at the
// first step where they disagree.
func runParkModel(t *testing.T, b []byte) {
	c := NewClock()
	h := &parkHarness{t: t, c: c, group: NewGroup(c)}
	h.list = NewWaitList(c, func() { h.unclaimed++ })
	h.boxes = []*Mailbox[int]{NewMailbox[int](c)}
	h.futs = []*Future[int]{NewFuture[int](c)}
	m := &parkModel{boxes: []*mMailbox{{}}, futs: []*mCompletion{{}}}
	s := &script{b: b}
	sent := 0

	spawn := func(kind waitKind, obj int, front bool, deadline time.Duration) {
		p := &mProc{name: fmt.Sprintf("p%d", len(m.procs)), kind: kind, obj: obj, front: front, deadline: deadline}
		m.procs = append(m.procs, p)
		m.runnable = append(m.runnable, p)
		h.spawn(p)
	}
	complete := func(x *mCompletion, real *completion, val *int, v int, fail bool) {
		x.done, x.failed, x.val = true, fail, v
		*val = v
		if fail {
			real.Fail(errModel)
		} else {
			real.complete(nil)
		}
		m.release(&x.waiters)
	}
	// completeCall completes call i and its completing party lets go.
	completeCall := func(i, v int, fail bool) {
		r, x := m.recs[i], h.recs[i]
		complete(&r.mCompletion, &x.res.completion, &x.val, v, fail)
		x.res.Release()
		if r.freed = r.held; !r.held {
			m.recycled++
			m.pool = append(m.pool, m.recOf[i])
		}
	}
	closeBox := func(i int) {
		h.boxes[i].Close()
		if b := m.boxes[i]; !b.closed {
			b.closed = true
			m.release(&b.recv)
			m.readable(b)
		}
	}
	handOut := func() int {
		var r *modelRec
		idx := 0
		if n := len(m.pool); n > 0 {
			idx, m.pool = m.pool[n-1], m.pool[:n-1]
			r, h.pool = h.pool[len(h.pool)-1], h.pool[:len(h.pool)-1]
			if r.id != idx {
				t.Errorf("the pool hands out record %d, the model %d", r.id, idx)
			}
		} else {
			idx = m.nrecs
			m.nrecs++
			r = &modelRec{id: idx, h: h}
			r.res.Init(c, r)
		}
		m.recs = append(m.recs, &mRecord{held: true})
		m.recOf = append(m.recOf, idx)
		h.recs = append(h.recs, r)
		h.results = append(h.results, Hold(&r.res, &r.val))
		return len(m.recs) - 1
	}
	// op applies one operation, at the director's instant, to both sides.
	op := func() {
		arg := s.next()
		switch opMix[s.next()%len(opMix)] {
		case opPark:
			var deadline time.Duration
			if arg&2 != 0 {
				deadline = m.now + modelStep/2 + time.Duration(arg>>2&3)*modelStep
			}
			spawn(onList, 0, arg&1 != 0, deadline)
		case opRecv:
			if m.boxes[len(m.boxes)-1].closed && arg&1 != 0 {
				m.boxes = append(m.boxes, &mMailbox{})
				h.boxes = append(h.boxes, NewMailbox[int](c))
			}
			spawn(onMailbox, len(m.boxes)-1, false, 0)
		case opGet:
			if m.futs[len(m.futs)-1].done && arg&1 != 0 {
				m.futs = append(m.futs, &mCompletion{})
				h.futs = append(h.futs, NewFuture[int](c))
			}
			spawn(onFuture, len(m.futs)-1, false, 0)
		case opCall:
			spawn(onCell, handOut(), false, 0)
		case opGroupWait:
			spawn(onGroup, 0, false, 0)
		case opWake:
			if got, want := h.list.Wake(), m.wake(&m.list); got != want {
				t.Errorf("at %v: Wake reported %v, the model %v", m.now, got, want)
			}
		case opRelease:
			h.list.Release()
			m.release(&m.list)
		case opKill:
			var live []*mProc
			for _, p := range m.procs {
				if p.state != mDone {
					live = append(live, p)
				}
			}
			if arg&1 != 0 {
				// Those made runnable and not resumed: the kill-safe cases.
				live = slices.DeleteFunc(live, func(p *mProc) bool { return p.state != mReady })
			}
			if len(live) > 0 {
				p := live[arg>>1%len(live)]
				c.Kill(p.real)
				m.kill(p)
			}
		case opSend:
			sent++
			mb, b := h.boxes[len(h.boxes)-1], m.boxes[len(m.boxes)-1]
			mb.Send(sent)
			if !b.closed {
				b.buf = append(b.buf, sent)
				if m.wake(&b.recv) {
					b.owed++
				} else {
					m.readable(b)
				}
			}
		case opClose:
			closeBox(len(m.boxes) - 1)
		case opResolve:
			i := len(m.futs) - 1
			if !m.futs[i].done {
				complete(m.futs[i], &h.futs[i].completion, &h.futs[i].val, arg, arg%5 == 0)
			}
		case opComplete:
			var pending []int
			for i, r := range m.recs {
				if !r.done {
					pending = append(pending, i)
				}
			}
			if len(pending) > 0 {
				completeCall(pending[arg%len(pending)], arg, arg%5 == 0)
			}
		case opAdd:
			n := 1 + arg%2
			h.group.Add(n)
			m.groupN += n
		case opDone:
			if m.groupN > 0 {
				h.group.Done()
				if m.groupN--; m.groupN == 0 {
					m.release(&m.group)
				}
			}
		case opWatch:
			h.boxes[len(h.boxes)-1].OnReadable(func() { h.fired++ })
			if b := m.boxes[len(m.boxes)-1]; len(b.buf) > b.owed || b.closed {
				m.fired++
			} else {
				b.watchers++
			}
		case opTryRecv:
			v, ok := h.boxes[len(h.boxes)-1].TryRecv()
			h.log = append(h.log, fmt.Sprintf("%v director try %d %v", m.now, v, ok))
			b := m.boxes[len(m.boxes)-1]
			v, ok = 0, len(b.buf) > b.owed
			if ok {
				v = b.take()
			}
			m.log = append(m.log, fmt.Sprintf("%v director try %d %v", m.now, v, ok))
		}
	}
	// check compares the two sides after a step.
	check := func(when string) bool {
		if !slices.Equal(h.log, m.log) {
			t.Errorf("%s: the clock ran\n\t%v\nthe model\n\t%v", when, h.log, m.log)
			return false
		}
		parked := 0
		for _, p := range m.procs {
			if p.state == mParked {
				parked++
			}
		}
		b, mb := m.boxes[len(m.boxes)-1], h.boxes[len(h.boxes)-1]
		_, got, _, _ := c.Stats()
		if got != parked || h.list.Len() != len(m.list.q) || h.unclaimed != m.unclaimed || h.fired != m.fired ||
			mb.owed != b.owed || mb.Len() != len(b.buf)-b.owed || h.recycled != m.recycled {
			t.Errorf("%s: parked %d, listed %d, unclaimed %d, hooks run %d, owed %d, receivable %d, recycled %d; the model %d, %d, %d, %d, %d, %d, %d",
				when, got, h.list.Len(), h.unclaimed, h.fired, mb.owed, mb.Len(), h.recycled,
				parked, len(m.list.q), m.unclaimed, m.fired, b.owed, len(b.buf)-b.owed, m.recycled)
			return false
		}
		return true
	}

	c.Go("director", func() {
		for steps := 0; !s.done(); steps++ {
			for n := 1 + s.next()%6; n > 0; n-- {
				op()
			}
			c.Sleep(modelStep)
			m.step()
			if !check(fmt.Sprintf("step %d", steps)) {
				return
			}
		}
		// Let everything go: the list, every mailbox, future and call, and
		// the group.
		h.list.Release()
		m.release(&m.list)
		for i := range h.boxes {
			closeBox(i)
		}
		for i, f := range h.futs {
			if !m.futs[i].done {
				complete(m.futs[i], &f.completion, &f.val, 0, false)
			}
		}
		for i, r := range m.recs {
			if !r.done {
				completeCall(i, 0, false)
			}
		}
		for ; m.groupN > 0; m.groupN-- {
			h.group.Done()
		}
		m.release(&m.group)
		c.Sleep(modelStep)
		m.step()
		if !check("after the release") {
			return
		}
		for _, p := range m.procs {
			if p.state != mDone {
				t.Errorf("%s did not finish in the model", p.name)
			}
		}
		if _, parked, _, _ := c.Stats(); parked != 0 || h.list.Len() != 0 {
			t.Errorf("after the release: %d parked, %d listed; want 0, 0", parked, h.list.Len())
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestParkModel runs the model at fixed seeds.
func TestParkModel(t *testing.T) {
	for seed := uint64(1); seed <= 500; seed++ {
		r := NewRNG(seed)
		b := make([]byte, 400)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		runParkModel(t, b)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// FuzzParkModel runs the model on scripts the fuzzer writes. A script is
// bursts: a count byte (1 + count%6 operations), then per operation an
// argument byte and an operation byte (an index into opMix).
func FuzzParkModel(f *testing.F) {
	f.Add([]byte{})
	// Two park; the first is woken; the second is woken and killed before
	// it resumes, and passes the wake to the unclaimed hook.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 12, 1, 0, 12, 1, 17})
	// A receiver parks; a send wakes it, a second send finds nobody, and a
	// TryRecv takes the second message, not the one owed to the receiver.
	f.Add([]byte{0, 0, 4, 2, 0, 21, 0, 21, 0, 32})
	f.Fuzz(runParkModel)
}

// Package core implements Pie's control layer (§5.2): the controller that
// serves inferlet API calls, virtualizes Embed/KvPage resources, batches
// GPU-bound calls through command queues, and dispatches completion events
// back to inferlets.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
)

// pool tracks allocation state for one physical resource array. The memory
// itself lives in the inference layer (infer.ModelRuntime); the control
// layer owns the free list and reference counts — exactly the split §5.3
// prescribes. Ids are dense (free list first, then the high-water mark), so
// per-id state is a slice indexed by id.
type pool struct {
	capacity int
	next     int32   // high-water mark of materialized ids
	free     []int32 // released ids available for reuse
	refs     []int32 // by id; 0 for ids that are free or never handed out
}

func newPool(capacity int) *pool { return &pool{capacity: capacity} }

// available reports how many ids can be handed out right now.
func (p *pool) available() int {
	return len(p.free) + (p.capacity - int(p.next))
}

// inUse reports the number of live ids.
func (p *pool) inUse() int { return int(p.next) - len(p.free) }

// alloc appends n ids with refcount 1 to dst — the most recently freed
// first, then ids never materialized — or reports failure leaving the pool
// untouched.
func (p *pool) alloc(dst []int32, n int) ([]int32, bool) {
	if p.available() < n {
		return dst, false
	}
	for i := 0; i < n; i++ {
		var id int32
		if k := len(p.free); k > 0 {
			id, p.free = p.free[k-1], p.free[:k-1]
		} else {
			id = p.next
			p.next++
			p.refs = append(p.refs, 0)
		}
		p.refs[id] = 1
		dst = append(dst, id)
	}
	return dst, true
}

// retain bumps an id's refcount (export/import sharing).
func (p *pool) retain(id int32) { p.refs[id]++ }

// release drops one reference; the id returns to the free list at zero.
// It reports whether the id was actually freed.
func (p *pool) release(id int32) bool {
	if id < 0 || id >= p.next || p.refs[id] == 0 {
		return false
	}
	p.refs[id]--
	if p.refs[id] > 0 {
		return false
	}
	p.free = append(p.free, id)
	return true
}

// modelState is the control layer's state for one servable model: the
// runtime whose memory it manages, the two pools that allocate from it, and
// the calls waiting for device page room (awaitRoom): room is their FIFO,
// wakeArmed marks its head's wake as timed (roomFreed), and wakeHead is that
// wake, bound once.
type modelState struct {
	name   string
	rt     *infer.ModelRuntime
	pages  *tieredPool
	embeds *pool

	room      *sim.WaitList
	wakeArmed bool
	wakeHead  func()
}

// resRef is one slot of a handle table: where the handle's physical
// resource lives and the queue it was allocated or imported through, whose
// close releases it. m is nil for slot 0 and for handles that have died.
type resRef struct {
	m     *modelState
	phys  int32
	stamp uint32 // == the table's epoch when the current dealloc listed it
	q     api.Queue
}

// free returns the reference's physical slot to its model's page pool (kv)
// or embed pool.
func (r *resRef) free(kv bool) {
	if kv {
		r.m.pages.release(r.phys)
	} else {
		r.m.embeds.release(r.phys)
	}
}

// handleTable is one of an instance's two virtual address spaces (embeds,
// KV pages). Handles are issued 1, 2, 3, … and never reused, so the table
// is a slice indexed by handle.
type handleTable struct {
	refs  []resRef
	live  int    // handles with a mapping
	epoch uint32 // dedupe stamp of the dealloc being validated
}

// issue maps a fresh handle to (m, phys), owned by queue q, and returns it.
func (t *handleTable) issue(m *modelState, phys int32, q api.Queue) uint64 {
	if len(t.refs) == 0 {
		t.refs = append(t.refs, resRef{}) // handle 0 is never issued
	}
	t.refs = append(t.refs, resRef{m: m, phys: phys, q: q})
	t.live++
	return uint64(len(t.refs) - 1)
}

// get returns the live mapping of handle id, or nil.
func (t *handleTable) get(id uint64) *resRef {
	if id >= uint64(len(t.refs)) || t.refs[id].m == nil {
		return nil
	}
	return &t.refs[id]
}

// takeAll validates that every id is live and listed once, then kills the
// handles and appends their references to dst. All-or-nothing: on a bad or
// repeated handle nothing dies and ok is false.
func takeAll[H ~uint64](t *handleTable, dst []resRef, ids []H) (_ []resRef, ok bool) {
	t.epoch++
	for _, id := range ids {
		ref := t.get(uint64(id))
		if ref == nil || ref.stamp == t.epoch {
			return dst, false
		}
		ref.stamp = t.epoch
	}
	for _, id := range ids {
		ref := &t.refs[id]
		dst = append(dst, *ref)
		ref.m = nil // the handle dies now; the physical free is queue-ordered
	}
	t.live -= len(ids)
	return dst, true
}

// release kills every live handle queue q owns (every live handle when q
// is 0) and frees its physical slot, in ascending handle order: the order
// decides the pools' free lists, so same-seed runs must agree on it.
func (t *handleTable) release(q api.Queue, kv bool) {
	for i := range t.refs {
		if ref := &t.refs[i]; ref.m != nil && (q == 0 || ref.q == q) {
			ref.free(kv)
			ref.m = nil
			t.live--
		}
	}
}

// tableSpares keeps the handle arrays of released instances for the ones
// registered next, so a session's tables are not regrown from empty.
type tableSpares struct{ refs [][]resRef }

// put keeps t's array, blanked, unless it never grew.
func (s *tableSpares) put(t handleTable) {
	if cap(t.refs) > 0 {
		clear(t.refs)
		s.refs = append(s.refs, t.refs[:0])
	}
}

// take returns a handle table on a spare array, or an empty one.
func (s *tableSpares) take() handleTable {
	n := len(s.refs)
	if n == 0 {
		return handleTable{}
	}
	refs := s.refs[n-1]
	s.refs[n-1] = nil
	s.refs = s.refs[:n-1]
	return handleTable{refs: refs}
}

// Instance is the control layer's view of one running inferlet: its
// virtual resource address space, queues, and accounting. IDs grow with
// creation, and a handoff gives the instance its destination's next one.
type Instance struct {
	ID      uint64 // this replica's id for it; a handoff gives it the destination's next
	Session uint64 // the launch's key (ilm.Handle.ID), stamped by the ILM and kept across a handoff
	Name    string
	Proc    *sim.Proc

	embeds handleTable
	pages  handleTable
	queues []*cmdQueue // open queues, ascending id; starts on queues0
	dead   bool
	owner  Owner // told when the control layer terminates the instance

	// An instance's first queue and the backing of queues are part of its
	// record: a session that opens one queue allocates none.
	queue0  cmdQueue
	queues0 [1]*cmdQueue

	// Manifest-declared resource limits (deployment API v2), set by the
	// ILM before the instance runs; zero fields are unlimited. The
	// controller enforces them with api.ErrLimitExceeded.
	MaxQueues  int
	MaxKvPages int
	// DefaultPriority seeds the batch-scheduler priority of every queue
	// the instance opens (LaunchSpec.Priority).
	DefaultPriority int
	// Class is the launch's resolved service class name (empty when
	// unclassed); its TTFT/ITL spans carry it.
	Class string
	// Degraded marks a launch admitted under graceful degradation: its
	// output was capped by the admission layer and Session.Open substitutes
	// the cheapest trait-compatible model variant.
	Degraded bool

	// Span bookkeeping (emitSpans): launch registration time, whether the
	// first forward pass has completed (its TTFT span emitted), the
	// completion time of the most recent one (ITL reference), and whether
	// the instance's Prefilled span was emitted (at most once).
	launchedAt  time.Duration
	sawFirstTok bool
	lastTokenAt time.Duration
	prefilled   bool

	// HandoffPending marks a session whose prefill completed on a
	// prefill-role replica: the cluster's fold of its Prefilled span sets
	// it, and the session's next forward boundary consults the cluster's
	// handoff coordinator to migrate the KV state to a decode replica.
	HandoffPending bool

	// Instrumentation (Fig. 10/11).
	ControlCalls int
	InferCalls   int
	OutputTokens int
}

// ReportOutputTokens is called by the session when the application accepts
// generated tokens; Fig. 11 normalizes API-call counts by this.
func (inst *Instance) ReportOutputTokens(n int) { inst.OutputTokens += n }

// Dead reports whether the instance has been released. The ILM checks it
// after the cold-launch JIT sleep: an instance registered at placement
// time can be reclaimed (FCFS policy) before its process ever starts.
func (inst *Instance) Dead() bool { return inst.dead }

// queueIndex finds open queue qid in inst.queues (ascending ids).
func (inst *Instance) queueIndex(qid api.Queue) (int, bool) {
	return slices.BinarySearchFunc(inst.queues, qid, func(q *cmdQueue, id api.Queue) int {
		return cmp.Compare(q.id, id)
	})
}

// uses reports whether any open queue or live handle of the instance is
// bound to model m.
func (inst *Instance) uses(m *modelState) bool {
	onM := func(r resRef) bool { return r.m == m }
	return slices.ContainsFunc(inst.queues, func(q *cmdQueue) bool { return q.m == m }) ||
		slices.ContainsFunc(inst.pages.refs, onM) || slices.ContainsFunc(inst.embeds.refs, onM)
}

// call is the control layer's record of one queued API call: the
// inference-layer call itself plus the bookkeeping only the controller
// reads. A record whose call completed, failed or was refused goes back to
// Controller.freeCalls with the backing arrays of its lists, once the
// call's result, if it has one, is read too (sim.Cell).
type call struct {
	infer.Call
	q   *cmdQueue   // the queue the call was enqueued on
	ctl *Controller // whose free list the record returns to

	// pins are the physical pages the call references, pinned
	// device-resident from enqueue until completion (or queue teardown) so
	// the offload policy never evicts, and the pool never recycles, a page
	// a dispatched kernel addresses.
	pins []int32

	free   []resRef // OpDealloc: references released at the queue head
	freeKv bool     // ... to the page pools (else the embed pools)

	// What the Call's lists are carved from: page lists, embed lists,
	// token ids and positions, mask bits, the fused sampling spec.
	pageBuf []*model.KvPage
	embBuf  []*model.EmbedSlot
	intBuf  []int
	boolBuf []bool
	sample  infer.SampleSpec
}

// carve returns buf resized to n elements (contents unspecified), growing
// it only when its capacity falls short.
func carve[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// cmdQueue is one command queue (§4.1): a FIFO of API calls whose
// dependencies are unambiguous (in-order within the queue) and which
// carries a scheduling priority.
type cmdQueue struct {
	id       api.Queue
	inst     *Instance
	m        *modelState
	priority int
	pending  []*call // FIFO; the live entries are pending[first:]; starts on pending0
	first    int
	pending0 [4]*call
	inflight int
	closed   bool
	// err is the first execution error of a call with no result (embed,
	// forward, copy, mask) since the queue's last synchronize, which
	// reports and clears it.
	err error

	// Ready-bucket index state, owned by the Scheduler: which (op,
	// runtime) bucket the queue currently sits in, its slot there, and how
	// many pending calls it contributes to the incremental K-only count.
	bucket    *readyBucket
	bucketIdx int
	counted   int

	doneEpoch uint64 // == Controller.doneEpoch once this completion refreshed it
}

// init makes q an empty open queue, in place: its pending calls start on
// the queue's own array.
func (q *cmdQueue) init(id api.Queue, inst *Instance, m *modelState, priority int) {
	*q = cmdQueue{id: id, inst: inst, m: m, priority: priority}
	q.pending = q.pending0[:0]
}

// queued reports the number of pending calls.
func (q *cmdQueue) queued() int { return len(q.pending) - q.first }

func (q *cmdQueue) head() *call {
	if q.first == len(q.pending) {
		return nil
	}
	return q.pending[q.first]
}

// settle completes a synchronize that reached the queue's head: it fails
// the op's result with the error the queue holds, clearing it, or resolves
// it.
func (q *cmdQueue) settle(res *sim.Cell) {
	if err := q.err; err != nil {
		q.err = nil
		res.Fail(err)
		return
	}
	res.Resolve()
}

// push appends a call. A drained queue restarts at the front of its
// backing array (pop), so steady enqueue/dispatch traffic reuses it; a
// queue that never fully drains compacts before it would grow.
func (q *cmdQueue) push(c *call) {
	if q.first > 0 && len(q.pending) == cap(q.pending) {
		n := copy(q.pending, q.pending[q.first:])
		clear(q.pending[n:])
		q.pending, q.first = q.pending[:n], 0
	}
	q.pending = append(q.pending, c)
}

func (q *cmdQueue) pop() *call {
	c := q.pending[q.first]
	q.pending[q.first] = nil
	q.first++
	if q.first == len(q.pending) {
		q.pending, q.first = q.pending[:0], 0
	}
	return c
}

// exportEntry is a named, shareable set of KV pages (export_kvpage /
// import_kvpage). The registry holds its own reference on every page, so
// exported context survives its exporter — the mechanism behind
// application-managed prompt caching (§7.2 optimization #1).
type exportEntry struct {
	m    *modelState
	phys []int32
}

// errTerminated wraps api.ErrTerminated with policy context.
func errTerminated(need int, model string) error {
	return fmt.Errorf("%w: FCFS policy reclaimed this inferlet (%d pages short on %s)",
		api.ErrTerminated, need, model)
}

// Timing knobs for control-layer call handling (Fig. 10: control-layer
// calls cost a few µs and stay under ~30µs even at 896 concurrent
// inferlets; the slight growth models the shared controller core).
const (
	controlCallBase    = 3 * time.Microsecond
	controlCallPerInst = 25 * time.Nanosecond
)

// --- Allocation -----------------------------------------------------------

// AllocEmbeds allocates n embedding slots (alloc_emb) and appends their
// handles to dst. On an error it returns nil.
func (ctl *Controller) AllocEmbeds(inst *Instance, qid api.Queue, dst []api.Embed, n int) ([]api.Embed, error) {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, api.ErrBadArgument
	}
	phys, ok := q.m.embeds.alloc(ctl.ids[:0], n)
	ctl.ids = phys[:0]
	if !ok {
		return nil, api.ErrOutOfResources
	}
	dst = slices.Grow(dst, n)
	for _, id := range phys {
		dst = append(dst, api.Embed(inst.embeds.issue(q.m, id, qid)))
	}
	return dst, nil
}

// AllocPages allocates n KV pages (alloc_kvpage), applying the FCFS
// contention policy on shortage, and appends their handles to dst. On an
// error it returns nil.
func (ctl *Controller) AllocPages(inst *Instance, qid api.Queue, dst []api.KvPage, n int) ([]api.KvPage, error) {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, api.ErrBadArgument
	}
	if inst.MaxKvPages > 0 && inst.pages.live+n > inst.MaxKvPages {
		return nil, fmt.Errorf("%w: manifest allows %d KV pages (%d live, %d requested)",
			api.ErrLimitExceeded, inst.MaxKvPages, inst.pages.live, n)
	}
	var phys []int32
	swappedOut := 0
	var deadline time.Duration
	for woken := false; ; woken = true {
		if err := ctl.ensurePages(inst, q.m, n); err != nil {
			return nil, err
		}
		ids, swapped, ok := q.m.pages.alloc(ctl.ids[:0], n, q.priority)
		ctl.ids = ids[:0]
		if ok {
			phys, swappedOut = ids, swapped
			if woken {
				ctl.roomFreed(q.m)
			}
			break
		}
		// Total capacity sufficed but device room could not be cleared:
		// every device page is pinned by queued or in-flight work. That
		// is transient — wait until the wave completes and unpins.
		if !ctl.awaitRoom(q.m, woken, &deadline) {
			return nil, api.ErrOutOfResources
		}
		if q.closed {
			return nil, api.ErrQueueClosed
		}
	}
	dst = slices.Grow(dst, n)
	for _, id := range phys {
		dst = append(dst, api.KvPage(inst.pages.issue(q.m, id, qid)))
		// Fresh pages must arrive empty even if physically recycled.
		q.m.rt.Page(id).Reset()
	}
	// Charge the PCIe cost of alloc-triggered offloads only after the
	// handles are registered: an FCFS kill landing inside this sleep then
	// reclaims the pages through ReleaseInstance instead of leaking them.
	ctl.chargeSwap(q.m.rt, swappedOut)
	return dst, nil
}

// roomWaitLimit bounds a call's wait for device page room: past it the call
// fails with api.ErrOutOfResources, so a working set that can never fit the
// device tier is refused instead of parking forever.
const roomWaitLimit = 200 * time.Millisecond

// awaitRoom parks the calling process until an event that may have freed
// device room in m's page pool reaches it (roomFreed): at the tail of m's
// list the first time, at the head once a wake has reached it and its retry
// failed. A woken call that then gets room wakes the next waiter the same
// way, kickDelay later, once its own follow-up calls have pinned what they
// need; one whose retry fails wakes nobody, or two calls that cannot both
// fit would wake each other forever at one instant. The first wait sets
// deadline, and awaitRoom reports false once it has passed.
func (ctl *Controller) awaitRoom(m *modelState, woken bool, deadline *time.Duration) bool {
	if *deadline == 0 {
		*deadline = ctl.clock.Now() + roomWaitLimit
	}
	return m.room.Wait(woken, *deadline)
}

// roomFreed reports an event that may have made device room in m's page
// pool: a batch holding pins completed, pages were released, or a woken
// waiter got room and what is left may fit the next one. With calls
// waiting, it wakes the head kickDelay later, when the completion wave has
// landed — the sessions that just completed re-pin the pages their next
// calls need first, as they would with nobody waiting, and the waiter takes
// what is left instead of evicting a page about to be faulted back.
func (ctl *Controller) roomFreed(m *modelState) {
	if m.wakeArmed || m.room.Len() == 0 {
		return
	}
	m.wakeArmed = true
	ctl.clock.After(kickDelay, m.wakeHead)
}

// DeallocEmbeds releases embedding slots after prior queue ops complete
// (dealloc_emb): it is a queue-ordered control op. Validation is
// all-or-nothing — a bad handle anywhere in ids releases nothing, so a
// failed call leaves the caller's handle view unchanged.
func (ctl *Controller) DeallocEmbeds(inst *Instance, qid api.Queue, ids []api.Embed) error {
	return dealloc(ctl, inst, qid, &inst.embeds, ids, false)
}

// DeallocPages releases KV pages, queue-ordered (dealloc_kvpage), with
// the same all-or-nothing validation as DeallocEmbeds.
func (ctl *Controller) DeallocPages(inst *Instance, qid api.Queue, ids []api.KvPage) error {
	return dealloc(ctl, inst, qid, &inst.pages, ids, true)
}

func dealloc[H ~uint64](ctl *Controller, inst *Instance, qid api.Queue, t *handleTable, ids []H, kv bool) error {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	op := ctl.newOp(q, infer.OpDealloc)
	var ok bool
	if op.free, ok = takeAll(t, op.free, ids); !ok {
		ctl.recycle(op)
		return api.ErrBadHandle
	}
	op.freeKv = kv
	ctl.enqueue(q, op)
	return nil
}

// record returns a blank call record for queue q: a recycled one if any.
func (ctl *Controller) record(q *cmdQueue) *call {
	var c *call
	if n := len(ctl.freeCalls); n > 0 {
		c, ctl.freeCalls = ctl.freeCalls[n-1], ctl.freeCalls[:n-1]
	} else {
		c = &call{ctl: ctl}
		c.Res.Init(ctl.clock, c)
	}
	c.q = q
	return c
}

// Recycle takes the record back once its cell's holders let go (sim.Cell).
func (c *call) Recycle() { c.ctl.recycle(c) }

// recycle blanks a record nothing refers to any more, keeps its backing
// arrays and its cell, one generation on, and puts it on the free list.
// The record is zeroed in place and the kept fields put back: building a
// blank record and copying it over costs two passes over the whole record.
func (ctl *Controller) recycle(c *call) {
	clear(c.free)
	c.Res.Reset()
	res, owner := c.Res, c.ctl
	free, pins, pageBuf, embBuf, intBuf, boolBuf := c.free[:0], c.pins[:0], c.pageBuf[:0], c.embBuf[:0], c.intBuf[:0], c.boolBuf[:0]
	*c = call{}
	c.Res, c.ctl = res, owner
	c.free, c.pins, c.pageBuf, c.embBuf, c.intBuf, c.boolBuf = free, pins, pageBuf, embBuf, intBuf, boolBuf
	ctl.freeCalls = append(ctl.freeCalls, c)
}

// newOp returns a blank control-op record (dealloc, sync).
func (ctl *Controller) newOp(q *cmdQueue, op infer.Op) *call {
	c := ctl.record(q)
	c.Op = op
	return c
}

// runOp performs a control op that reached its queue's head (or whose queue
// is being torn down: a dealloc's handles died when it enqueued, so its
// deferred physical free must still run or the slots leak) and lets go of
// the record.
func (ctl *Controller) runOp(c *call) {
	switch c.Op {
	case infer.OpDealloc:
		for i := range c.free {
			c.free[i].free(c.freeKv)
			if c.freeKv {
				ctl.roomFreed(c.free[i].m)
			}
		}
	case infer.OpSync:
		c.q.settle(&c.Res)
		c.Res.Release() // its Result's Get may still hold the record
		return
	}
	ctl.recycle(c)
}

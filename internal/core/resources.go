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
// runtime whose memory it manages and the two pools that allocate from it.
type modelState struct {
	name   string
	rt     *infer.ModelRuntime
	pages  *tieredPool
	embeds *pool
}

// resRef is one slot of a handle table: where the handle's physical
// resource lives. m is nil for slot 0 and for handles that have died.
type resRef struct {
	m     *modelState
	phys  int32
	stamp uint32 // == the table's epoch when the current dealloc listed it
}

// handleTable is one of an instance's two virtual address spaces (embeds,
// KV pages). Handles are issued 1, 2, 3, … and never reused, so the table
// is a slice indexed by handle.
type handleTable struct {
	refs  []resRef
	live  int    // handles with a mapping
	epoch uint32 // dedupe stamp of the dealloc being validated
}

// issue maps a fresh handle to (m, phys) and returns it.
func (t *handleTable) issue(m *modelState, phys int32) uint64 {
	if len(t.refs) == 0 {
		t.refs = append(t.refs, resRef{}) // handle 0 is never issued
	}
	t.refs = append(t.refs, resRef{m: m, phys: phys})
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

// clone copies the table for a session handoff: handle numbers survive,
// every mapping is rewritten by the caller.
func (t *handleTable) clone() handleTable {
	return handleTable{refs: append([]resRef(nil), t.refs...), live: t.live}
}

// Instance is the control layer's view of one running inferlet: its
// virtual resource address space, queues, and accounting.
type Instance struct {
	ID         uint64
	Name       string
	CreatedSeq uint64
	Proc       *sim.Proc

	embeds handleTable
	pages  handleTable
	queues []*cmdQueue // open queues, ascending id
	dead   bool
	onKill func(reason error) // ILM hook: unwind the inferlet process

	// Manifest-declared resource limits (deployment API v2), set by the
	// ILM before the instance runs; zero fields are unlimited. The
	// controller enforces them with api.ErrLimitExceeded.
	MaxQueues  int
	MaxKvPages int
	// DefaultPriority seeds the batch-scheduler priority of every queue
	// the instance opens (LaunchSpec.Priority).
	DefaultPriority int
	// Class is the launch's resolved service class name (empty when
	// unclassed); the latency observer attributes TTFT/ITL samples to it.
	Class string
	// Degraded marks a launch admitted under graceful degradation: its
	// output was capped by the admission layer and Session.Open substitutes
	// the cheapest trait-compatible model variant.
	Degraded bool

	// Latency-observer bookkeeping: launch registration time, whether the
	// first forward pass has completed (TTFT sample taken), and the
	// completion time of the most recent forward pass (ITL reference).
	launchedAt  time.Duration
	sawFirstTok bool
	lastTokenAt time.Duration

	// firstTokObserved records that the first-token observer has run for
	// this instance: at its first completed forward, or earlier at its
	// first import of prefilled KV. It runs at most once.
	firstTokObserved bool

	// HandoffPending marks a session whose prefill completed on a
	// prefill-role replica: the first-token observer sets it, and the
	// session's next forward boundary consults the cluster's handoff
	// coordinator to migrate the KV state to a decode replica.
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

// call is the control layer's record of one queued API call: the
// inference-layer call itself plus the bookkeeping only the controller
// reads. An inferlet holds a call's future, never the record, so a record
// whose call completed, failed or was refused goes back to
// Controller.freeCalls with the backing arrays of its lists.
type call struct {
	infer.Call
	q *cmdQueue // the queue the call was enqueued on

	// pins are the physical pages the call references, pinned
	// device-resident from enqueue until completion (or queue teardown) so
	// the offload policy never evicts a page a dispatched kernel addresses.
	pins []pagePin

	sync   *sim.Signal // OpSync: fires when the op reaches the queue head
	free   []resRef    // OpDealloc: references released at the queue head
	freeKv bool        // ... to the page pools (else the embed pools)

	// What the Call's lists are carved from: page lists, embed lists,
	// token ids and positions, the fused sampling spec.
	pageBuf []*model.KvPage
	embBuf  []*model.EmbedSlot
	intBuf  []int
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

// pagePin identifies one pinned physical page by id and allocation
// generation. The generation lets the pool ignore stale unpins: an id
// can be freed and recycled while a terminated instance's in-flight call
// still holds its pin record.
type pagePin struct {
	page int32
	gen  uint64
}

// cmdQueue is one command queue (§4.1): a FIFO of API calls whose
// dependencies are unambiguous (in-order within the queue) and which
// carries a scheduling priority.
type cmdQueue struct {
	id       api.Queue
	inst     *Instance
	m        *modelState
	priority int
	pending  []*call // FIFO; the live entries are pending[first:]
	first    int
	inflight int
	closed   bool

	// Ready-bucket index state, owned by the Scheduler: which (op,
	// runtime) bucket the queue currently sits in, its slot there, and how
	// many pending calls it contributes to the incremental K-only count.
	bucket    *readyBucket
	bucketIdx int
	counted   int

	doneEpoch uint64 // == Controller.doneEpoch once this completion refreshed it
}

// queued reports the number of pending calls.
func (q *cmdQueue) queued() int { return len(q.pending) - q.first }

func (q *cmdQueue) head() *call {
	if q.first == len(q.pending) {
		return nil
	}
	return q.pending[q.first]
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

// AllocEmbeds allocates n embedding slots (alloc_emb).
func (ctl *Controller) AllocEmbeds(inst *Instance, qid api.Queue, n int) ([]api.Embed, error) {
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
	out := make([]api.Embed, n)
	for i, id := range phys {
		out[i] = api.Embed(inst.embeds.issue(q.m, id))
	}
	return out, nil
}

// AllocPages allocates n KV pages (alloc_kvpage), applying the FCFS
// contention policy on shortage.
func (ctl *Controller) AllocPages(inst *Instance, qid api.Queue, n int) ([]api.KvPage, error) {
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
	for attempt := 0; ; attempt++ {
		if err := ctl.ensurePages(inst, q.m, n); err != nil {
			return nil, err
		}
		ids, swapped, ok := q.m.pages.alloc(ctl.ids[:0], n, q.priority)
		ctl.ids = ids[:0]
		if ok {
			phys, swappedOut = ids, swapped
			break
		}
		// Total capacity sufficed but device room could not be cleared:
		// every device page is pinned by queued or in-flight work. That
		// is transient — back off until the wave completes and unpins.
		if attempt >= faultRetries {
			return nil, api.ErrOutOfResources
		}
		ctl.clock.Sleep(faultBackoff)
		if q.closed {
			return nil, api.ErrQueueClosed
		}
	}
	out := make([]api.KvPage, n)
	for i, id := range phys {
		out[i] = api.KvPage(inst.pages.issue(q.m, id))
		// Fresh pages must arrive empty even if physically recycled.
		q.m.rt.Page(id).Reset()
	}
	// Charge the PCIe cost of alloc-triggered offloads only after the
	// handles are registered: an FCFS kill landing inside this sleep then
	// reclaims the pages through ReleaseInstance instead of leaking them.
	ctl.chargeSwap(q.m.rt, swappedOut)
	return out, nil
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
		c = &call{}
	}
	c.q = q
	return c
}

// recycle blanks a record nothing refers to any more, keeps its backing
// arrays and puts it on the free list.
func (ctl *Controller) recycle(c *call) {
	clear(c.free)
	*c = call{free: c.free[:0], pins: c.pins[:0], pageBuf: c.pageBuf[:0], embBuf: c.embBuf[:0], intBuf: c.intBuf[:0]}
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
// deferred physical free must still run or the slots leak) and recycles the
// record.
func (ctl *Controller) runOp(c *call) {
	switch c.Op {
	case infer.OpDealloc:
		for _, ref := range c.free {
			if c.freeKv {
				ref.m.pages.release(ref.phys)
			} else {
				ref.m.embeds.release(ref.phys)
			}
		}
	case infer.OpSync:
		sim.Fire(c.sync)
	}
	ctl.recycle(c)
}

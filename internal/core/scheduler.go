package core

import (
	"math"
	"time"

	"pie/internal/infer"
	"pie/internal/sim"
)

// SchedPolicy selects the batch-dispatch strategy (§6.1, Table 5).
type SchedPolicy int

const (
	// PolicyAdaptive is the work-conserving default: queue while the GPU is
	// busy, form the largest eligible batch the instant it goes idle.
	PolicyAdaptive SchedPolicy = iota
	// PolicyEager dispatches every call as its own batch immediately.
	PolicyEager
	// PolicyKOnly dispatches a batch only once kOnlyThreshold calls are ready.
	PolicyKOnly
	// PolicyTOnly dispatches whatever queued every tOnlyInterval.
	PolicyTOnly
)

func (p SchedPolicy) String() string {
	switch p {
	case PolicyAdaptive:
		return "adaptive"
	case PolicyEager:
		return "eager"
	case PolicyKOnly:
		return "k-only"
	case PolicyTOnly:
		return "t-only"
	}
	return "unknown"
}

// SchedConfig parameterizes the scheduler.
type SchedConfig struct {
	Policy SchedPolicy
	// SchedOverhead is the control-layer batch-formation cost added to each
	// batch (Table 3: +0.050 ms "overhead of control layer batch
	// scheduling").
	SchedOverhead time.Duration
	// DistReturnOverhead models shipping truncated distributions back to
	// inferlets (Table 3: +0.070 ms "overhead of returning output
	// distribution"), charged on get_next_dist batches.
	DistReturnOverhead time.Duration
}

// DefaultSchedConfig returns the paper's production configuration.
func DefaultSchedConfig() SchedConfig {
	return SchedConfig{
		Policy:             PolicyAdaptive,
		SchedOverhead:      50 * time.Microsecond,
		DistReturnOverhead: 70 * time.Microsecond,
	}
}

// bucketKey identifies a batch-compatible class of calls: one op type on
// one model runtime.
type bucketKey struct {
	op infer.Op
	rt *infer.ModelRuntime
}

// readyBucket indexes every queue whose head call is dispatchable right
// now for one (op, runtime) class. Buckets are maintained incrementally on
// enqueue/pop/complete/close, so batch formation touches only eligible
// queues instead of rescanning every queue in the system. The creation seq
// provides a deterministic tie-break when two classes have equally-old
// heads.
type readyBucket struct {
	key    bucketKey
	seq    uint64 // creation order; deterministic tie-break
	queues []*cmdQueue
}

// remove drops the queue at index i (swap-remove; member order is
// irrelevant because batch formation re-sorts by priority).
func (b *readyBucket) remove(i int) {
	last := len(b.queues) - 1
	moved := b.queues[last]
	b.queues[i] = moved
	moved.bucketIdx = i
	b.queues[last] = nil
	b.queues = b.queues[:last]
}

// Scheduler groups compatible GPU-bound API calls into batches (§5.2).
//
// Vertical batching: consecutive same-type calls from one command queue
// join one batch; because the backend executes a batch's calls in order at
// kernel completion, chained forwards (call N+1 reading call N's output
// pages — the paper's split-prefill example) are correct inside one batch.
//
// Horizontal batching: head-runs from different queues merge, higher
// priority queues placed first; the batch is truncated at maxBatchCalls
// from the tail. Among op types, the one whose oldest pending call has
// waited longest wins.
//
// Prefill budget (adaptive policy only): a forward batch with a decode step
// among its heads carries at most gpu.Spec.PrefillBudget prefill tokens, so
// decode steps do not wait out other sessions' long fills. Prefill calls
// join in the same priority/queue order while they fit; the first always
// rides. A call that does not fit ends its queue's head run for this batch
// — the queue keeps its order and its place, and the call leads the run in
// the next forward — while later queues' decodes and smaller fills still
// join. Calls are deferred whole, never split.
type Scheduler struct {
	clock *sim.Clock
	ctl   *Controller
	cfg   SchedConfig

	buckets []*readyBucket // creation order; a handful (ops × models)

	// readyCalls is the number of pending calls on currently-eligible
	// queues, maintained incrementally so the K-only policy never rescans
	// the queue set (the old pendingDispatchable walked every queue on
	// every enqueue and completion).
	readyCalls int

	// scratch is the reusable batch-formation working set: dispatchOne
	// must order (and then refresh) a snapshot of the winning bucket's
	// queues without allocating per dispatch.
	scratch []*cmdQueue

	kickPending bool
	kick        func() // s.runKick, bound once: a kick is armed per batch

	// freeBatches are batch records (with their Calls arrays) the backend is
	// done with; onBatchComplete returns them.
	freeBatches []*infer.Batch

	// Stats.
	Batches      int
	BatchedCalls int
	MaxBatch     int
}

// kickDelay is the adaptive policy's dispatch hysteresis: batch formation
// waits for the in-flight completion wave (event-dispatcher fan-out plus
// the IPC hop) to deliver its burst of follow-up API calls before forming
// a batch. Without it, the first call of a wave would flush as a tiny
// batch and the cohort would fragment into phase groups that alternate on
// the GPU forever. The cost shows up in Table 3's "+0.05 ms batch
// scheduling" row.
const kickDelay = 20 * time.Microsecond

// The baseline policies' parameters (Table 5) and the backend's batch size.
const (
	kOnlyThreshold = 32                   // PolicyKOnly dispatches once this many calls are ready
	tOnlyInterval  = 5 * time.Millisecond // PolicyTOnly flushes every queue this often
	maxBatchCalls  = 256                  // a batch is truncated from the tail past this many calls
)

func newScheduler(clock *sim.Clock, ctl *Controller, cfg SchedConfig) *Scheduler {
	s := &Scheduler{clock: clock, ctl: ctl, cfg: cfg}
	s.kick = s.runKick
	switch cfg.Policy {
	case PolicyTOnly:
		clock.GoDaemon("sched:ticker", s.tickerLoop)
	case PolicyKOnly:
		// A slow safety flush keeps sub-K tails from stalling forever; the
		// paper's K-only baseline is otherwise strictly threshold-driven.
		clock.GoDaemon("sched:konly-flush", s.kOnlyFlushLoop)
	}
	return s
}

// Config returns the active configuration.
func (s *Scheduler) Config() SchedConfig { return s.cfg }

func (s *Scheduler) tickerLoop() {
	for {
		s.clock.Sleep(tOnlyInterval)
		for s.dispatchOne() {
		}
	}
}

func (s *Scheduler) kOnlyFlushLoop() {
	const stallLimit = 100 * time.Millisecond
	for {
		s.clock.Sleep(stallLimit / 2)
		now := s.clock.Now()
	scan:
		for _, b := range s.buckets {
			for _, q := range b.queues {
				if now-q.head().Enq > stallLimit {
					s.dispatchOne()
					break scan
				}
			}
		}
	}
}

// refresh re-indexes one queue after any state change (enqueue, pop,
// completion, close). It drains queue-ordered control ops that reached the
// head, then moves the queue into, out of, or between ready buckets and
// updates the incremental K-only call count. O(1) amortized per call.
func (s *Scheduler) refresh(q *cmdQueue) {
	var h *call
	if !q.closed && q.inflight == 0 {
		h = q.head()
		if h != nil && h.Op.ControlSide() {
			s.ctl.drainControlOps(q)
			h = q.head()
		}
	}
	eligible := h != nil && !h.Op.ControlSide()

	contribution := 0
	if eligible {
		contribution = q.queued()
	}
	s.readyCalls += contribution - q.counted
	q.counted = contribution

	if !eligible {
		if q.bucket != nil {
			q.bucket.remove(q.bucketIdx)
			q.bucket = nil
		}
		return
	}
	key := bucketKey{h.Op, q.m.rt}
	if q.bucket != nil {
		if q.bucket.key == key {
			return
		}
		q.bucket.remove(q.bucketIdx)
		q.bucket = nil
	}
	var b *readyBucket
	for _, cand := range s.buckets {
		if cand.key == key {
			b = cand
			break
		}
	}
	if b == nil {
		b = &readyBucket{key: key, seq: uint64(len(s.buckets) + 1)}
		s.buckets = append(s.buckets, b)
	}
	q.bucket = b
	q.bucketIdx = len(b.queues)
	b.queues = append(b.queues, q)
}

// onEnqueue reacts to a new call on q.
func (s *Scheduler) onEnqueue(q *cmdQueue) {
	s.refresh(q)
	switch s.cfg.Policy {
	case PolicyEager:
		for s.dispatchOne() {
		}
	case PolicyAdaptive:
		if s.ctl.backend.Device.Idle() {
			s.scheduleKick()
		}
	case PolicyKOnly:
		if s.readyCalls >= kOnlyThreshold {
			s.dispatchOne()
		}
	case PolicyTOnly:
		// ticker only
	}
}

// scheduleKick arms a one-shot batch-formation timer kickDelay from now
// (see kickDelay). At most one kick is pending at a time.
func (s *Scheduler) scheduleKick() {
	if s.kickPending {
		return
	}
	s.kickPending = true
	s.clock.After(kickDelay, s.kick)
}

func (s *Scheduler) runKick() {
	s.kickPending = false
	if s.ctl.backend.Device.Idle() {
		s.dispatchOne()
	}
}

// onDeviceIdle is the work-conserving trigger (§6.1): the inference layer
// notifies the moment the GPU drains.
func (s *Scheduler) onDeviceIdle() {
	switch s.cfg.Policy {
	case PolicyAdaptive:
		s.scheduleKick()
	case PolicyEager:
		s.dispatchOne()
	}
}

// tryDispatch is called after completions release queue ordering.
func (s *Scheduler) tryDispatch() {
	switch s.cfg.Policy {
	case PolicyAdaptive:
		if s.ctl.backend.Device.Idle() {
			s.scheduleKick()
		}
	case PolicyEager:
		for s.dispatchOne() {
		}
	case PolicyKOnly:
		if s.readyCalls >= kOnlyThreshold {
			s.dispatchOne()
		}
	}
}

// dispatchOne forms and submits a single batch; it reports whether one was
// dispatched. It runs in O(eligible queues): the ready buckets already
// exclude closed, busy, empty, and control-headed queues.
//
// Type selection: light stage-ops (embed, sampling, KV maintenance) beat
// forwards, and within a class the type whose oldest pending call has
// waited longest wins; equal ages tie-break on bucket creation order so
// same-seed runs pick identical batches. Draining the light ops first lets
// every inferlet blocked behind them reach its next forward, so the
// expensive kernel forms at full cohort width instead of splitting into
// alternating phase groups.
func (s *Scheduler) dispatchOne() bool {
	var best *readyBucket
	var bestOldest time.Duration
	for _, b := range s.buckets {
		if len(b.queues) == 0 {
			continue
		}
		oldest := b.queues[0].head().Enq
		for _, q := range b.queues[1:] {
			if e := q.head().Enq; e < oldest {
				oldest = e
			}
		}
		if best == nil || betterBucket(b, oldest, best, bestOldest) {
			best, bestOldest = b, oldest
		}
	}
	if best == nil {
		return false
	}

	// Order a snapshot of the bucket's queues by priority then queue id
	// (refresh below mutates best.queues while we iterate the snapshot).
	eligible := append(s.scratch[:0], best.queues...)
	s.scratch = eligible
	sortQueues(eligible)

	max := maxBatchCalls
	if s.cfg.Policy == PolicyEager {
		max = 1
	}
	batch := s.newBatch(best.key)
	budget, prefill := s.prefillBudget(best.key, eligible), 0
	for _, q := range eligible {
		if len(batch.Calls) >= max {
			break // truncate from the tail (§5.2)
		}
		// Vertical: take the head run of same-type calls.
		for len(batch.Calls) < max {
			h := q.head()
			if h == nil || h.Op != best.key.op {
				break
			}
			if n := h.PrefillTokens(); n > 0 {
				if prefill > 0 && prefill+n > budget {
					break // the run resumes here in the next forward
				}
				prefill += n
			}
			q.pop()
			q.inflight++
			batch.Calls = append(batch.Calls, &h.Call)
		}
	}
	for _, q := range eligible {
		s.refresh(q)
	}
	if len(batch.Calls) == 0 {
		s.freeBatch(batch)
		return false
	}
	batch.Extra = s.cfg.SchedOverhead
	if batch.Op == infer.OpNextDist {
		batch.Extra += s.cfg.DistReturnOverhead
	}
	s.Batches++
	s.BatchedCalls += len(batch.Calls)
	if len(batch.Calls) > s.MaxBatch {
		s.MaxBatch = len(batch.Calls)
	}
	s.ctl.backend.Submit(batch)
	return true
}

// prefillBudget returns how many prefill tokens a batch of key's class,
// formed from eligible, may carry. Under the adaptive policy a forward with
// a decode step among its heads takes at most the model's PrefillBudget;
// every other batch is unbounded.
func (s *Scheduler) prefillBudget(key bucketKey, eligible []*cmdQueue) int {
	if s.cfg.Policy == PolicyAdaptive && key.op == infer.OpForward {
		for _, q := range eligible {
			if q.head().PrefillTokens() == 0 {
				return key.rt.Spec.PrefillBudget()
			}
		}
	}
	return math.MaxInt
}

// newBatch returns an empty batch of key's class, recycled when there is one.
func (s *Scheduler) newBatch(key bucketKey) *infer.Batch {
	n := len(s.freeBatches)
	if n == 0 {
		return &infer.Batch{Op: key.op, Model: key.rt}
	}
	b := s.freeBatches[n-1]
	s.freeBatches = s.freeBatches[:n-1]
	b.Op, b.Model = key.op, key.rt
	return b
}

// freeBatch takes back a batch nothing refers to any more, blank but for
// its Calls array.
func (s *Scheduler) freeBatch(b *infer.Batch) {
	clear(b.Calls)
	*b = infer.Batch{Calls: b.Calls[:0]}
	s.freeBatches = append(s.freeBatches, b)
}

// betterBucket reports whether bucket a (oldest head age oa) should
// dispatch before bucket b (oldest head age ob). Light stage-ops beat
// forwards; then older heads win; then embeds yield; then bucket creation
// order — a total, deterministic order independent of map iteration.
func betterBucket(a *readyBucket, oa time.Duration, b *readyBucket, ob time.Duration) bool {
	lightA, lightB := a.key.op != infer.OpForward, b.key.op != infer.OpForward
	if lightA != lightB {
		return lightA
	}
	if oa != ob {
		return oa < ob
	}
	// Equal ages: calls enqueued at one wake instant. embed_txt yields to the
	// other light ops, because what they complete (a detokenize, a mask)
	// releases sessions whose next call is an embed: it then joins
	// this wave's embed batch instead of forming one of its own.
	if ea, eb := a.key.op == infer.OpEmbedText, b.key.op == infer.OpEmbedText; ea != eb {
		return eb
	}
	return a.seq < b.seq
}

func sortQueues(qs []*cmdQueue) {
	// Insertion sort: eligible sets are small and allocation-free ordering
	// keeps the scheduler cheap.
	for i := 1; i < len(qs); i++ {
		for j := i; j > 0; j-- {
			a, b := qs[j-1], qs[j]
			if b.priority > a.priority || (b.priority == a.priority && b.id < a.id) {
				qs[j-1], qs[j] = b, a
			} else {
				break
			}
		}
	}
}

// forgetQueue removes a closed queue from scheduling.
func (s *Scheduler) forgetQueue(q *cmdQueue) {
	s.readyCalls -= q.counted
	q.counted = 0
	if q.bucket != nil {
		q.bucket.remove(q.bucketIdx)
		q.bucket = nil
	}
}

// AvgBatchSize reports mean calls per batch.
func (s *Scheduler) AvgBatchSize() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedCalls) / float64(s.Batches)
}

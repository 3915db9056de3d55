package core

import (
	"fmt"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
	"pie/internal/tokenizer"
	"pie/internal/trace"
)

// --- Inference-layer calls -------------------------------------------------
//
// The per-call path: resolve handles to physical objects, pin the pages,
// enqueue, and — when the batch comes back — release queue ordering. It
// looks nothing up by string or by hash: handle tables and page metadata
// are slices, queues carry their model's pools, a call carries its queue.

// resolvePages maps KV-page handles to physical pages, filling out (one
// entry per handle). Each physical page met for the first time since the
// pool's last firstSight is appended to pins, so a call's pin set lists
// every page once, in first-mention order, however often ReadKv and
// AppendKv repeat it.
func (ctl *Controller) resolvePages(inst *Instance, q *cmdQueue, ids []api.KvPage, out []*model.KvPage, pins []int32) ([]int32, error) {
	for i, id := range ids {
		ref := inst.pages.get(uint64(id))
		if ref == nil || ref.m != q.m {
			return pins, api.ErrBadHandle
		}
		out[i] = q.m.rt.Page(ref.phys)
		if q.m.pages.mark(ref.phys) {
			pins = append(pins, ref.phys)
		}
	}
	return pins, nil
}

func (ctl *Controller) resolveEmbeds(inst *Instance, q *cmdQueue, ids []api.Embed, out []*model.EmbedSlot) error {
	for i, id := range ids {
		ref := inst.embeds.get(uint64(id))
		if ref == nil || ref.m != q.m {
			return api.ErrBadHandle
		}
		out[i] = q.m.rt.Embed(ref.phys)
	}
	return nil
}

// chargeSwap prices n page moves across the PCIe link in the caller's
// process (allocation-triggered offloads, forward-triggered faults).
func (ctl *Controller) chargeSwap(rt *infer.ModelRuntime, n int) {
	if n <= 0 {
		return
	}
	cost := rt.Spec.SwapCost(n, rt.Info.PageSize)
	ctl.xferTime += cost
	ctl.clock.Sleep(cost)
}

// preparePages readies the physical pages an inference call references
// (pins: each page once, from resolvePages): stamps recency, pins them
// against offload and recycling for the call's lifetime, and prefetches
// host-resident pages back to the device tier, charging the PCIe transfer
// before the call enqueues — by dispatch time the pages are resident. A
// fault that cannot clear device room because other calls pin the tier
// full waits for room in FIFO order (awaitRoom), so sessions fault
// transparently. The pin set rides on the call and is dropped by
// unpinCall; until it is handed over, a deferred release covers an FCFS
// kill landing inside the transfer-charge sleep.
func (ctl *Controller) preparePages(q *cmdQueue, c *call, pins []int32) error {
	if len(pins) == 0 {
		return nil
	}
	p := q.m.pages
	held := false // pins taken, not yet handed to the call
	defer func() {
		if held {
			p.unpinAll(pins)
		}
	}()
	var deadline time.Duration
	for woken := false; ; woken = true {
		hostResident := p.pinAll(pins)
		held = true
		in, out, ok := 0, 0, true
		if hostResident {
			in, out, ok = p.faultIn(pins)
		}
		if ok {
			if woken {
				ctl.roomFreed(q.m)
			}
			ctl.chargeSwap(q.m.rt, in+out) // may be interrupted by a kill; see defer
			c.pins, held = pins, false
			return nil
		}
		// Unpin while waiting so competing faults can make progress.
		p.unpinAll(pins)
		held = false
		if !ctl.awaitRoom(q.m, woken, &deadline) {
			return fmt.Errorf("%w: cannot fault offloaded pages back to device (device tier fully pinned for %v)",
				api.ErrOutOfResources, roomWaitLimit)
		}
		if q.closed {
			return api.ErrQueueClosed
		}
	}
}

// unpinCall releases a call's page pins. Idempotent: exactly one of batch
// completion, queue close, or instance release runs it per call.
func (ctl *Controller) unpinCall(c *call) {
	c.q.m.pages.unpinAll(c.pins)
	c.pins = c.pins[:0]
}

// refuse releases the pins of a call that will never enqueue and recycles
// its record.
func (ctl *Controller) refuse(c *call, err error) error {
	ctl.unpinCall(c)
	ctl.recycle(c)
	return err
}

// newCall takes a record, stamps common fields and instruments the
// instance.
func (ctl *Controller) newCall(inst *Instance, q *cmdQueue, op infer.Op) *call {
	return ctl.stamp(ctl.record(q), inst, op)
}

// stamp numbers a record whose arguments resolved: from here on the call
// is part of the instance's history (Seq orders it among all calls).
func (ctl *Controller) stamp(c *call, inst *Instance, op infer.Op) *call {
	q := c.q
	ctl.callSeq++
	inst.InferCalls++
	c.Op = op
	c.Seq = ctl.callSeq
	c.Enq = ctl.clock.Now()
	c.Inst = inst.ID
	c.Model = q.m.rt
	c.Ctl = c
	return c
}

// The calls that write into handles the program already owns — embed_txt,
// embed_img, forward, copy_kvpage, mask_kvpage — return no result: queue
// order is their completion, and an execution error waits on the queue for
// its next synchronize (cmdQueue.err).

// EmbedText schedules embed_txt: token ids into embedding slots with
// explicit positions.
func (ctl *Controller) EmbedText(inst *Instance, qid api.Queue, tokens, positions []int, dst []api.Embed) error {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	c := ctl.record(q)
	c.embBuf = carve(c.embBuf, len(dst))
	if err := ctl.resolveEmbeds(inst, q, dst, c.embBuf); err != nil {
		return ctl.refuse(c, err)
	}
	ctl.stamp(c, inst, infer.OpEmbedText)
	// The caller keeps its slices; the call gets one private copy of both.
	c.intBuf = append(append(c.intBuf[:0], tokens...), positions...)
	c.TokenIDs, c.Positions = c.intBuf[:len(tokens):len(tokens)], c.intBuf[len(tokens):]
	c.Outputs = c.embBuf
	ctl.enqueue(q, c)
	return nil
}

// EmbedImage schedules embed_img.
func (ctl *Controller) EmbedImage(inst *Instance, qid api.Queue, blob []byte, positions []int, dst []api.Embed) error {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	if !q.m.rt.Info.HasTraitClosure(api.TraitInputImage) {
		return api.ErrNoSuchTrait
	}
	c := ctl.record(q)
	c.embBuf = carve(c.embBuf, len(dst))
	if err := ctl.resolveEmbeds(inst, q, dst, c.embBuf); err != nil {
		return ctl.refuse(c, err)
	}
	ctl.stamp(c, inst, infer.OpEmbedImage)
	c.Blob = blob
	c.intBuf = append(c.intBuf[:0], positions...)
	c.Positions = c.intBuf
	c.Outputs = c.embBuf
	ctl.enqueue(q, c)
	return nil
}

// Forward schedules the core transformer pass.
func (ctl *Controller) Forward(inst *Instance, qid api.Queue, args api.ForwardArgs) error {
	c, q, err := ctl.buildForward(inst, qid, args)
	if err != nil {
		return err
	}
	ctl.enqueue(q, c)
	return nil
}

// ForwardSampled schedules forward_with_sampling (the fused monolithic-style
// pipeline, TraitFused): optional inline token embedding, forward, and
// on-GPU sampling, one kernel. The sampled tokens are the call's result.
func (ctl *Controller) ForwardSampled(inst *Instance, qid api.Queue, args api.ForwardArgs, inlineTokens, inlinePos []int, spec infer.SampleSpec) (sim.Result[[]int], error) {
	c, q, err := ctl.buildForward(inst, qid, args)
	if err != nil {
		return sim.Result[[]int]{}, err
	}
	if n := len(inlineTokens); n > 0 {
		if len(args.InputEmb) > 0 {
			return sim.Result[[]int]{}, ctl.refuse(c, fmt.Errorf("%w: both InputEmb and inline tokens", api.ErrBadArgument))
		}
		c.intBuf = append(append(c.intBuf[:0], inlineTokens...), inlinePos...)
		c.FusedEmb, c.FusedPos = c.intBuf[:n:n], c.intBuf[n:]
	}
	c.sample = spec
	c.Sample = &c.sample
	r := sim.Hold(&c.Res, &c.Sampled)
	ctl.enqueue(q, c)
	return r, nil
}

// buildForward resolves a forward's four handle lists in one pass. The
// call's page lists share one backing array and its embed lists another;
// with the pin set they are all that grows with the context, and all three
// stay with the record when it is recycled.
func (ctl *Controller) buildForward(inst *Instance, qid api.Queue, args api.ForwardArgs) (*call, *cmdQueue, error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, nil, err
	}
	c := ctl.record(q)
	nCtx, nOut := len(args.InputKv), len(args.OutputKv)
	c.pageBuf = carve(c.pageBuf, nCtx+nOut)
	pages, pins := c.pageBuf, c.pins[:0]
	q.m.pages.firstSight()
	if pins, err = ctl.resolvePages(inst, q, args.InputKv, pages[:nCtx], pins); err != nil {
		return nil, nil, ctl.refuse(c, err)
	}
	if pins, err = ctl.resolvePages(inst, q, args.OutputKv, pages[nCtx:], pins); err != nil {
		return nil, nil, ctl.refuse(c, err)
	}
	nIn := len(args.InputEmb)
	c.embBuf = carve(c.embBuf, nIn+len(args.OutputEmb))
	embeds := c.embBuf
	if err := ctl.resolveEmbeds(inst, q, args.InputEmb, embeds[:nIn]); err != nil {
		return nil, nil, ctl.refuse(c, err)
	}
	if err := ctl.resolveEmbeds(inst, q, args.OutputEmb, embeds[nIn:]); err != nil {
		return nil, nil, ctl.refuse(c, err)
	}
	if args.Adapter != "" && !q.m.rt.Info.HasTraitClosure(api.TraitAdapter) {
		return nil, nil, ctl.refuse(c, api.ErrNoSuchTrait)
	}
	ctl.stamp(c, inst, infer.OpForward)
	c.CtxPages, c.OutPages = pages[:nCtx:nCtx], pages[nCtx:]
	c.Inputs, c.Outputs = embeds[:nIn:nIn], embeds[nIn:]
	c.Mask = args.Mask
	c.Adapter = args.Adapter
	if err := ctl.preparePages(q, c, pins); err != nil {
		return nil, nil, ctl.refuse(c, err)
	}
	return c, q, nil
}

// NextDist schedules get_next_dist; the distribution is the call's result.
func (ctl *Controller) NextDist(inst *Instance, qid api.Queue, emb api.Embed) (sim.Result[api.Dist], error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return sim.Result[api.Dist]{}, err
	}
	ref := inst.embeds.get(uint64(emb))
	if ref == nil || ref.m != q.m {
		return sim.Result[api.Dist]{}, api.ErrBadHandle
	}
	c := ctl.newCall(inst, q, infer.OpNextDist)
	c.DistOf = q.m.rt.Embed(ref.phys)
	r := sim.Hold(&c.Res, &c.Dist)
	ctl.enqueue(q, c)
	return r, nil
}

// CopyKv schedules copy_kvpage: token-level copy between pages.
func (ctl *Controller) CopyKv(inst *Instance, qid api.Queue, src, dst api.KvPage, srcOff, dstOff, n int) error {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	c := ctl.record(q)
	var pages [2]*model.KvPage
	q.m.pages.firstSight()
	pins, err := ctl.resolvePages(inst, q, []api.KvPage{src, dst}, pages[:], c.pins[:0])
	if err != nil {
		return ctl.refuse(c, err)
	}
	ctl.stamp(c, inst, infer.OpCopyKv)
	c.SrcPage, c.DstPage = pages[0], pages[1]
	c.SrcOff, c.DstOff, c.NumTokens = srcOff, dstOff, n
	if err := ctl.preparePages(q, c, pins); err != nil {
		return ctl.refuse(c, err)
	}
	ctl.enqueue(q, c)
	return nil
}

// MaskKv schedules mask_kvpage: token-level attention mask bits. The call
// keeps a private copy of bits, so the caller may reuse the slice at once.
func (ctl *Controller) MaskKv(inst *Instance, qid api.Queue, page api.KvPage, bits []bool) error {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	c := ctl.record(q)
	var pages [1]*model.KvPage
	q.m.pages.firstSight()
	pins, err := ctl.resolvePages(inst, q, []api.KvPage{page}, pages[:], c.pins[:0])
	if err != nil {
		return ctl.refuse(c, err)
	}
	ctl.stamp(c, inst, infer.OpMaskKv)
	c.MaskPage = pages[0]
	c.boolBuf = append(c.boolBuf[:0], bits...)
	c.MaskBits = c.boolBuf
	if err := ctl.preparePages(q, c, pins); err != nil {
		return ctl.refuse(c, err)
	}
	ctl.enqueue(q, c)
	return nil
}

// Tokenize runs tokenize on the host when it is called: the caller pays the
// tokenizer's price and gets a ready result, with no record behind it.
// Unlike detokenize and get_vocabs it waits neither for the device nor for
// earlier calls on its queue. It still counts as an inference call.
func (ctl *Controller) Tokenize(inst *Instance, qid api.Queue, text string) (sim.Result[[]int], error) {
	tok, err := ctl.tokenizer(inst, qid, text)
	if err != nil {
		return sim.Result[[]int]{}, err
	}
	return sim.Ready(tok.Encode(text)), nil
}

// AppendTokens is Tokenize with the ids appended to dst: the same charge,
// no result.
func (ctl *Controller) AppendTokens(inst *Instance, qid api.Queue, dst []int, text string) ([]int, error) {
	tok, err := ctl.tokenizer(inst, qid, text)
	if err != nil {
		return dst, err
	}
	return tok.AppendEncode(dst, text), nil
}

// tokenizer charges one tokenize call of text on qid and returns the
// tokenizer of the queue's model.
func (ctl *Controller) tokenizer(inst *Instance, qid api.Queue, text string) (*tokenizer.Tokenizer, error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	ctl.callSeq++
	inst.InferCalls++
	tok := q.m.rt.Model.Tokenizer()
	ctl.clock.Sleep(infer.TokenizerCost(1, len(text)))
	return tok, nil
}

// Detokenize schedules detokenize.
func (ctl *Controller) Detokenize(inst *Instance, qid api.Queue, ids []int) (sim.Result[string], error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return sim.Result[string]{}, err
	}
	c := ctl.newCall(inst, q, infer.OpDetokenize)
	c.intBuf = append(c.intBuf[:0], ids...)
	c.TokenIDs = c.intBuf
	r := sim.Hold(&c.Res, &c.Text)
	ctl.enqueue(q, c)
	return r, nil
}

// GetVocabs schedules get_vocabs.
func (ctl *Controller) GetVocabs(inst *Instance, qid api.Queue) (sim.Result[[][]byte], error) {
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return sim.Result[[][]byte]{}, err
	}
	c := ctl.newCall(inst, q, infer.OpGetVocabs)
	r := sim.Hold(&c.Res, &c.Vocab)
	ctl.enqueue(q, c)
	return r, nil
}

// --- Outstanding-work accounting -------------------------------------------

// callTokenWeight prices a call's share of outstanding work in tokens:
// forwards and embeds weigh their fresh tokens, other inference ops weigh
// one, control-side ops weigh nothing.
func callTokenWeight(c *infer.Call) int {
	if c.Op.ControlSide() {
		return 0
	}
	if n := c.NewTokens(); n > 0 {
		return n
	}
	return 1
}

// admitCall / retireCall maintain the outstanding-work counters. A call is
// admitted once at enqueue and retired exactly once: at batch completion
// for dispatched calls, or at queue close for calls that never dispatched.
func (ctl *Controller) admitCall(c *infer.Call) {
	if c.Op.ControlSide() {
		return
	}
	ctl.outstandingCalls++
	ctl.outstandingTokens += callTokenWeight(c)
	ctl.outstandingPrefill += c.PrefillTokens()
}

func (ctl *Controller) retireCall(c *infer.Call) {
	if c.Op.ControlSide() {
		return
	}
	ctl.outstandingCalls--
	ctl.outstandingTokens -= callTokenWeight(c)
	ctl.outstandingPrefill -= c.PrefillTokens()
}

// OutstandingCalls reports inference-layer calls admitted but not yet
// completed (queued or in flight).
func (ctl *Controller) OutstandingCalls() int { return ctl.outstandingCalls }

// OutstandingTokens reports the token-weighted outstanding work — the
// cluster's least-outstanding-tokens placement signal.
func (ctl *Controller) OutstandingTokens() int { return ctl.outstandingTokens }

// OutstandingPrefillTokens reports the fresh tokens of admitted
// bulk-prefill forwards not yet completed — a scaler saturation signal.
func (ctl *Controller) OutstandingPrefillTokens() int { return ctl.outstandingPrefill }

// --- Enqueue and completion -------------------------------------------------

// enqueue adds a call to its queue and pokes the scheduler.
func (ctl *Controller) enqueue(q *cmdQueue, c *call) {
	ctl.admitCall(&c.Call)
	q.push(c)
	ctl.sched.onEnqueue(q)
}

// failPending tears down a closing queue's backlog in FIFO order: calls
// that never dispatched fail with err and drop their pins; control ops
// still run (runOp).
func (ctl *Controller) failPending(q *cmdQueue, err error) {
	for q.queued() > 0 {
		c := q.pop()
		if c.Op.ControlSide() {
			ctl.runOp(c)
			continue
		}
		ctl.retireCall(&c.Call)
		ctl.unpinCall(c)
		c.Err = err
		c.Fail()
		c.Res.Release()
	}
	ctl.sched.forgetQueue(q)
}

// onBatchComplete is the event dispatcher (§5.2 step 5): results arrived
// from the inference layer; release queue ordering and keep dispatching.
func (ctl *Controller) onBatchComplete(b *infer.Batch) {
	m, pinned := b.Calls[0].Ctl.(*call).q.m, false
	for _, ic := range b.Calls {
		c := ic.Ctl.(*call)
		ctl.retireCall(ic)
		pinned = pinned || len(c.pins) > 0
		ctl.unpinCall(c)
		c.q.inflight--
		if ic.Err != nil && !ic.HasResult() && c.q.err == nil {
			// No result to carry it: the queue's next synchronize does.
			c.q.err = ic.Err
		}
	}
	if ctl.spans != nil {
		ctl.emitSpans(b)
	}
	ctl.doneEpoch++
	for _, ic := range b.Calls {
		q := ic.Ctl.(*call).q
		if q.doneEpoch != ctl.doneEpoch {
			q.doneEpoch = ctl.doneEpoch
			// Re-index the queue now that its ordering released: this
			// drains queue-ordered control ops and returns the queue to
			// its ready bucket if the next call is dispatchable.
			ctl.sched.refresh(q)
		}
	}
	// The batch is done with: its results completed in the backend, nothing
	// above reads the records again.
	for _, ic := range b.Calls {
		ic.Ctl.(*call).Res.Release()
	}
	ctl.sched.freeBatch(b)
	ctl.sched.tryDispatch()
	if pinned {
		ctl.roomFreed(m)
	}
}

// emitSpans emits a completed batch's spans: its boundary overhead, if
// the parser reached it, then for a forward each live instance's TTFT
// (its first completed forward, followed by its Prefilled point unless an
// import made that) or ITL (the gap since its previous forward; calls of
// one instance in one batch completed together).
func (ctl *Controller) emitSpans(b *infer.Batch) {
	if b.ParsedAt > 0 {
		ctl.spans.Span(trace.Span{Kind: trace.Overhead, Replica: ctl.replica, Start: b.SubmittedAt, End: b.ParsedAt + 2*infer.IPCCrossing, Calls: len(b.Calls)})
	}
	if b.Op != infer.OpForward {
		return
	}
	now := ctl.clock.Now()
	for _, ic := range b.Calls {
		inst := ic.Ctl.(*call).q.inst
		if inst.dead {
			continue
		}
		if inst.sawFirstTok {
			ctl.spans.Span(trace.Span{Kind: trace.ITL, Replica: ctl.replica, Session: inst.Session, Instance: inst.ID, Class: inst.Class, Start: inst.lastTokenAt, End: now, Calls: 1})
		} else {
			inst.sawFirstTok = true
			ctl.spans.Span(trace.Span{Kind: trace.TTFT, Replica: ctl.replica, Session: inst.Session, Instance: inst.ID, Class: inst.Class, Start: inst.launchedAt, End: now, Calls: 1})
			ctl.markPrefilled(inst)
		}
		inst.lastTokenAt = now
	}
}

// drainControlOps executes queue-ordered control ops (dealloc, sync) that
// have reached the head with nothing in flight ahead of them.
func (ctl *Controller) drainControlOps(q *cmdQueue) {
	for q.inflight == 0 {
		h := q.head()
		if h == nil || !h.Op.ControlSide() {
			return
		}
		ctl.runOp(q.pop())
	}
}

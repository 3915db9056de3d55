package ilm

import (
	"fmt"
	"time"

	"pie/api"
	"pie/inferlet"
	"pie/internal/core"
	"pie/internal/infer"
	"pie/internal/sim"
)

// session implements inferlet.Session: the only capability surface an
// inferlet has. Control-layer calls charge microsecond-scale handling in
// the controller; inference-layer access goes through queue bindings
// (inferlet.QueueRuntime) that flow through the batch scheduler.
//
// A handle holds its session by value and starts it over for each attempt
// (reset), so a launch allocates none.
type session struct {
	ilm    *ILM
	handle *Handle
	ctl    *core.Controller // the replica hosting this instance
	inst   *core.Instance
	rng    sim.RNG
	subs   []*subscription

	// first is the queue the handle's first Open returns, held here so that
	// opening it allocates nothing. It serves one Open per handle, not per
	// attempt: a queue opened by an attempt that ended keeps failing, so a
	// retried attempt's queues are new records.
	first     openQueue
	firstUsed bool
	opened    *openQueue // this attempt's queues, the latest first
}

// openQueue is an open queue's inferlet-side object and the binding behind
// it, allocated together, and the session's list of the queues it opened.
type openQueue struct {
	q    inferlet.Queue
	b    queueBinding
	next *openQueue // the queue the attempt opened before this one
}

// reset starts the session over for a new attempt of h, on h.ctl, in place:
// a fresh Random stream, no subscriptions or queues, no instance yet. The
// first queue's slot is left as it is.
func (s *session) reset(h *Handle) {
	s.ilm, s.handle, s.ctl, s.inst = h.ilm, h, h.ctl, nil
	s.rng = sim.MakeRNG(0x5EED ^ h.ID)
	clear(s.subs)
	s.subs = s.subs[:0]
	s.opened = nil
}

// Terminated is the control layer telling the session its instance was
// terminated (core.Owner): the inferlet's process unwinds with reason.
func (s *session) Terminated(reason error) {
	h := s.handle
	h.killErr = reason
	if h.proc != nil {
		s.ilm.clock.Kill(h.proc)
	}
}

func (s *session) cancelSubscriptions() {
	for _, sub := range s.subs {
		sub.Cancel()
	}
}

// checkHandoff runs at forward boundaries: once the instance is marked
// HandoffPending (its first forward completed, or it imported prefilled KV,
// on a prefill-role replica), it asks the cluster's handoff coordinator to
// move the instance to a decode replica. On success the session and its
// handle repoint at the new controller; the instance keeps its handles and
// queue ids, so open inferlet.Queue objects keep working untouched.
func (s *session) checkHandoff() {
	if s.inst == nil || !s.inst.HandoffPending {
		return
	}
	if ctl, ok := s.ilm.place.MaybeHandoff(s.ctl, s.inst); ok {
		s.ctl, s.handle.ctl = ctl, ctl
	}
}

// --- Core runtime -----------------------------------------------------

// GetArg returns the launch's own copy of its arguments, read-only: its
// capacity ends at its length, so an append copies it.
func (s *session) GetArg() []string {
	args := s.handle.spec.Args
	return args[:len(args):len(args)]
}

func (s *session) Send(msg string) {
	s.inst.ControlCalls++
	s.handle.toUser.Send(msg)
}

func (s *session) Receive() api.Future[string] {
	s.inst.ControlCalls++
	return s.handle.toInflt.Receiver()
}

func (s *session) Print(msg string) {
	s.handle.logs = append(s.handle.logs, msg)
}

func (s *session) InstanceID() string {
	return fmt.Sprintf("%s#%d", s.handle.Program, s.handle.ID)
}

func (s *session) Now() time.Duration { return s.ilm.clock.Now() }

func (s *session) Sleep(d time.Duration) { s.ilm.clock.Sleep(d) }

func (s *session) Yield() { s.ilm.clock.Yield() }

func (s *session) Random() uint64 { return s.rng.Uint64() }

func (s *session) ReportOutputTokens(n int) { s.inst.ReportOutputTokens(n) }

// TakeWorkingSet and PutWorkingSet serve the support library's contexts
// from the engine's free list (ILM.sets). A set comes back only from a
// context's Drop or Close, never when an instance ends: a killed attempt's
// deferred Drop still writes to its context's buffers after Terminated.
func (s *session) TakeWorkingSet() any {
	sets := s.ilm.sets
	n := len(sets)
	if n == 0 {
		return nil
	}
	ws := sets[n-1]
	sets[n-1] = nil
	s.ilm.sets = sets[:n-1]
	return ws
}

func (s *session) PutWorkingSet(ws any) { s.ilm.sets = append(s.ilm.sets, ws) }

// AppendKvPages and AppendEmbeds are Alloc.Pages and Alloc.Embeds on q with
// the handles appended to dst, and AppendTokens is Tokenizer.Encode on q
// with the ids appended to dst: the support library's contexts allocate
// into their working sets and tokenize into their streams through them. A
// queue this attempt opened is served through its binding, as its
// capabilities are; any other through its capability, whose list is then
// copied.
func (s *session) AppendKvPages(q *inferlet.Queue, dst []api.KvPage, n int) ([]api.KvPage, error) {
	if b := s.binding(q); b != nil {
		return b.appendKvPages(dst, n)
	}
	return appendAlloc(q, dst, n, (*inferlet.Alloc).Pages)
}

func (s *session) AppendEmbeds(q *inferlet.Queue, dst []api.Embed, n int) ([]api.Embed, error) {
	if b := s.binding(q); b != nil {
		return b.appendEmbeds(dst, n)
	}
	return appendAlloc(q, dst, n, (*inferlet.Alloc).Embeds)
}

func (s *session) AppendTokens(q *inferlet.Queue, dst []int, text string) ([]int, error) {
	if b := s.binding(q); b != nil {
		return b.appendTokens(dst, text)
	}
	tok, err := q.Tokenizer()
	if err != nil {
		return dst, err
	}
	r, err := tok.Encode(text)
	if err != nil {
		return dst, err
	}
	ids, err := r.Get()
	if err != nil {
		return dst, err
	}
	return append(dst, ids...), nil
}

// binding returns the binding behind q if this attempt opened q and q is
// not closed (a closed queue refuses every call before its binding), or nil.
func (s *session) binding(q *inferlet.Queue) *queueBinding {
	for o := s.opened; o != nil; o = o.next {
		if &o.q == q {
			if q.Closed() {
				return nil
			}
			return &o.b
		}
	}
	return nil
}

func appendAlloc[H any](q *inferlet.Queue, dst []H, n int, alloc func(*inferlet.Alloc, int) ([]H, error)) ([]H, error) {
	a, err := q.Alloc()
	if err != nil {
		return nil, err
	}
	got, err := alloc(a, n)
	if err != nil {
		return nil, err
	}
	return append(dst, got...), nil
}

// --- I/O and messaging --------------------------------------------------

func (s *session) HTTPGet(url string) sim.Result[string] {
	s.inst.ControlCalls++
	return s.ilm.world.Call(url, "")
}

func (s *session) HTTPPost(url, body string) sim.Result[string] {
	s.inst.ControlCalls++
	return s.ilm.world.Call(url, body)
}

func (s *session) Broadcast(topic, msg string) {
	s.inst.ControlCalls++
	s.ilm.broadcast(topic, msg)
}

func (s *session) Subscribe(topic string) inferlet.Subscription {
	s.inst.ControlCalls++
	sub := s.ilm.subscribe(topic)
	s.subs = append(s.subs, sub)
	return sub
}

func (s *session) Spawn(program string, args []string) (inferlet.Child, error) {
	s.inst.ControlCalls++
	c := new(child)
	if err := s.ilm.Launch(&c.h, LaunchSpec{Program: program, Args: args}); err != nil {
		return nil, err
	}
	return c, nil
}

type child struct{ h Handle }

func (c *child) Send(msg string)          { c.h.Send(msg) }
func (c *child) Recv() api.Future[string] { return c.h.Recv() }

// Wait is the handle's own done future: it resolves with what h.Wait
// returns, and like it survives requeues.
func (c *child) Wait() api.Future[error] { return &c.h.done }

// --- Model discovery ------------------------------------------------------

func (s *session) AvailableModels() []api.ModelInfo {
	return s.ctl.Models(s.inst)
}

func (s *session) AvailableTraits(m api.ModelID) ([]api.Trait, error) {
	return s.ctl.Traits(s.inst, m)
}

// --- Command queues --------------------------------------------------------

// Open creates a controller command queue and wraps it in the v2 queue
// object. Capability negotiation happens locally against the model's
// ModelInfo (free of control-layer charges — the trait set is immutable
// data the inferlet already holds from discovery).
func (s *session) Open(m api.ModelID, opts ...inferlet.QueueOption) (*inferlet.Queue, error) {
	if s.inst.Degraded {
		// Graceful degradation: substitute the cheapest model whose trait
		// closure still covers the requested model's declared traits. The
		// inferlet keeps its negotiated capabilities; it just runs them on
		// fewer weight bytes.
		if alt := s.ctl.CheaperModel(string(m)); alt != "" {
			m = api.ModelID(alt)
			s.ctl.Downgrades++
		}
	}
	qid, err := s.ctl.CreateQueue(s.inst, m)
	if err != nil {
		return nil, err
	}
	rt := s.ctl.ModelRuntime(string(m))
	slot := &s.first
	if s.firstUsed {
		slot = new(openQueue)
	}
	s.firstUsed = true
	slot.b = queueBinding{s: s, inst: s.inst, qid: qid, model: string(m)}
	slot.next, s.opened = s.opened, slot
	q := &slot.q
	q.Init(rt.Info, &slot.b)
	for _, o := range opts {
		if err := o(q); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// queueBinding implements inferlet.QueueRuntime: every operation is bound
// to one (instance, queue) pair and delegates to the controller the session
// is on. The instance is the one that opened the queue: once its attempt
// ends, the session starts over on an instance (perhaps a replica) of its
// own, and every call through the binding fails with api.ErrQueueClosed
// (live) before it reaches a controller.
// Residency in the tiered KV cache is invisible at this boundary: a
// Forward/CopyKvPage/MaskKvPage whose pages were offloaded to the host
// tier faults them back in inside the controller (charging the PCIe
// transfer to this session's process), so sessions page transparently.
type queueBinding struct {
	s     *session
	inst  *core.Instance
	qid   api.Queue
	model string
}

// live reports whether the attempt that opened the queue is still the
// session's: if not, the call fails with api.ErrQueueClosed.
func (b *queueBinding) live() error {
	if b.inst != b.s.inst {
		return api.ErrQueueClosed
	}
	return nil
}

func (b *queueBinding) SetPriority(pri int) error {
	if err := b.live(); err != nil {
		return err
	}
	return b.s.ctl.SetQueuePriority(b.inst, b.qid, pri)
}

func (b *queueBinding) Sync() (r sim.Result[struct{}], err error) {
	if err = b.live(); err != nil {
		return r, err
	}
	return b.s.ctl.Synchronize(b.inst, b.qid)
}

func (b *queueBinding) Close() error {
	if err := b.live(); err != nil {
		return err
	}
	return b.s.ctl.CloseQueue(b.inst, b.qid)
}

func (b *queueBinding) AllocEmbeds(n int) ([]api.Embed, error) {
	return b.appendEmbeds(make([]api.Embed, 0, max(n, 0)), n)
}

func (b *queueBinding) appendEmbeds(dst []api.Embed, n int) ([]api.Embed, error) {
	if err := b.live(); err != nil {
		return nil, err
	}
	return b.s.ctl.AllocEmbeds(b.inst, b.qid, dst, n)
}

func (b *queueBinding) DeallocEmbeds(ids []api.Embed) error {
	if err := b.live(); err != nil {
		return err
	}
	return b.s.ctl.DeallocEmbeds(b.inst, b.qid, ids)
}

func (b *queueBinding) AllocKvPages(n int) ([]api.KvPage, error) {
	return b.appendKvPages(make([]api.KvPage, 0, max(n, 0)), n)
}

func (b *queueBinding) appendKvPages(dst []api.KvPage, n int) ([]api.KvPage, error) {
	if err := b.live(); err != nil {
		return nil, err
	}
	return b.s.ctl.AllocPages(b.inst, b.qid, dst, n)
}

func (b *queueBinding) DeallocKvPages(ids []api.KvPage) error {
	if err := b.live(); err != nil {
		return err
	}
	return b.s.ctl.DeallocPages(b.inst, b.qid, ids)
}

func (b *queueBinding) ExportKvPages(name string, ids []api.KvPage) error {
	if err := b.live(); err != nil {
		return err
	}
	return b.s.ctl.ExportPages(b.inst, name, ids)
}

func (b *queueBinding) ImportKvPages(name string) ([]api.KvPage, error) {
	if err := b.live(); err != nil {
		return nil, err
	}
	return b.s.ctl.ImportPages(b.inst, b.qid, name)
}

func (b *queueBinding) HasExport(name string) bool {
	return b.live() == nil && b.s.ctl.HasExport(b.inst, name)
}

func (b *queueBinding) ReleaseExport(name string) error {
	if err := b.live(); err != nil {
		return err
	}
	return b.s.ctl.ReleaseExport(b.inst, name)
}

func (b *queueBinding) CopyKvPage(src, dst api.KvPage, srcOff, dstOff, n int) error {
	if err := b.live(); err != nil {
		return err
	}
	return b.s.ctl.CopyKv(b.inst, b.qid, src, dst, srcOff, dstOff, n)
}

func (b *queueBinding) Forward(args api.ForwardArgs) error {
	if err := b.live(); err != nil {
		return err
	}
	b.s.checkHandoff()
	return b.s.ctl.Forward(b.inst, b.qid, args)
}

func (b *queueBinding) ForwardSampled(args api.ForwardArgs, inlineTokens, inlinePos []int, spec api.SampleSpec) (r sim.Result[[]int], err error) {
	if err = b.live(); err != nil {
		return r, err
	}
	b.s.checkHandoff()
	return b.s.ctl.ForwardSampled(b.inst, b.qid, args, inlineTokens, inlinePos, infer.SampleSpec{
		TopK: spec.TopK, Temperature: spec.Temperature, Seed: spec.Seed,
	})
}

func (b *queueBinding) MaskKvPage(page api.KvPage, bits []bool) error {
	if err := b.live(); err != nil {
		return err
	}
	return b.s.ctl.MaskKv(b.inst, b.qid, page, bits)
}

func (b *queueBinding) EmbedText(tokens, positions []int, dst []api.Embed) error {
	if err := b.live(); err != nil {
		return err
	}
	b.s.checkHandoff()
	return b.s.ctl.EmbedText(b.inst, b.qid, tokens, positions, dst)
}

func (b *queueBinding) EmbedImage(blob []byte, positions []int, dst []api.Embed) error {
	if err := b.live(); err != nil {
		return err
	}
	b.s.checkHandoff()
	return b.s.ctl.EmbedImage(b.inst, b.qid, blob, positions, dst)
}

func (b *queueBinding) NumEmbedsNeeded(imageBytes int) (int, error) {
	if err := b.live(); err != nil {
		return 0, err
	}
	rt := b.s.ctl.ModelRuntime(b.model)
	if rt == nil {
		return 0, api.ErrNoSuchModel
	}
	return rt.Model.EmbedsNeededForImage(imageBytes), nil
}

func (b *queueBinding) GetNextDist(emb api.Embed) (r sim.Result[api.Dist], err error) {
	if err = b.live(); err != nil {
		return r, err
	}
	return b.s.ctl.NextDist(b.inst, b.qid, emb)
}

func (b *queueBinding) Tokenize(text string) (r sim.Result[[]int], err error) {
	if err = b.live(); err != nil {
		return r, err
	}
	return b.s.ctl.Tokenize(b.inst, b.qid, text)
}

func (b *queueBinding) appendTokens(dst []int, text string) ([]int, error) {
	if err := b.live(); err != nil {
		return dst, err
	}
	return b.s.ctl.AppendTokens(b.inst, b.qid, dst, text)
}

func (b *queueBinding) Detokenize(ids []int) (r sim.Result[string], err error) {
	if err = b.live(); err != nil {
		return r, err
	}
	return b.s.ctl.Detokenize(b.inst, b.qid, ids)
}

func (b *queueBinding) GetVocabs() (r sim.Result[[][]byte], err error) {
	if err = b.live(); err != nil {
		return r, err
	}
	return b.s.ctl.GetVocabs(b.inst, b.qid)
}

var (
	_ inferlet.Session      = (*session)(nil)
	_ core.Owner            = (*session)(nil)
	_ inferlet.QueueRuntime = (*queueBinding)(nil)
)

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
type session struct {
	ilm    *ILM
	handle *Handle
	ctl    *core.Controller // the replica hosting this instance
	inst   *core.Instance
	args   []string
	rng    *sim.RNG
	subs   []*subscription
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

func (s *session) GetArg() []string { return append([]string(nil), s.args...) }

func (s *session) Send(msg string) {
	s.inst.ControlCalls++
	s.handle.toUser.Send(msg)
}

func (s *session) Receive() api.Future[string] {
	s.inst.ControlCalls++
	return s.handle.toInflt.RecvFuture()
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

// --- I/O and messaging --------------------------------------------------

func (s *session) HTTPGet(url string) api.Future[string] {
	s.inst.ControlCalls++
	return s.ilm.world.Call(url, "")
}

func (s *session) HTTPPost(url, body string) api.Future[string] {
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
	h, err := s.ilm.Launch(LaunchSpec{Program: program, Args: args})
	if err != nil {
		return nil, err
	}
	return &child{h: h}, nil
}

type child struct{ h *Handle }

func (c *child) Send(msg string)          { c.h.Send(msg) }
func (c *child) Recv() api.Future[string] { return c.h.Recv() }

// Wait is the handle's own done future: it resolves with what h.Wait
// returns, and like it survives requeues.
func (c *child) Wait() api.Future[error] { return c.h.done }

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
	q := inferlet.NewQueue(rt.Info, &queueBinding{s: s, qid: qid, model: string(m)})
	for _, o := range opts {
		if err := o(q); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// queueBinding implements inferlet.QueueRuntime: every operation is bound
// to one (instance, queue) pair and delegates to the replica's controller.
// Residency in the tiered KV cache is invisible at this boundary: a
// Forward/CopyKvPage/MaskKvPage whose pages were offloaded to the host
// tier faults them back in inside the controller (charging the PCIe
// transfer to this session's process), so sessions page transparently.
type queueBinding struct {
	s     *session
	qid   api.Queue
	model string
}

func (b *queueBinding) SetPriority(pri int) error {
	return b.s.ctl.SetQueuePriority(b.s.inst, b.qid, pri)
}

func (b *queueBinding) Synchronize() (api.Future[struct{}], error) {
	return b.s.ctl.Synchronize(b.s.inst, b.qid)
}

func (b *queueBinding) Close() error {
	return b.s.ctl.CloseQueue(b.s.inst, b.qid)
}

func (b *queueBinding) AllocEmbeds(n int) ([]api.Embed, error) {
	return b.s.ctl.AllocEmbeds(b.s.inst, b.qid, n)
}

func (b *queueBinding) DeallocEmbeds(ids []api.Embed) error {
	return b.s.ctl.DeallocEmbeds(b.s.inst, b.qid, ids)
}

func (b *queueBinding) AllocKvPages(n int) ([]api.KvPage, error) {
	return b.s.ctl.AllocPages(b.s.inst, b.qid, n)
}

func (b *queueBinding) DeallocKvPages(ids []api.KvPage) error {
	return b.s.ctl.DeallocPages(b.s.inst, b.qid, ids)
}

func (b *queueBinding) ExportKvPages(name string, ids []api.KvPage) error {
	return b.s.ctl.ExportPages(b.s.inst, name, ids)
}

func (b *queueBinding) ImportKvPages(name string) ([]api.KvPage, error) {
	return b.s.ctl.ImportPages(b.s.inst, b.qid, name)
}

func (b *queueBinding) HasExport(name string) bool {
	return b.s.ctl.HasExport(b.s.inst, name)
}

func (b *queueBinding) ReleaseExport(name string) error {
	return b.s.ctl.ReleaseExport(b.s.inst, name)
}

func (b *queueBinding) CopyKvPage(src, dst api.KvPage, srcOff, dstOff, n int) (api.Future[struct{}], error) {
	return b.s.ctl.CopyKv(b.s.inst, b.qid, src, dst, srcOff, dstOff, n)
}

func (b *queueBinding) Forward(args api.ForwardArgs) (api.Future[struct{}], error) {
	b.s.checkHandoff()
	return b.s.ctl.Forward(b.s.inst, b.qid, args)
}

func (b *queueBinding) ForwardSampled(args api.ForwardArgs, inlineTokens, inlinePos []int, spec api.SampleSpec) (api.Future[[]int], error) {
	b.s.checkHandoff()
	return b.s.ctl.ForwardSampled(b.s.inst, b.qid, args, inlineTokens, inlinePos, infer.SampleSpec{
		TopK: spec.TopK, Temperature: spec.Temperature, Seed: spec.Seed,
	})
}

func (b *queueBinding) MaskKvPage(page api.KvPage, bits []bool) (api.Future[struct{}], error) {
	return b.s.ctl.MaskKv(b.s.inst, b.qid, page, bits)
}

func (b *queueBinding) EmbedText(tokens, positions []int, dst []api.Embed) (api.Future[struct{}], error) {
	b.s.checkHandoff()
	return b.s.ctl.EmbedText(b.s.inst, b.qid, tokens, positions, dst)
}

func (b *queueBinding) EmbedImage(blob []byte, positions []int, dst []api.Embed) (api.Future[struct{}], error) {
	b.s.checkHandoff()
	return b.s.ctl.EmbedImage(b.s.inst, b.qid, blob, positions, dst)
}

func (b *queueBinding) NumEmbedsNeeded(imageBytes int) (int, error) {
	rt := b.s.ctl.ModelRuntime(b.model)
	if rt == nil {
		return 0, api.ErrNoSuchModel
	}
	return rt.Model.EmbedsNeededForImage(imageBytes), nil
}

func (b *queueBinding) GetNextDist(emb api.Embed) (api.Future[api.Dist], error) {
	return b.s.ctl.NextDist(b.s.inst, b.qid, emb)
}

func (b *queueBinding) Tokenize(text string) (api.Future[[]int], error) {
	return b.s.ctl.Tokenize(b.s.inst, b.qid, text)
}

func (b *queueBinding) Detokenize(ids []int) (api.Future[string], error) {
	return b.s.ctl.Detokenize(b.s.inst, b.qid, ids)
}

func (b *queueBinding) GetVocabs() (api.Future[[][]byte], error) {
	return b.s.ctl.GetVocabs(b.s.inst, b.qid)
}

var (
	_ inferlet.Session      = (*session)(nil)
	_ inferlet.QueueRuntime = (*queueBinding)(nil)
)

package inferlet

import (
	"fmt"

	"pie/api"
	"pie/internal/sim"
)

// Result is the result of a call that produces a value. It is read once:
// Get waits for the value, and a second Get fails with api.ErrResultRead.
// Returned as itself it costs no allocation; stored in an api.Future, to
// combine it, one.
type Result[T any] = sim.Result[T]

// Ready returns a result that is already in, with no call behind it: what
// a QueueRuntime or Session that answers at once (a test fake) returns.
func Ready[T any](v T) Result[T] { return sim.Ready(v) }

// QueueRuntime is the provider interface behind a Queue: the serving
// system's application layer (internal/ilm) implements it, with every
// operation already bound to one command queue of one inferlet instance.
// Inferlet code never touches it — the Queue and its negotiated
// capability objects are the only supported surface.
type QueueRuntime interface {
	SetPriority(pri int) error
	Sync() (Result[struct{}], error)
	Close() error

	AllocEmbeds(n int) ([]api.Embed, error)
	DeallocEmbeds(ids []api.Embed) error
	AllocKvPages(n int) ([]api.KvPage, error)
	DeallocKvPages(ids []api.KvPage) error
	ExportKvPages(name string, ids []api.KvPage) error
	ImportKvPages(name string) ([]api.KvPage, error)
	HasExport(name string) bool
	ReleaseExport(name string) error
	CopyKvPage(src, dst api.KvPage, srcOff, dstOff, n int) error

	Forward(args api.ForwardArgs) error
	ForwardSampled(args api.ForwardArgs, inlineTokens, inlinePos []int, spec api.SampleSpec) (Result[[]int], error)
	MaskKvPage(page api.KvPage, bits []bool) error

	EmbedText(tokens, positions []int, dst []api.Embed) error
	EmbedImage(blob []byte, positions []int, dst []api.Embed) error
	NumEmbedsNeeded(imageBytes int) (int, error)

	GetNextDist(emb api.Embed) (Result[api.Dist], error)

	Tokenize(text string) (Result[[]int], error)
	Detokenize(ids []int) (Result[string], error)
	GetVocabs() (Result[[][]byte], error)
}

// Queue is a first-class command queue (§4.1): the ordering, priority,
// and resource domain for inference-layer work against one model.
// Capabilities negotiated from it share its lifetime — Close reclaims
// every resource allocated or imported through the queue and invalidates
// the queue and its capabilities with api.ErrQueueClosed.
//
// A capability getter (Alloc, Forward, Fused, Text, Image, Sample,
// Tokenizer) returns the queue's own capability, the same one each time,
// and negotiating allocates nothing; after Close the getters refuse too.
//
// Calls that write into handles the program already owns — Text.Embed,
// Image.Embed, Forward.Run, Forward.MaskPage, Alloc.CopyPage — return no
// result: queue order is their completion, and Sync or Barrier waits for
// them. If one fails when it executes, the first such error waits on the
// queue: the next Sync or Barrier fails with it (Close returns it), and
// the queue forgets it.
type Queue struct {
	info api.ModelInfo
	rt   QueueRuntime // closedQueue once closed

	// The queue's capabilities: each getter hands out the queue's own.
	alloc     Alloc
	forward   Forward
	fused     Fused
	text      Text
	image     Image
	sample    Sample
	tokenizer Tokenizer
}

// NewQueue binds a queue object to its runtime provider. It is called by
// the serving system (Session.Open); applications never construct queues.
func NewQueue(info api.ModelInfo, rt QueueRuntime) *Queue {
	q := new(Queue)
	q.Init(info, rt)
	return q
}

// Init binds q to its runtime provider in place, as NewQueue does, for a
// serving system that keeps a queue inside a record of its own. The queue
// refers to itself, so it must not be copied after Init.
func (q *Queue) Init(info api.ModelInfo, rt QueueRuntime) {
	*q = Queue{info: info, rt: rt}
	q.alloc.q, q.forward.q, q.fused.q, q.text.q = q, q, q, q
	q.image.q, q.sample.q, q.tokenizer.q = q, q, q
}

// QueueOption configures a queue at Open time.
type QueueOption func(q *Queue) error

// WithPriority sets the queue's batch-scheduler priority at open.
func WithPriority(pri int) QueueOption {
	return func(q *Queue) error { return q.SetPriority(pri) }
}

// Model describes the model the queue is bound to.
func (q *Queue) Model() api.ModelInfo { return q.info }

// SetPriority hints the batch scheduler (set_queue_priority).
func (q *Queue) SetPriority(pri int) error {
	return q.rt.SetPriority(pri)
}

// Barrier returns a future that resolves when every call enqueued before
// this point has completed (synchronize). It fails instead with the first
// execution error of a call without a result since the last Sync or
// Barrier that reported one. Like a call's result, it is read once.
func (q *Queue) Barrier() (api.Future[struct{}], error) {
	r, err := q.rt.Sync()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Sync blocks until every call enqueued before this point has completed,
// and reports the first execution error of a call without a result since
// the last Sync or Barrier that reported one.
func (q *Queue) Sync() error {
	r, err := q.rt.Sync()
	if err != nil {
		return err
	}
	_, err = r.Get()
	return err
}

// Close drains the queue and closes it, which reclaims every embedding slot
// and KV page allocated or imported through the queue and still live
// (freeing one earlier, through this queue or another of the inferlet's,
// is fine; exports survive: the registry holds its own references).
// Further use of the queue or any capability negotiated from it fails with
// api.ErrQueueClosed. An error the drain reports (see Sync) does not stop
// the close: Close returns it after reclaiming.
func (q *Queue) Close() error {
	err := q.Sync()
	if q.Closed() {
		return err
	}
	if cerr := q.rt.Close(); err == nil {
		err = cerr
	}
	q.rt = closedQueue{}
	return err
}

// closedQueue is a closed queue's runtime: it refuses every call, so none
// reaches the serving system (capabilities share their queue's lifetime;
// a Run reports invalid options first).
type closedQueue struct{}

func (closedQueue) SetPriority(int) error                         { return api.ErrQueueClosed }
func (closedQueue) Sync() (r Result[struct{}], err error)         { return r, api.ErrQueueClosed }
func (closedQueue) Close() error                                  { return api.ErrQueueClosed }
func (closedQueue) AllocEmbeds(int) ([]api.Embed, error)          { return nil, api.ErrQueueClosed }
func (closedQueue) DeallocEmbeds([]api.Embed) error               { return api.ErrQueueClosed }
func (closedQueue) AllocKvPages(int) ([]api.KvPage, error)        { return nil, api.ErrQueueClosed }
func (closedQueue) DeallocKvPages([]api.KvPage) error             { return api.ErrQueueClosed }
func (closedQueue) ExportKvPages(string, []api.KvPage) error      { return api.ErrQueueClosed }
func (closedQueue) ImportKvPages(string) ([]api.KvPage, error)    { return nil, api.ErrQueueClosed }
func (closedQueue) HasExport(string) bool                         { return false }
func (closedQueue) ReleaseExport(string) error                    { return api.ErrQueueClosed }
func (closedQueue) CopyKvPage(_, _ api.KvPage, _, _, _ int) error { return api.ErrQueueClosed }
func (closedQueue) Forward(api.ForwardArgs) error                 { return api.ErrQueueClosed }
func (closedQueue) ForwardSampled(api.ForwardArgs, []int, []int, api.SampleSpec) (r Result[[]int], err error) {
	return r, api.ErrQueueClosed
}
func (closedQueue) MaskKvPage(api.KvPage, []bool) error         { return api.ErrQueueClosed }
func (closedQueue) EmbedText(_, _ []int, _ []api.Embed) error   { return api.ErrQueueClosed }
func (closedQueue) EmbedImage([]byte, []int, []api.Embed) error { return api.ErrQueueClosed }
func (closedQueue) NumEmbedsNeeded(int) (int, error)            { return 0, api.ErrQueueClosed }
func (closedQueue) GetNextDist(api.Embed) (r Result[api.Dist], err error) {
	return r, api.ErrQueueClosed
}
func (closedQueue) Tokenize(string) (r Result[[]int], err error)   { return r, api.ErrQueueClosed }
func (closedQueue) Detokenize([]int) (r Result[string], err error) { return r, api.ErrQueueClosed }
func (closedQueue) GetVocabs() (r Result[[][]byte], err error)     { return r, api.ErrQueueClosed }

// Closed reports whether Close has run.
func (q *Queue) Closed() bool { return q.rt == closedQueue{} }

// negotiate gates a capability request on the trait DAG: the model must
// implement t directly or via the transitive supertrait closure.
func (q *Queue) negotiate(t api.Trait) error {
	if q.Closed() {
		return api.ErrQueueClosed
	}
	if !q.info.HasTraitClosure(t) {
		return fmt.Errorf("%w: %s lacks trait %q", api.ErrNoSuchTrait, q.info.ID, t)
	}
	return nil
}

// Alloc negotiates the allocate trait: embedding slots, KV pages, and the
// export/import registry.
func (q *Queue) Alloc() (*Alloc, error) {
	if err := q.negotiate(api.TraitAllocate); err != nil {
		return nil, err
	}
	return &q.alloc, nil
}

// Forward negotiates the forward trait: transformer passes and KV-page
// masking.
func (q *Queue) Forward() (*Forward, error) {
	if err := q.negotiate(api.TraitForward); err != nil {
		return nil, err
	}
	return &q.forward, nil
}

// Fused negotiates the fused trait: the monolithic-style
// forward_with_sampling pipeline (Table 3 ablation).
func (q *Queue) Fused() (*Fused, error) {
	if err := q.negotiate(api.TraitFused); err != nil {
		return nil, err
	}
	return &q.fused, nil
}

// Text negotiates the input_text trait: token-id embedding.
func (q *Queue) Text() (*Text, error) {
	if err := q.negotiate(api.TraitInputText); err != nil {
		return nil, err
	}
	return &q.text, nil
}

// Image negotiates the input_image trait: image-blob embedding.
func (q *Queue) Image() (*Image, error) {
	if err := q.negotiate(api.TraitInputImage); err != nil {
		return nil, err
	}
	return &q.image, nil
}

// Sample negotiates the output_text trait: next-token distributions.
func (q *Queue) Sample() (*Sample, error) {
	if err := q.negotiate(api.TraitOutputText); err != nil {
		return nil, err
	}
	return &q.sample, nil
}

// Tokenizer negotiates the tokenize trait: text↔token conversion and
// vocabulary access.
func (q *Queue) Tokenizer() (*Tokenizer, error) {
	if err := q.negotiate(api.TraitTokenize); err != nil {
		return nil, err
	}
	return &q.tokenizer, nil
}

// --- Allocate capability ---------------------------------------------------

// Alloc is the allocate-trait capability: resource allocation in the
// inferlet's virtual address space, plus the cross-inferlet KV export
// registry. Everything allocated or imported through it belongs to its
// queue and is reclaimed by Queue.Close.
type Alloc struct{ q *Queue }

// Embeds allocates n embedding slots (alloc_emb).
func (a *Alloc) Embeds(n int) ([]api.Embed, error) {
	return a.q.rt.AllocEmbeds(n)
}

// FreeEmbeds releases embedding slots, queue-ordered (dealloc_emb).
func (a *Alloc) FreeEmbeds(ids []api.Embed) error {
	return a.q.rt.DeallocEmbeds(ids)
}

// Pages allocates n KV-cache pages (alloc_kvpage).
func (a *Alloc) Pages(n int) ([]api.KvPage, error) {
	return a.q.rt.AllocKvPages(n)
}

// FreePages releases KV pages, queue-ordered (dealloc_kvpage).
func (a *Alloc) FreePages(ids []api.KvPage) error {
	return a.q.rt.DeallocKvPages(ids)
}

// Export publishes pages under a global name for other inferlets
// (export_kvpage). The registry takes its own references, so the export
// outlives both the queue and the exporting inferlet.
func (a *Alloc) Export(name string, ids []api.KvPage) error {
	return a.q.rt.ExportKvPages(name, ids)
}

// Import maps another inferlet's exported pages into this queue's address
// space, shared not copied (import_kvpage).
func (a *Alloc) Import(name string) ([]api.KvPage, error) {
	return a.q.rt.ImportKvPages(name)
}

// HasExport probes the export registry.
func (a *Alloc) HasExport(name string) bool {
	return a.q.rt.HasExport(name)
}

// ReleaseExport removes an export registration (release_export).
func (a *Alloc) ReleaseExport(name string) error {
	return a.q.rt.ReleaseExport(name)
}

// CopyPage copies KV entries token-by-token between pages (copy_kvpage).
// Queue order is its completion; an execution error surfaces at the
// queue's next Sync or Barrier.
func (a *Alloc) CopyPage(src, dst api.KvPage, srcOff, dstOff, n int) error {
	return a.q.rt.CopyKvPage(src, dst, srcOff, dstOff, n)
}

// --- Forward capability ----------------------------------------------------

// forwardPlan is what a forward's options add up to.
type forwardPlan struct {
	args       api.ForwardArgs
	inlineToks []int
	inlinePos  []int
	sample     api.SampleSpec
	sampled    bool // a WithSampling option was given, whatever it set
}

// ForwardOption configures one forward pass (§4.2). Compose freely:
//
//	fwd.Run(inferlet.ReadKv(ctx...), inferlet.Input(emb...),
//	        inferlet.AppendKv(tail...), inferlet.Output(out...))
//
// An option is a value: the kind of argument it sets and the slices it was
// given, which it lends to the call rather than copying. The runtime
// resolves handles and copies token ids into its own record before Run
// returns and keeps no reference to them, so the caller must leave the
// slices alone until Run returns and may overwrite or reuse them once it
// has. Several options of one handle kind concatenate in the order given;
// the caller's slices are never written to. A WithMask matrix is the
// exception: the kernel reads it when the pass executes, so it must stay
// untouched until a later Sync or Barrier, or a later result on the same
// queue, has returned.
type ForwardOption struct {
	kind   optKind
	pages  []api.KvPage   // optReadKv, optAppendKv
	embs   []api.Embed    // optInput, optOutput
	toks   []int          // optInline
	pos    []int          // optInline
	mask   [][]bool       // optMask
	name   string         // optAdapter
	sample []SampleOption // optSampling
}

type optKind uint8

const (
	optReadKv optKind = iota
	optInput
	optAppendKv
	optOutput
	optMask
	optAdapter
	optInline
	optSampling
)

// ReadKv sets the attention-context pages (ForwardArgs.InputKv).
func ReadKv(pages ...api.KvPage) ForwardOption {
	return ForwardOption{kind: optReadKv, pages: pages}
}

// Input sets the input embedding slots consumed by the pass.
func Input(embs ...api.Embed) ForwardOption {
	return ForwardOption{kind: optInput, embs: embs}
}

// AppendKv sets the pages that receive the new tokens' KV entries.
func AppendKv(pages ...api.KvPage) ForwardOption {
	return ForwardOption{kind: optAppendKv, pages: pages}
}

// Output sets the slots that receive the transformer outputs of the last
// len(embs) input tokens.
func Output(embs ...api.Embed) ForwardOption {
	return ForwardOption{kind: optOutput, embs: embs}
}

// join appends an option's handles to a plan's list. The first option of
// a kind — nearly always the only one — lends its slice instead of copying
// it (capacity clipped, so a second option's append copies and the
// caller's slice is never written to).
func join[T any](list, more []T) []T {
	if list == nil {
		return more[:len(more):len(more)]
	}
	return append(list, more...)
}

// WithMask supplies an explicit boolean attention matrix (one row per
// input embedding; true admits attention). Without it a causal mask is
// inferred from sequence positions.
func WithMask(mask [][]bool) ForwardOption {
	return ForwardOption{kind: optMask, mask: mask}
}

// WithAdapter applies a registered LoRA-style adapter
// (forward_with_adapter; requires the adapter trait at call time).
func WithAdapter(name string) ForwardOption {
	return ForwardOption{kind: optAdapter, name: name}
}

// InlineTokens folds token embedding into a fused pass: token ids at
// explicit positions, embedded in-kernel (Fused capability only).
func InlineTokens(tokens, positions []int) ForwardOption {
	return ForwardOption{kind: optInline, toks: tokens, pos: positions}
}

// WithSampling configures fused on-GPU sampling (Fused capability only).
func WithSampling(opts ...SampleOption) ForwardOption {
	return ForwardOption{kind: optSampling, sample: opts}
}

// SampleOption configures fused sampling.
type SampleOption func(*api.SampleSpec)

// TopK truncates fused sampling to the k most probable tokens.
func TopK(k int) SampleOption { return func(s *api.SampleSpec) { s.TopK = k } }

// Temperature sets the fused sampling temperature; <= 0 is greedy.
func Temperature(t float32) SampleOption { return func(s *api.SampleSpec) { s.Temperature = t } }

// SampleSeed seeds the fused sampler's deterministic stream.
func SampleSeed(seed uint64) SampleOption { return func(s *api.SampleSpec) { s.Seed = seed } }

// build folds opts into p, which the caller keeps on its stack.
func (p *forwardPlan) build(opts []ForwardOption) {
	for i := range opts {
		o := &opts[i]
		switch o.kind {
		case optReadKv:
			p.args.InputKv = join(p.args.InputKv, o.pages)
		case optInput:
			p.args.InputEmb = join(p.args.InputEmb, o.embs)
		case optAppendKv:
			p.args.OutputKv = join(p.args.OutputKv, o.pages)
		case optOutput:
			p.args.OutputEmb = join(p.args.OutputEmb, o.embs)
		case optMask:
			p.args.Mask = o.mask
		case optAdapter:
			p.args.Adapter = o.name
		case optInline:
			p.inlineToks, p.inlinePos = o.toks, o.pos
		case optSampling:
			// The setters are arbitrary functions: they get a copy, so the
			// plan itself never escapes.
			spec := p.sample
			for _, set := range o.sample {
				set(&spec)
			}
			p.sample, p.sampled = spec, true
		}
	}
}

// Forward is the forward-trait capability: the core transformer pass and
// token-level KV masking.
type Forward struct{ q *Queue }

// Run schedules one forward pass described by opts. Fused-only options
// (InlineTokens, WithSampling) are rejected with api.ErrBadArgument;
// WithAdapter additionally requires the adapter trait. Queue order is the
// pass's completion; an execution error surfaces at the queue's next Sync
// or Barrier.
func (f *Forward) Run(opts ...ForwardOption) error {
	var p forwardPlan
	p.build(opts)
	if p.sampled || len(p.inlineToks) > 0 {
		return fmt.Errorf("%w: sampling/inline options need the fused capability", api.ErrBadArgument)
	}
	if p.args.Adapter != "" && !f.q.info.HasTraitClosure(api.TraitAdapter) {
		return fmt.Errorf("%w: %s lacks trait %q", api.ErrNoSuchTrait, f.q.info.ID, api.TraitAdapter)
	}
	return f.q.rt.Forward(p.args)
}

// MaskPage sets token-level attention mask bits on a page (mask_kvpage;
// true hides the token). The bits are copied before MaskPage returns, so
// the caller may reuse the slice at once.
func (f *Forward) MaskPage(page api.KvPage, bits []bool) error {
	return f.q.rt.MaskKvPage(page, bits)
}

// Fused is the fused-trait capability: forward_with_sampling, the
// monolithic-style pipeline that embeds, forwards, and samples in one
// kernel. Used by the Table 3 opportunity-cost ablation.
type Fused struct{ q *Queue }

// Run schedules a fused pass whose result is the sampled token ids.
// Accepts the full ForwardOption set including InlineTokens and
// WithSampling (absent sampling options mean greedy).
func (f *Fused) Run(opts ...ForwardOption) (Result[[]int], error) {
	var p forwardPlan
	p.build(opts)
	if p.args.Adapter != "" && !f.q.info.HasTraitClosure(api.TraitAdapter) {
		return Result[[]int]{}, fmt.Errorf("%w: %s lacks trait %q", api.ErrNoSuchTrait, f.q.info.ID, api.TraitAdapter)
	}
	return f.q.rt.ForwardSampled(p.args, p.inlineToks, p.inlinePos, p.sample)
}

// --- Input capabilities ----------------------------------------------------

// Text is the input_text-trait capability.
type Text struct{ q *Queue }

// Embed embeds token ids into slots at explicit sequence positions
// (embed_txt). Queue order is its completion; an execution error surfaces
// at the queue's next Sync or Barrier.
func (t *Text) Embed(tokens, positions []int, dst []api.Embed) error {
	return t.q.rt.EmbedText(tokens, positions, dst)
}

// Image is the input_image-trait capability.
type Image struct{ q *Queue }

// Embed embeds an image blob into slots (embed_img). Queue order is its
// completion; an execution error surfaces at the queue's next Sync or
// Barrier.
func (i *Image) Embed(blob []byte, positions []int, dst []api.Embed) error {
	return i.q.rt.EmbedImage(blob, positions, dst)
}

// EmbedsNeeded sizes the slot allocation for an image.
func (i *Image) EmbedsNeeded(imageBytes int) (int, error) {
	return i.q.rt.NumEmbedsNeeded(imageBytes)
}

// --- Output capability -----------------------------------------------------

// Sample is the output_text-trait capability.
type Sample struct{ q *Queue }

// NextDist requests the truncated next-token distribution of an output
// embedding (get_next_dist).
func (s *Sample) NextDist(emb api.Embed) (Result[api.Dist], error) {
	return s.q.rt.GetNextDist(emb)
}

// --- Tokenizer capability --------------------------------------------------

// Tokenizer is the tokenize-trait capability.
type Tokenizer struct{ q *Queue }

// Encode converts text to token ids (tokenize). It runs on the host when it
// is called: the caller waits for the tokenizer's price, not for the device
// or for earlier calls on the queue, and gets a ready result. Decode and
// Vocabs keep queue order.
func (t *Tokenizer) Encode(text string) (Result[[]int], error) {
	return t.q.rt.Tokenize(text)
}

// Decode converts token ids back to text (detokenize).
func (t *Tokenizer) Decode(ids []int) (Result[string], error) {
	return t.q.rt.Detokenize(ids)
}

// Vocabs retrieves the byte expansion of every vocabulary entry
// (get_vocabs).
func (t *Tokenizer) Vocabs() (Result[[][]byte], error) {
	return t.q.rt.GetVocabs()
}

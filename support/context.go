package support

import (
	"errors"
	"fmt"
	"slices"

	"pie/api"
	"pie/inferlet"
)

// Context automates KV-page management for a single generation stream: it
// allocates pages as the sequence grows, runs prefill and decode forwards,
// and exposes token-level masking, forking, export/import, speculative
// extension with rollback, and masked-page release — the high-level face
// of the paper's R1 capabilities (§6.3).
//
// A Context owns one command queue and the capabilities negotiated from
// it (allocate, input_text, forward, output_text, tokenize); building one
// against a model lacking any of those traits fails with
// api.ErrNoSuchTrait.
//
// Two counters describe the stream. slots counts physical KV entries
// consumed (including masked/rolled-back ones); Len (logical length)
// counts live tokens and determines the next sequence position. They
// differ after Truncate (speculative decoding rollback) and while tokens
// are pending.
//
// The frontier is lazy. Append and Fill/FillTokens record their tokens as
// pending — they join Tokens and Len at once, not Slots — and issue
// nothing. The pending tokens ride in the embed + forward of whatever
// extends the stream next and issues (ForwardTokens, or a fill that leaves
// the stream page-aligned), or are flushed in a forward of their own by
// whatever needs their KV or output: NextDist, ProbeTokens, Fork,
// Truncate, MaskSlots, MaskRange, Export and Flush. Sync, Drop and Close
// never flush, so the last token of a generation pays for no forward unless
// the context is extended afterwards, and a prompt filled in pieces
// prefills in one forward. Errors the deferred forward can raise (page or
// embed allocation, a failed queue) surface from the call that flushes,
// unchanged; the tokens stay pending and the call can be retried.
//
// A context holds two embed slots for its life. genEmb receives the output
// of every KV-persisting forward; inEmb, allocated by the first one-token
// extension, is the input of every later one (decode steps and one-token
// probes). Reusing them is safe because a queue executes in order: the
// forward that reads a slot has run before the next embed_txt or forward on
// the queue overwrites it. Extensions of more than one token allocate and
// free their input slots, and probes their output slots, as before. Drop
// frees both slots in one call.
type Context struct {
	S     inferlet.Session
	Q     *inferlet.Queue
	Model api.ModelInfo

	alloc  *inferlet.Alloc
	text   *inferlet.Text
	fwd    *inferlet.Forward
	sample *inferlet.Sample
	tok    *inferlet.Tokenizer

	ownsQueue bool

	entries []pageEntry
	pinned  []api.KvPage // read-only attention context (modular caching)
	slots   int          // physical KV slots consumed
	pos     int          // sequence position of the next KV entry
	Tokens  []int        // logical token history (prompt + generated + pending)
	pend    []int        // accepted tokens whose embed + forward is not issued yet

	// attn caches ctxPages — pinned, then the live entries — so a decode
	// step does not rebuild a list that grows with the context. Growing the
	// stream appends to it; anything else that edits pinned or entries
	// clears attnOK and the next forward rebuilds.
	attn   []api.KvPage
	attnOK bool

	// Per-step scratch: the runtime is done with (or has copied) what these
	// hold before the call they are passed to returns.
	posBuf []int
	tokBuf []int // pending + new tokens of one forward
	outBuf []api.KvPage

	genEmb  []api.Embed // decode slot: the frontier's output
	inEmb   []api.Embed // decode slot: a one-token extension's input (nil until the first)
	lastOut api.Embed   // output embedding of the last forward
	hasOut  bool
}

type pageEntry struct {
	h     api.KvPage
	owned bool // false for fork-shared or imported pages
	live  bool // false once released via ReleaseMaskedPages
}

// ErrNoOutput is returned when sampling is requested before any forward
// produced an output embedding.
var ErrNoOutput = errors.New("support: context has no output embedding yet")

// NewContext opens a context on its own command queue against model m.
func NewContext(s inferlet.Session, m api.ModelInfo) (*Context, error) {
	q, err := s.Open(m.ID)
	if err != nil {
		return nil, err
	}
	c, err := NewContextOnQueue(s, q)
	if err != nil {
		_ = q.Close() // the negotiation error is the one to report
		return nil, err
	}
	c.ownsQueue = true
	return c, nil
}

// NewContextOnQueue opens a context on an existing queue (several contexts
// can share one queue when their ops should serialize). The context
// negotiates its capabilities from the queue; Drop leaves a shared queue
// open.
func NewContextOnQueue(s inferlet.Session, q *inferlet.Queue) (*Context, error) {
	c := &Context{S: s, Q: q, Model: q.Model()}
	var err error
	if c.alloc, err = q.Alloc(); err != nil {
		return nil, err
	}
	if c.text, err = q.Text(); err != nil {
		return nil, err
	}
	if c.fwd, err = q.Forward(); err != nil {
		return nil, err
	}
	if c.sample, err = q.Sample(); err != nil {
		return nil, err
	}
	if c.tok, err = q.Tokenizer(); err != nil {
		return nil, err
	}
	if c.genEmb, err = c.alloc.Embeds(1); err != nil {
		return nil, err
	}
	return c, nil
}

// Len returns the logical token length of the context, pending tokens
// included.
func (c *Context) Len() int { return c.pos + len(c.pend) }

// Slots returns physical KV slots consumed: more than Len after rollbacks,
// fewer while tokens are pending.
func (c *Context) Slots() int { return c.slots }

// Alloc exposes the context's allocate capability (advanced use: export,
// import, explicit page management on the context's queue).
func (c *Context) Alloc() *inferlet.Alloc { return c.alloc }

// Pages returns the live page handles (advanced use: export, masking).
func (c *Context) Pages() []api.KvPage {
	var out []api.KvPage
	for _, e := range c.entries {
		if e.live {
			out = append(out, e.h)
		}
	}
	return out
}

func (c *Context) capacity() int { return len(c.entries) * c.Model.PageSize }

// ensure grows the page list to hold n more physical slots.
func (c *Context) ensure(n int) error {
	need := c.slots + n - c.capacity()
	if need <= 0 {
		return nil
	}
	ps := c.Model.PageSize
	add := (need + ps - 1) / ps
	pages, err := c.alloc.Pages(add)
	if err != nil {
		return err
	}
	for _, p := range pages {
		c.entries = append(c.entries, pageEntry{h: p, owned: true, live: true})
	}
	if c.attnOK {
		c.attn = append(c.attn, pages...)
	}
	return nil
}

// ctxPages lists attention-input pages: pinned read-only context first,
// then the live stream pages. The result is the context's own cache: valid
// until the next call that changes the page list.
func (c *Context) ctxPages() []api.KvPage {
	if !c.attnOK {
		c.attn = append(c.attn[:0], c.pinned...)
		for _, e := range c.entries {
			if e.live {
				c.attn = append(c.attn, e.h)
			}
		}
		c.attnOK = true
	}
	return c.attn
}

// ComposeContext pins foreign pages (e.g. imported prompt modules cached
// at fixed schema positions) as read-only attention context and starts
// the context's own token stream at position basePos. The pinned pages
// are never written, masked, or deallocated by this context.
func ComposeContext(c *Context, pinned []api.KvPage, basePos int) (*Context, error) {
	if c.slots != 0 || len(c.pend) != 0 {
		return nil, errors.New("support: ComposeContext requires a fresh context")
	}
	c.pinned = append([]api.KvPage(nil), pinned...)
	c.attnOK = false
	c.pos = basePos
	return c, nil
}

// outPages lists the page(s) that will receive the next n slots (in the
// context's scratch: valid until the next call).
func (c *Context) outPages(n int) []api.KvPage {
	ps := c.Model.PageSize
	first := c.slots / ps
	last := (c.slots + n - 1) / ps
	out := c.outBuf[:0]
	for i := first; i <= last && i < len(c.entries); i++ {
		out = append(out, c.entries[i].h)
	}
	c.outBuf = out
	return out
}

// Encode tokenizes text through the model's vocabulary (blocking).
func (c *Context) Encode(text string) ([]int, error) {
	f, err := c.tok.Encode(text)
	if err != nil {
		return nil, err
	}
	return f.Get()
}

// Vocabs retrieves the byte expansion of every vocabulary entry
// (blocking; grammar-constrained decoding).
func (c *Context) Vocabs() ([][]byte, error) {
	f, err := c.tok.Vocabs()
	if err != nil {
		return nil, err
	}
	return f.Get()
}

// Fill tokenizes text and prefills it into the context.
func (c *Context) Fill(text string) error {
	toks, err := c.Encode(text)
	if err != nil {
		return err
	}
	return c.FillTokens(toks)
}

// FillTokens accepts toks into the context. Like Append it leaves them
// pending, so consecutive fills and the tokens before them prefill in one
// forward when something flushes (see Context). A fill that leaves the
// stream page-aligned issues its embed + forward at once, carrying the
// pending tokens: that is a module prefill (a spec, an exported prefix), and
// merging those into one long call would make it ride alone in the batch
// former instead of beside decode steps.
func (c *Context) FillTokens(toks []int) error {
	if len(toks) == 0 {
		return nil
	}
	if (c.slots+len(c.pend)+len(toks))%c.Model.PageSize == 0 {
		_, err := c.extend(toks, true, 1, false)
		return err
	}
	c.pend = append(c.pend, toks...)
	c.Tokens = append(c.Tokens, toks...)
	return nil
}

// Flush issues the embed + forward of the pending tokens, if any, without
// waiting for it. An inferlet stepping several contexts calls it on each
// before awaiting any, so their forwards are in flight together and batch.
func (c *Context) Flush() error {
	if len(c.pend) == 0 {
		return nil
	}
	_, err := c.extend(nil, true, 1, false)
	return err
}

// extend is the shared forward driver: embeds toks at sequential
// positions, attends the live context, optionally persists KV, requests
// `outs` output embeddings (the last one also refreshes the decode slot
// when keepKV), and fetches their next-token distributions when wantDists.
// A KV-persisting extension carries the pending tokens ahead of toks; a
// probe flushes them first.
func (c *Context) extend(toks []int, keepKV bool, outs int, wantDists bool) ([]api.Dist, error) {
	fresh := toks
	if !keepKV {
		if err := c.Flush(); err != nil {
			return nil, err
		}
	} else if len(c.pend) > 0 {
		c.tokBuf = append(append(c.tokBuf[:0], c.pend...), toks...)
		toks = c.tokBuf
	}
	n := len(toks)
	if outs > n {
		return nil, fmt.Errorf("support: %d outputs requested for %d tokens", outs, n)
	}
	if keepKV {
		if err := c.ensure(n); err != nil {
			return nil, err
		}
	}
	var emb []api.Embed
	var err error
	if n == 1 {
		if c.inEmb == nil {
			if c.inEmb, err = c.alloc.Embeds(1); err != nil {
				return nil, err
			}
		}
		emb = c.inEmb
	} else {
		if emb, err = c.alloc.Embeds(n); err != nil {
			return nil, err
		}
		defer c.alloc.FreeEmbeds(emb)
	}
	pos := c.posBuf[:0]
	for i := 0; i < n; i++ {
		pos = append(pos, c.pos+i)
	}
	c.posBuf = pos
	if _, err := c.text.Embed(toks, pos, emb); err != nil {
		return nil, err
	}
	var outEmb []api.Embed
	if outs > 0 {
		switch {
		case outs == 1 && keepKV:
			outEmb = c.genEmb
		case keepKV:
			// Temps for all but the last position; the frontier output
			// lands in the persistent decode slot so NextDist keeps
			// working after a multi-output extension.
			tmp, err := c.alloc.Embeds(outs - 1)
			if err != nil {
				return nil, err
			}
			defer c.alloc.FreeEmbeds(tmp)
			outEmb = append(append([]api.Embed(nil), tmp...), c.genEmb[0])
		default:
			// Probes must not clobber the frontier output.
			tmp, err := c.alloc.Embeds(outs)
			if err != nil {
				return nil, err
			}
			defer c.alloc.FreeEmbeds(tmp)
			outEmb = tmp
		}
	}
	opts := append(make([]inferlet.ForwardOption, 0, 4),
		inferlet.ReadKv(c.ctxPages()...),
		inferlet.Input(emb...),
		inferlet.Output(outEmb...),
	)
	if keepKV {
		opts = append(opts, inferlet.AppendKv(c.outPages(n)...))
	}
	if _, err := c.fwd.Run(opts...); err != nil {
		return nil, err
	}
	var dists []api.Dist
	if wantDists && outs > 0 {
		futs := make([]api.Future[api.Dist], outs)
		for i, eh := range outEmb {
			f, err := c.sample.NextDist(eh)
			if err != nil {
				return nil, err
			}
			futs[i] = f
		}
		dists, err = api.All(futs...).Get()
		if err != nil {
			return nil, err
		}
	}
	if keepKV {
		c.slots += n
		c.pos += n
		c.Tokens = append(c.Tokens, fresh...)
		c.pend = c.pend[:0]
		if outs >= 1 {
			c.lastOut = c.genEmb[0]
			c.hasOut = true
		}
	}
	return dists, nil
}

// NextDist returns the next-token distribution after the last token of
// the stream, flushing pending tokens first.
func (c *Context) NextDist() (api.Dist, error) {
	f, err := c.nextDist()
	if err != nil {
		return api.Dist{}, err
	}
	return f.Get()
}

// nextDist is NextDist without the wait (ParallelGenerate issues every
// branch's request before awaiting any).
func (c *Context) nextDist() (api.Future[api.Dist], error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	if !c.hasOut {
		return nil, ErrNoOutput
	}
	return c.sample.NextDist(c.lastOut)
}

// Append accepts token tok into the context. It issues nothing: the token
// is pending until the stream is extended or something needs its KV or
// output (see Context), so it never fails.
func (c *Context) Append(tok int) error {
	c.pend = append(c.pend, tok)
	c.Tokens = append(c.Tokens, tok)
	return nil
}

// ForwardTokens extends the context by toks in a single forward and
// returns the next-token distribution after every one of the last `outs`
// tokens — the verification primitive of speculative and Jacobi decoding:
// one kernel scores `outs` positions at once.
func (c *Context) ForwardTokens(toks []int, outs int) ([]api.Dist, error) {
	return c.extend(toks, true, outs, true)
}

// ProbeTokens runs toks through the model against the live context
// WITHOUT persisting KV or advancing the stream, returning dists for the
// last `outs` tokens (Jacobi iteration).
func (c *Context) ProbeTokens(toks []int, outs int) ([]api.Dist, error) {
	return c.extend(toks, false, outs, true)
}

// Truncate rolls the logical stream back to length n: the physical KV of
// the rejected tail is masked out (slots are not reclaimed — that is what
// ReleaseMaskedPages is for) and positions rewind so the next tokens
// overlay the rejected ones. The rollback half of speculative decoding.
func (c *Context) Truncate(n int) error {
	if n < 0 || n > c.Len() {
		return fmt.Errorf("support: Truncate(%d) outside [0,%d]", n, c.Len())
	}
	if err := c.Flush(); err != nil {
		return err
	}
	drop := c.pos - n
	if drop == 0 {
		return nil
	}
	if err := c.MaskSlots(c.slots-drop, c.slots, true); err != nil {
		return err
	}
	c.pos = n
	c.Tokens = c.Tokens[:n]
	c.hasOut = false // outputs referred to the rejected tail
	return nil
}

// MaskSlots sets attention mask bits over physical slot range [from, to)
// (true hides them).
func (c *Context) MaskSlots(from, to int, masked bool) error {
	if err := c.Flush(); err != nil {
		return err
	}
	ps := c.Model.PageSize
	for p := 0; p < len(c.entries); p++ {
		if !c.entries[p].live {
			continue
		}
		lo, hi := p*ps, (p+1)*ps
		if hi <= from || lo >= to {
			continue
		}
		bits := make([]bool, ps)
		for i := 0; i < ps; i++ {
			slot := lo + i
			if slot >= from && slot < to {
				bits[i] = masked
			}
		}
		if _, err := c.fwd.MaskPage(c.entries[p].h, bits); err != nil {
			return err
		}
	}
	return nil
}

// MaskRange masks token positions [from, to). It equals MaskSlots while
// the context has never been truncated (positions == slots), which holds
// for every masking application (sinks, windows, hierarchical attention,
// spec-drop).
func (c *Context) MaskRange(from, to int, masked bool) error {
	return c.MaskSlots(from, to, masked)
}

// ReleaseMaskedPages deallocates owned pages whose slots are entirely
// masked (e.g. dropped tool specs, evicted windows), returning the number
// of pages freed. Freed pages leave the attention input immediately; slot
// numbering is preserved.
func (c *Context) ReleaseMaskedPages(fullyMaskedRanges [][2]int) (int, error) {
	ps := c.Model.PageSize
	freed := 0
	var toFree []api.KvPage
	for p := 0; p < len(c.entries); p++ {
		if !c.entries[p].live || !c.entries[p].owned {
			continue
		}
		lo, hi := p*ps, (p+1)*ps
		if hi > c.slots {
			continue // tail page still receiving tokens
		}
		covered := false
		for _, r := range fullyMaskedRanges {
			if r[0] <= lo && hi <= r[1] {
				covered = true
				break
			}
		}
		if !covered {
			continue
		}
		c.entries[p].live = false
		c.attnOK = false
		toFree = append(toFree, c.entries[p].h)
		freed++
	}
	if len(toFree) > 0 {
		if err := c.alloc.FreePages(toFree); err != nil {
			return freed, err
		}
	}
	return freed, nil
}

// GenOpts parameterizes Generate.
type GenOpts struct {
	MaxTokens int
	Sampler   Sampler
	// StopTokens ends generation when one is produced (it is not added).
	StopTokens []int
	// Stop, when non-nil, ends generation after any step where it returns
	// true over the tokens generated so far.
	Stop func(generated []int) bool
	// OnToken, when non-nil, observes each accepted token (tool-call
	// detection, §7.2 optimization #2).
	OnToken func(tok int)
}

// GenResult reports a Generate run.
type GenResult struct {
	Tokens []int
	Text   string
}

// Generate decodes autoregressively until a stop condition. The last
// accepted token is left pending: it costs a forward only if the context
// is extended or read afterwards.
func (c *Context) Generate(opts GenOpts) (GenResult, error) {
	if opts.MaxTokens <= 0 {
		opts.MaxTokens = 64
	}
	sampler := opts.Sampler
	if sampler == nil {
		sampler = Greedy{}
	}
	var out []int
	for len(out) < opts.MaxTokens {
		dist, err := c.NextDist()
		if err != nil {
			return GenResult{}, err
		}
		var done bool
		if out, done, err = c.accept(&opts, out, sampler.Next(dist)); err != nil {
			return GenResult{}, err
		}
		if done {
			break
		}
	}
	text, err := c.DecodeText(out)
	if err != nil {
		return GenResult{}, err
	}
	return GenResult{Tokens: out, Text: text}, nil
}

// accept takes one sampled token into a generation whose tokens so far are
// out: a stop token ends it unadded; any other token is added, reported,
// shown to OnToken and appended to the context, after which Stop may end
// it. Generate and ParallelGenerate share it.
func (c *Context) accept(opts *GenOpts, out []int, tok int) (_ []int, done bool, err error) {
	if slices.Contains(opts.StopTokens, tok) {
		return out, true, nil
	}
	out = append(out, tok)
	c.S.ReportOutputTokens(1)
	if opts.OnToken != nil {
		opts.OnToken(tok)
	}
	if err := c.Append(tok); err != nil {
		return out, true, err
	}
	return out, opts.Stop != nil && opts.Stop(out), nil
}

// DecodeText detokenizes ids through the model's vocabulary.
func (c *Context) DecodeText(ids []int) (string, error) {
	f, err := c.tok.Decode(ids)
	if err != nil {
		return "", err
	}
	return f.Get()
}

// Fork creates n children that share this context's pages zero-copy,
// except the page holding the last slot, which is copied per child so
// divergent continuations never write into shared state — the page-level
// sharing that powers tree search and beam search (R1). Children also
// inherit the parent's current output embedding (handles live in the same
// inferlet's address space), so their first NextDist needs no extra
// forward. The parent must outlive its children and must not Append while
// forks are active.
func (c *Context) Fork(n int) ([]*Context, error) {
	// The children's tail-page copies are issued on their own queues, so
	// the parent's pending tokens must be issued and its prefill/decode
	// writes must land first.
	if err := c.Flush(); err != nil {
		return nil, err
	}
	if err := c.Sync(); err != nil {
		return nil, err
	}
	ps := c.Model.PageSize
	split := 0 // number of fully-shared pages
	tailTokens := 0
	if c.slots > 0 {
		split = (c.slots - 1) / ps
		tailTokens = c.slots - split*ps
	}
	children := make([]*Context, 0, n)
	// A failed fork leaves nothing behind: every child so far, the failing
	// one included, closes its queue (which reclaims its tail page and slot).
	fail := func(err error) ([]*Context, error) {
		for _, child := range children {
			_ = child.Close() // err is the one to report
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		child, err := NewContext(c.S, c.Model)
		if err != nil {
			return fail(err)
		}
		children = append(children, child)
		for j := 0; j < split; j++ {
			child.entries = append(child.entries, pageEntry{h: c.entries[j].h, owned: false, live: c.entries[j].live})
		}
		if tailTokens > 0 {
			np, err := child.alloc.Pages(1)
			if err != nil {
				return fail(err)
			}
			if _, err := child.alloc.CopyPage(c.entries[split].h, np[0], 0, 0, tailTokens); err != nil {
				return fail(err)
			}
			child.entries = append(child.entries, pageEntry{h: np[0], owned: true, live: true})
		}
		child.slots = c.slots
		child.pos = c.pos
		child.Tokens = append([]int(nil), c.Tokens...)
		child.lastOut = c.lastOut
		child.hasOut = c.hasOut
	}
	return children, nil
}

// Drop releases every owned live page and both decode slots; the context
// becomes unusable but its queue stays open (fire-and-forget: the
// deallocations are queue-ordered and need no round trip). Use Close to
// also close the queue and reclaim what is still allocated through it.
func (c *Context) Drop() error {
	var own []api.KvPage
	for _, e := range c.entries {
		if e.owned && e.live {
			own = append(own, e.h)
		}
	}
	if len(own) > 0 {
		if err := c.alloc.FreePages(own); err != nil {
			return err
		}
	}
	c.entries, c.attnOK = nil, false
	if c.genEmb != nil {
		if err := c.alloc.FreeEmbeds(append(c.genEmb, c.inEmb...)); err != nil {
			return err
		}
		c.genEmb, c.inEmb = nil, nil
	}
	return nil
}

// Close drains and closes the context's queue, reclaiming every resource
// allocated or imported through it (queue-scoped reclamation). Only valid
// for contexts that own their queue (NewContext); contexts sharing a
// queue must Drop instead.
func (c *Context) Close() error {
	if !c.ownsQueue {
		return errors.New("support: Close on a context sharing its queue; use Drop")
	}
	c.entries, c.attnOK = nil, false
	c.genEmb, c.inEmb = nil, nil
	return c.Q.Close()
}

// Sync drains the context's command queue. Pending tokens were never
// issued and stay pending.
func (c *Context) Sync() error { return c.Q.Sync() }

// Export publishes the context's live pages under name. Exports should be
// page-aligned (Len a multiple of PageSize) so importers can extend them.
func (c *Context) Export(name string) error {
	if err := c.Flush(); err != nil {
		return err
	}
	if err := c.Sync(); err != nil {
		return err
	}
	return c.alloc.Export(name, c.Pages())
}

// ImportContext maps an exported context: pages are shared, so the result
// must be treated as a read-only prefix (extend it; never mask it).
func ImportContext(s inferlet.Session, m api.ModelInfo, name string, tokens []int) (*Context, error) {
	c, err := NewContext(s, m)
	if err != nil {
		return nil, err
	}
	pages, err := c.alloc.Import(name)
	if err != nil {
		_ = c.Close() // the import error is the one to report
		return nil, err
	}
	for _, p := range pages {
		c.entries = append(c.entries, pageEntry{h: p, owned: false, live: true})
	}
	c.attnOK = false
	c.slots = len(tokens)
	c.pos = len(tokens)
	c.Tokens = append([]int(nil), tokens...)
	return c, nil
}

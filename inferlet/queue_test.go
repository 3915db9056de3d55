package inferlet

import (
	"errors"
	"slices"
	"testing"

	"pie/api"
	"pie/internal/sim"
)

// recorder is a QueueRuntime that records the forwards it is handed and
// counts everything else.
type recorder struct {
	calls   int
	args    api.ForwardArgs
	toks    []int
	pos     []int
	spec    api.SampleSpec
	nextEmb api.Embed
	nextPg  api.KvPage
}

func (r *recorder) SetPriority(int) error { r.calls++; return nil }
func (r *recorder) Sync() (Result[struct{}], error) {
	r.calls++
	return Ready(struct{}{}), nil
}
func (r *recorder) Close() error { r.calls++; return nil }
func (r *recorder) AllocEmbeds(n int) ([]api.Embed, error) {
	r.calls++
	out := make([]api.Embed, n)
	for i := range out {
		r.nextEmb++
		out[i] = r.nextEmb
	}
	return out, nil
}
func (r *recorder) DeallocEmbeds([]api.Embed) error { r.calls++; return nil }
func (r *recorder) AllocKvPages(n int) ([]api.KvPage, error) {
	r.calls++
	out := make([]api.KvPage, n)
	for i := range out {
		r.nextPg++
		out[i] = r.nextPg
	}
	return out, nil
}
func (r *recorder) DeallocKvPages([]api.KvPage) error        { r.calls++; return nil }
func (r *recorder) ExportKvPages(string, []api.KvPage) error { r.calls++; return nil }
func (r *recorder) ImportKvPages(string) ([]api.KvPage, error) {
	r.calls++
	return []api.KvPage{90, 91}, nil
}
func (r *recorder) HasExport(string) bool                         { r.calls++; return true }
func (r *recorder) ReleaseExport(string) error                    { r.calls++; return nil }
func (r *recorder) CopyKvPage(_, _ api.KvPage, _, _, _ int) error { r.calls++; return nil }
func (r *recorder) Forward(args api.ForwardArgs) error {
	r.calls++
	r.args = args
	return nil
}
func (r *recorder) ForwardSampled(args api.ForwardArgs, toks, pos []int, spec api.SampleSpec) (sim.Result[[]int], error) {
	r.calls++
	r.args, r.toks, r.pos, r.spec = args, toks, pos, spec
	return Ready[[]int](nil), nil
}
func (r *recorder) MaskKvPage(api.KvPage, []bool) error         { r.calls++; return nil }
func (r *recorder) EmbedText(_, _ []int, _ []api.Embed) error   { r.calls++; return nil }
func (r *recorder) EmbedImage([]byte, []int, []api.Embed) error { r.calls++; return nil }
func (r *recorder) NumEmbedsNeeded(int) (int, error)            { r.calls++; return 4, nil }
func (r *recorder) GetNextDist(api.Embed) (sim.Result[api.Dist], error) {
	r.calls++
	return Ready(api.Dist{}), nil
}
func (r *recorder) Tokenize(string) (sim.Result[[]int], error) {
	r.calls++
	return Ready[[]int](nil), nil
}
func (r *recorder) Detokenize([]int) (sim.Result[string], error) {
	r.calls++
	return Ready(""), nil
}
func (r *recorder) GetVocabs() (sim.Result[[][]byte], error) {
	r.calls++
	return Ready[[][]byte](nil), nil
}

// every trait but adapter.
var plainTraits = []api.Trait{api.TraitCore, api.TraitAllocate, api.TraitForward, api.TraitFused,
	api.TraitInputText, api.TraitInputImage, api.TraitOutputText, api.TraitTokenize}

func newTestQueue(traits ...api.Trait) (*Queue, *recorder) {
	r := &recorder{}
	return NewQueue(api.ModelInfo{ID: "stub", PageSize: 16, Traits: traits}, r), r
}

// caps negotiates every capability of a queue on plainTraits.
type caps struct {
	alloc *Alloc
	fwd   *Forward
	fused *Fused
	text  *Text
	image *Image
	samp  *Sample
	tok   *Tokenizer
}

func negotiateAll(t *testing.T, q *Queue) caps {
	t.Helper()
	var c caps
	var errs [7]error
	c.alloc, errs[0] = q.Alloc()
	c.fwd, errs[1] = q.Forward()
	c.fused, errs[2] = q.Fused()
	c.text, errs[3] = q.Text()
	c.image, errs[4] = q.Image()
	c.samp, errs[5] = q.Sample()
	c.tok, errs[6] = q.Tokenizer()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("capability %d: %v", i, err)
		}
	}
	return c
}

// TestOptionsOfOneKindConcatenate: the plan lists every option's handles in
// the order given; the first option of a kind lends its slice, later ones
// are copied behind it, and no caller's slice is written to — not even its
// spare capacity.
func TestOptionsOfOneKindConcatenate(t *testing.T) {
	q, r := newTestQueue(plainTraits...)
	c := negotiateAll(t, q)

	spare := func(vals ...api.KvPage) []api.KvPage { // len(vals) elements, room for four more
		return append(make([]api.KvPage, 0, len(vals)+4), vals...)
	}
	a, b := spare(1, 2), spare(3)
	in := []api.Embed{7, 8}
	if err := c.fwd.Run(ReadKv(a...), Input(in...), ReadKv(b...), AppendKv(b...), Output(in[1:]...), Input(9)); err != nil {
		t.Fatal(err)
	}
	if want := []api.KvPage{1, 2, 3}; !slices.Equal(r.args.InputKv, want) {
		t.Errorf("InputKv = %v, want %v", r.args.InputKv, want)
	}
	if want := []api.Embed{7, 8, 9}; !slices.Equal(r.args.InputEmb, want) {
		t.Errorf("InputEmb = %v, want %v", r.args.InputEmb, want)
	}
	if !slices.Equal(r.args.OutputKv, []api.KvPage{3}) || !slices.Equal(r.args.OutputEmb, []api.Embed{8}) {
		t.Errorf("OutputKv = %v, OutputEmb = %v, want [3] and [8]", r.args.OutputKv, r.args.OutputEmb)
	}
	if got := a[:cap(a)]; !slices.Equal(got, []api.KvPage{1, 2, 0, 0, 0, 0}) {
		t.Errorf("the second ReadKv wrote into the first one's slice: %v", got)
	}

	// One option of a kind: the plan's list is the caller's memory.
	if err := c.fwd.Run(ReadKv(a...), Input(in...)); err != nil {
		t.Fatal(err)
	}
	if &r.args.InputKv[0] != &a[0] || &r.args.InputEmb[0] != &in[0] {
		t.Error("a lone option's slice was copied, not lent")
	}
	if cap(r.args.InputKv) != len(a) {
		t.Errorf("the lent slice keeps %d of capacity past its %d handles", cap(r.args.InputKv), len(a))
	}

	// Inline tokens are lent too; the last InlineTokens wins, sampling
	// options accumulate.
	toks, pos := []int{5, 6}, []int{0, 1}
	if _, err := c.fused.Run(InlineTokens([]int{1}, []int{9}), InlineTokens(toks, pos),
		WithSampling(TopK(4)), WithSampling(Temperature(0.5), SampleSeed(3)), WithMask([][]bool{{true}})); err != nil {
		t.Fatal(err)
	}
	if &r.toks[0] != &toks[0] || &r.pos[0] != &pos[0] {
		t.Error("InlineTokens copied its slices")
	}
	if want := (api.SampleSpec{TopK: 4, Temperature: 0.5, Seed: 3}); r.spec != want {
		t.Errorf("sampling spec = %+v, want %+v", r.spec, want)
	}
	if len(r.args.Mask) != 1 {
		t.Errorf("Mask = %v", r.args.Mask)
	}
	// No sampling option: greedy.
	if _, err := c.fused.Run(InlineTokens(toks, pos)); err != nil {
		t.Fatal(err)
	}
	if r.spec != (api.SampleSpec{}) {
		t.Errorf("no WithSampling gave %+v, want the zero spec", r.spec)
	}
}

func TestForwardRunRefusesFusedOptions(t *testing.T) {
	q, r := newTestQueue(plainTraits...)
	c := negotiateAll(t, q)
	for name, opt := range map[string]ForwardOption{
		"InlineTokens":       InlineTokens([]int{1}, []int{0}),
		"WithSampling":       WithSampling(TopK(2)),
		"empty WithSampling": WithSampling(),
	} {
		if err := c.fwd.Run(Input(1), opt); !errors.Is(err, api.ErrBadArgument) {
			t.Errorf("Forward.Run with %s = %v, want ErrBadArgument", name, err)
		}
	}
	for _, run := range []func(...ForwardOption) error{
		func(o ...ForwardOption) error { return c.fwd.Run(o...) },
		func(o ...ForwardOption) error { _, err := c.fused.Run(o...); return err },
	} {
		if err := run(Input(1), WithAdapter("chat")); !errors.Is(err, api.ErrNoSuchTrait) {
			t.Errorf("WithAdapter on a model without the adapter trait = %v, want ErrNoSuchTrait", err)
		}
	}
	if r.calls != 0 {
		t.Errorf("%d refused forwards reached the runtime", r.calls)
	}
	// With the trait the adapter name reaches the runtime.
	q, r = newTestQueue(append([]api.Trait{api.TraitAdapter}, plainTraits...)...)
	fwd, err := q.Forward()
	if err != nil {
		t.Fatal(err)
	}
	if err := fwd.Run(Input(1), WithAdapter("chat")); err != nil || r.args.Adapter != "chat" {
		t.Errorf("WithAdapter with the trait: err %v, adapter %q", err, r.args.Adapter)
	}
}

// TestClosedQueueGuards: once its queue has closed, every capability call
// fails with ErrQueueClosed before it reaches the runtime. The closed
// queue's runtime refuses Close too, which a second Queue.Close never
// reaches.
func TestClosedQueueGuards(t *testing.T) {
	q, r := newTestQueue(plainTraits...)
	c := negotiateAll(t, q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	r.calls = 0
	e := func(_ any, err error) error { return err }
	for name, err := range map[string]error{
		"Close":         q.Close(),
		"SetPriority":   q.SetPriority(1),
		"Barrier":       e(q.Barrier()),
		"Sync":          q.Sync(),
		"Alloc":         e(q.Alloc()),
		"Forward":       e(q.Forward()),
		"Embeds":        e(c.alloc.Embeds(1)),
		"FreeEmbeds":    c.alloc.FreeEmbeds(nil),
		"Pages":         e(c.alloc.Pages(1)),
		"FreePages":     c.alloc.FreePages(nil),
		"Export":        c.alloc.Export("x", nil),
		"Import":        e(c.alloc.Import("x")),
		"ReleaseExport": c.alloc.ReleaseExport("x"),
		"CopyPage":      c.alloc.CopyPage(1, 2, 0, 0, 1),
		"Forward.Run":   c.fwd.Run(),
		"MaskPage":      c.fwd.MaskPage(1, nil),
		"Fused.Run":     e(c.fused.Run()),
		"Text.Embed":    c.text.Embed(nil, nil, nil),
		"Image.Embed":   c.image.Embed(nil, nil, nil),
		"EmbedsNeeded":  e(c.image.EmbedsNeeded(1)),
		"NextDist":      e(c.samp.NextDist(1)),
		"Encode":        e(c.tok.Encode("x")),
		"Decode":        e(c.tok.Decode(nil)),
		"Vocabs":        e(c.tok.Vocabs()),
		"rt.Close":      q.rt.Close(),
	} {
		if !errors.Is(err, api.ErrQueueClosed) {
			t.Errorf("%s on a closed queue = %v, want ErrQueueClosed", name, err)
		}
	}
	if c.alloc.HasExport("x") || !q.Closed() {
		t.Error("HasExport on a closed queue = true, or Closed() = false")
	}
	if r.calls != 0 {
		t.Errorf("%d calls on a closed queue reached the runtime", r.calls)
	}
}

// TestCapabilitiesAreTheQueues: a capability getter returns the queue's own
// capability, the same pointer each time, and negotiating allocates
// nothing; the capability refuses once its queue has closed
// (TestClosedQueueGuards checks every call).
func TestCapabilitiesAreTheQueues(t *testing.T) {
	q, _ := newTestQueue(plainTraits...)
	first, again := negotiateAll(t, q), negotiateAll(t, q)
	if first != again {
		t.Fatalf("a second negotiation returned other capabilities: %+v, then %+v", first, again)
	}
	if allocs := testing.AllocsPerRun(100, func() { negotiateAll(t, q) }); allocs != 0 {
		t.Errorf("negotiating the seven capabilities makes %v allocations, want 0", allocs)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := first.alloc.Pages(1); !errors.Is(err, api.ErrQueueClosed) {
		t.Errorf("Pages on an Alloc taken before Close = %v, want ErrQueueClosed", err)
	}
	if a, err := q.Alloc(); a != nil || !errors.Is(err, api.ErrQueueClosed) {
		t.Errorf("Alloc after Close = %v, %v; want nil, ErrQueueClosed", a, err)
	}
}

// TestOpenQueuePassesThrough: on an open queue every capability call reaches
// the runtime once, and a model without a trait refuses its capability.
func TestOpenQueuePassesThrough(t *testing.T) {
	q, r := newTestQueue(plainTraits...)
	c := negotiateAll(t, q)
	if q.Model().ID != "stub" {
		t.Fatalf("Model = %+v", q.Model())
	}
	pages, _ := c.alloc.Import("x")
	for _, err := range []error{
		WithPriority(3)(q), q.Sync(),
		c.alloc.Export("y", pages), c.alloc.ReleaseExport("y"), c.alloc.FreePages(pages[:1]),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	c.alloc.HasExport("x")
	c.alloc.CopyPage(1, 2, 0, 0, 1)
	c.fwd.MaskPage(1, nil)
	c.text.Embed(nil, nil, nil)
	c.image.Embed(nil, nil, nil)
	c.image.EmbedsNeeded(10)
	c.samp.NextDist(1)
	c.tok.Encode("x")
	c.tok.Decode(nil)
	c.tok.Vocabs()
	if r.calls != 16 {
		t.Errorf("%d calls reached the runtime, want 16", r.calls)
	}
	bare, _ := newTestQueue(api.TraitCore)
	for name, err := range map[string]error{
		"Alloc": func() error { _, err := bare.Alloc(); return err }(),
		"Fused": func() error { _, err := bare.Fused(); return err }(),
		"Image": func() error { _, err := bare.Image(); return err }(),
	} {
		if !errors.Is(err, api.ErrNoSuchTrait) {
			t.Errorf("%s on a core-only model = %v, want ErrNoSuchTrait", name, err)
		}
	}
}

func TestRefs(t *testing.T) {
	if got := Ref("beam", "1.2.0"); got != "beam@1.2.0" {
		t.Fatalf("Ref = %q", got)
	}
	for ref, want := range map[string][2]string{"beam@1.2.0": {"beam", "1.2.0"}, "beam": {"beam", ""}, "a@b@c": {"a", "b@c"}} {
		if name, version := SplitRef(ref); name != want[0] || version != want[1] {
			t.Errorf("SplitRef(%q) = %q, %q", ref, name, version)
		}
	}
}

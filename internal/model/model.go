// Package model implements the functional transformer that backs Pie's
// inference layer: a real (tiny) decoder-only model with RoPE attention
// over a paged KV cache, explicit per-token sequence positions, token-level
// attention masks, LoRA-style adapters, and top-K output distributions.
//
// Weights are deterministic functions of the model seed, so every
// experiment is reproducible. Timing is *not* this package's concern: the
// inference layer charges virtual GPU time according to the configured
// parameter class (1B/3B/8B) via internal/gpu, while this package supplies
// the semantics the paper's API contract requires (forward, masking, page
// copies, adapters).
package model

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pie/internal/sim"
	"pie/internal/tensor"
	"pie/internal/tokenizer"
)

// Config describes a model instance.
type Config struct {
	Name       string // model id, e.g. "llama-1b"
	ParamLabel string // timing class: "1B", "3B", "8B"
	Dim        int    // hidden size
	Layers     int
	Heads      int
	HeadDim    int
	FFDim      int
	PageSize   int // tokens per KV page
	TopK       int // distribution truncation (paper default 256)
	RopeBase   float64
	Seed       uint64
	Multimodal bool // implements the InputImage trait
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Dim != c.Heads*c.HeadDim {
		return fmt.Errorf("model: Dim %d != Heads*HeadDim %d", c.Dim, c.Heads*c.HeadDim)
	}
	if c.PageSize <= 0 || c.Layers <= 0 || c.TopK <= 0 {
		return fmt.Errorf("model: non-positive size field in config %+v", c)
	}
	return nil
}

type layer struct {
	wq, wk, wv, wo *tensor.Matrix // Dim x Dim
	w1, w3         *tensor.Matrix // FFDim x Dim (gate, up)
	w2             *tensor.Matrix // Dim x FFDim
	norm1, norm2   []float32
}

// Adapter is a LoRA-style low-rank delta applied to the query and value
// projections of every layer (forward_with_adapter).
type Adapter struct {
	Name  string
	Rank  int
	Scale float32
	seed  uint64
	once  sync.Once
	// per layer: aq,bq and av,bv with shapes Rank x Dim and Dim x Rank.
	aq, bq, av, bv []*tensor.Matrix
}

// Model is an immutable set of weights plus the shared tokenizer. The
// weights are deterministic functions of the seeds and are generated on
// first use (ensureWeights): an engine that only keeps time never pays for
// them.
type Model struct {
	cfg      Config
	tok      *tokenizer.Tokenizer
	once     sync.Once
	embed    []float32      // vocab x dim: EmbedTokens' row lookups
	head     *tensor.Matrix // the same weights as the (tied) output head
	layers   []layer
	normF    []float32
	adapters map[string]*Adapter
}

// New constructs a model with deterministic seeded weights.
func New(cfg Config, tok *tokenizer.Tokenizer) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Model{cfg: cfg, tok: tok, adapters: make(map[string]*Adapter)}
}

// randWeights draws rows x cols row-major N(0, 1/dim) weights from r.
func (c Config) randWeights(r *sim.RNG, rows, cols int) []float32 {
	scale := 1 / math.Sqrt(float64(c.Dim))
	w := make([]float32, rows*cols)
	for i := range w {
		w[i] = float32(r.NormFloat64() * scale)
	}
	return w
}

// randMat is randWeights laid out for the machine's MatMul kernel.
func (c Config) randMat(r *sim.RNG, rows, cols int) *tensor.Matrix {
	return tensor.NewMatrix(c.randWeights(r, rows, cols), rows, cols)
}

// ensureWeights generates the model's weights, and a's when an adapter is
// in use, the first time anything reads them. Each has its own seeded
// stream, so the values do not depend on who asks first or when.
func (m *Model) ensureWeights(a *Adapter) {
	m.once.Do(func() {
		cfg, r := m.cfg, sim.NewRNG(m.cfg.Seed)
		ones := func(n int) []float32 {
			w := make([]float32, n)
			for i := range w {
				w[i] = 1
			}
			return w
		}
		m.embed = cfg.randWeights(r, m.VocabSize(), cfg.Dim)
		m.head = tensor.NewMatrix(m.embed, m.VocabSize(), cfg.Dim)
		m.normF = ones(cfg.Dim)
		for l := 0; l < cfg.Layers; l++ {
			m.layers = append(m.layers, layer{
				wq: cfg.randMat(r, cfg.Dim, cfg.Dim), wk: cfg.randMat(r, cfg.Dim, cfg.Dim),
				wv: cfg.randMat(r, cfg.Dim, cfg.Dim), wo: cfg.randMat(r, cfg.Dim, cfg.Dim),
				w1: cfg.randMat(r, cfg.FFDim, cfg.Dim), w3: cfg.randMat(r, cfg.FFDim, cfg.Dim),
				w2:    cfg.randMat(r, cfg.Dim, cfg.FFDim),
				norm1: ones(cfg.Dim), norm2: ones(cfg.Dim),
			})
		}
	})
	if a == nil {
		return
	}
	a.once.Do(func() {
		cfg, r := m.cfg, sim.NewRNG(a.seed)
		for l := 0; l < cfg.Layers; l++ {
			a.aq = append(a.aq, cfg.randMat(r, a.Rank, cfg.Dim))
			a.bq = append(a.bq, cfg.randMat(r, cfg.Dim, a.Rank))
			a.av = append(a.av, cfg.randMat(r, a.Rank, cfg.Dim))
			a.bv = append(a.bv, cfg.randMat(r, cfg.Dim, a.Rank))
		}
	})
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Tokenizer returns the shared tokenizer.
func (m *Model) Tokenizer() *tokenizer.Tokenizer { return m.tok }

// VocabSize returns the output vocabulary size.
func (m *Model) VocabSize() int { return m.tok.VocabSize() }

// DistLen returns the length of a next-token distribution: TopK, or the
// whole vocabulary when it is smaller.
func (m *Model) DistLen() int { return min(m.cfg.TopK, m.VocabSize()) }

// RegisterAdapter creates and installs a deterministic adapter under name.
func (m *Model) RegisterAdapter(name string, rank int, scale float32, seed uint64) *Adapter {
	a := &Adapter{Name: name, Rank: rank, Scale: scale, seed: seed}
	m.adapters[name] = a
	return a
}

// Adapter looks up a registered adapter.
func (m *Model) Adapter(name string) (*Adapter, bool) {
	a, ok := m.adapters[name]
	return a, ok
}

// AdapterNames lists registered adapters in sorted order.
func (m *Model) AdapterNames() []string {
	names := make([]string, 0, len(m.adapters))
	for n := range m.adapters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EmbedSlot is one physical token-embedding slot. Vec holds either an input
// embedding (written by EmbedTokens/EmbedImage) or an output hidden state
// (written by Forward); Pos is the explicit sequence position.
type EmbedSlot struct {
	Vec   []float32
	Pos   int
	Valid bool
}

// NewEmbedSlot allocates a slot for this model's hidden size.
func (m *Model) NewEmbedSlot() *EmbedSlot {
	return &EmbedSlot{Vec: make([]float32, m.cfg.Dim)}
}

// KvPage is one physical KV-cache page: per-slot, per-layer key/value
// vectors plus position, occupancy, and token-level mask bits
// (mask_kvpage). Keys are stored post-RoPE, keyed by absolute position.
type KvPage struct {
	K, V   [][]float32 // [slot][layers*dim]
	Pos    []int
	Used   []bool
	Masked []bool
	// Visible counts the slots attention can see (Used and not Masked). It
	// is what a forward's context costs, read once per page per call, so
	// every writer of Used/Masked goes through SetSlot or Reset.
	Visible int
	// Filled counts the Used slots: what a forward appending to the page
	// checks for room without scanning it.
	Filled int
}

// SetSlot writes one slot's occupancy and mask bits, keeping Visible and
// Filled in step.
func (p *KvPage) SetSlot(s int, used, masked bool) {
	if p.Used[s] {
		p.Filled--
		if !p.Masked[s] {
			p.Visible--
		}
	}
	p.Used[s], p.Masked[s] = used, masked
	if used {
		p.Filled++
		if !masked {
			p.Visible++
		}
	}
}

// NewKvPage allocates an empty page for this model. Its slots' K and V
// vectors are cut from one backing array each, every cut capped at its own
// length so that an append to one slot's vector stays in the slot.
func (m *Model) NewKvPage() *KvPage {
	slots, n := m.cfg.PageSize, m.cfg.Layers*m.cfg.Dim
	p := &KvPage{
		K:      make([][]float32, slots),
		V:      make([][]float32, slots),
		Pos:    make([]int, slots),
		Used:   make([]bool, slots),
		Masked: make([]bool, slots),
	}
	k, v := make([]float32, slots*n), make([]float32, slots*n)
	for i := range slots {
		p.K[i] = k[i*n : (i+1)*n : (i+1)*n]
		p.V[i] = v[i*n : (i+1)*n : (i+1)*n]
	}
	return p
}

// Reset clears a page for reuse by a new owner.
func (p *KvPage) Reset() {
	for i := range p.Used {
		p.Used[i] = false
		p.Masked[i] = false
		p.Pos[i] = 0
	}
	p.Visible, p.Filled = 0, 0
}

// NumUsed counts occupied slots.
func (p *KvPage) NumUsed() int {
	n := 0
	for _, u := range p.Used {
		if u {
			n++
		}
	}
	return n
}

// CopyTokens copies n token entries from src[srcOff:] to dst[dstOff:] at
// token level (the copy_kvpage API). Mask bits and positions travel with
// the entries.
func CopyTokens(src, dst *KvPage, srcOff, dstOff, n int) error {
	if srcOff < 0 || dstOff < 0 || srcOff+n > len(src.K) || dstOff+n > len(dst.K) {
		return fmt.Errorf("model: CopyTokens out of range (src %d+%d, dst %d+%d, page %d)",
			srcOff, n, dstOff, n, len(src.K))
	}
	for i := 0; i < n; i++ {
		copy(dst.K[dstOff+i], src.K[srcOff+i])
		copy(dst.V[dstOff+i], src.V[srcOff+i])
		dst.Pos[dstOff+i] = src.Pos[srcOff+i]
		dst.SetSlot(dstOff+i, src.Used[srcOff+i], src.Masked[srcOff+i])
	}
	return nil
}

// EmbedTokens writes token embeddings into dst with explicit positions.
func (m *Model) EmbedTokens(ids []int, positions []int, dst []*EmbedSlot) error {
	if len(ids) != len(positions) || len(ids) != len(dst) {
		return fmt.Errorf("model: EmbedTokens length mismatch: %d ids, %d pos, %d dst",
			len(ids), len(positions), len(dst))
	}
	m.ensureWeights(nil)
	for i, id := range ids {
		if id < 0 || id >= m.VocabSize() {
			return fmt.Errorf("model: token id %d out of vocab", id)
		}
		copy(dst[i].Vec, m.embed[id*m.cfg.Dim:(id+1)*m.cfg.Dim])
		dst[i].Pos = positions[i]
		dst[i].Valid = true
	}
	return nil
}

// EmbedsNeededForImage reports how many embedding slots an image of the
// given byte size occupies (one per 256-byte patch, minimum 1).
func (m *Model) EmbedsNeededForImage(size int) int {
	n := (size + 255) / 256
	if n < 1 {
		n = 1
	}
	return n
}

// EmbedImage hashes image bytes into patch embeddings (the InputImage
// trait). A real vision tower is out of scope; this preserves the resource
// and API contract: n patches consume n embedding slots with positions.
func (m *Model) EmbedImage(blob []byte, positions []int, dst []*EmbedSlot) error {
	need := m.EmbedsNeededForImage(len(blob))
	if len(dst) != need || len(positions) != need {
		return fmt.Errorf("model: EmbedImage needs %d slots, got %d", need, len(dst))
	}
	for i := range dst {
		lo, hi := i*256, (i+1)*256
		if hi > len(blob) {
			hi = len(blob)
		}
		var h uint64 = 1469598103934665603
		for _, b := range blob[lo:hi] {
			h = (h ^ uint64(b)) * 1099511628211
		}
		r := sim.NewRNG(h)
		for j := range dst[i].Vec {
			dst[i].Vec[j] = float32(r.NormFloat64()) / float32(math.Sqrt(float64(m.cfg.Dim)))
		}
		dst[i].Pos = positions[i]
		dst[i].Valid = true
	}
	return nil
}

// kvRef flattens the usable context entries of a page list.
type kvRef struct {
	page *KvPage
	slot int
}

func gatherContext(refs []kvRef, pages []*KvPage) []kvRef {
	for _, p := range pages {
		for s, used := range p.Used {
			if used && !p.Masked[s] {
				refs = append(refs, kvRef{p, s})
			}
		}
	}
	return refs
}

// Scratch is the working memory of Forward and NextDist, kept between calls
// so a decode step allocates nothing but its results. The zero value is
// ready to use. A Scratch serves one call at a time: its owner is a single
// goroutine (the inference layer's ModelRuntime) or a single call.
type Scratch struct {
	refs, dstRefs []kvRef
	pos           []int     // input positions
	colPos        []int     // position of every attention column
	vis           []int32   // visible columns of every input, concatenated
	visEnd        []int     // input i sees vis[visEnd[i-1]:visEnd[i]]
	sin, cos      []float32 // RoPE angles, HeadDim/2 per input
	h, xn, q      []float32 // n x Dim: residual stream, normed input, queries
	attn, proj    []float32 // n x Dim
	k, v          []float32 // Layers x n x Dim: the inputs' new KV
	ff1, ff3      []float32 // n x FFDim
	kcols, vcols  [][]float32
	scores        []float32
	low, delta    []float32 // LoRA: Rank and Dim
	logits        []float32 // vocabulary
	keys          []uint64  // 2 x vocabulary: TopK's scratch
}

// grow returns buf resized to n elements, reallocating only when it is too
// small, and then to at least twice its capacity, so a buffer that grows a
// token a step reallocates a logarithmic number of times. Contents are
// unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// ForwardResult reports what a forward pass produced.
type ForwardResult struct {
	// Outputs holds the final-norm hidden states for the last len(outEmb)
	// input tokens: the Vec of each output slot, returned for inspection.
	Outputs [][]float32
}

// Forward runs the full transformer pass (§4.2's forward API):
//
//   - ctx: context KV pages (token-mask bits respected),
//   - inputs: input embedding slots with explicit positions,
//   - outKv: pages that receive the input tokens' KV entries, appended in
//     order into unused slots (may be nil to discard KV),
//   - outEmb: slots that receive the outputs of the last len(outEmb) inputs,
//   - mask: optional explicit attention matrix, rows = inputs, cols =
//     context tokens (in gather order) followed by inputs. nil = causal by
//     position.
//   - adapter: optional LoRA adapter name ("" for none).
func (m *Model) Forward(ctx []*KvPage, inputs []*EmbedSlot, outKv []*KvPage, outEmb []*EmbedSlot, mask [][]bool, adapterName string) (*ForwardResult, error) {
	if err := m.ForwardScratch(new(Scratch), ctx, inputs, outKv, outEmb, mask, adapterName); err != nil {
		return nil, err
	}
	res := &ForwardResult{Outputs: make([][]float32, len(outEmb))}
	for i, slot := range outEmb {
		res.Outputs[i] = slot.Vec
	}
	return res, nil
}

// ForwardScratch is Forward working in s instead of fresh memory. It
// builds no ForwardResult: the outputs are in outEmb, where the caller put
// its slots, so the pass allocates nothing once s has grown to its size.
//
// Every token's arithmetic is the sequence Forward has always run: the
// pass is only regrouped so that each weight matrix meets all n tokens at
// once, each token is normalised once per layer, the visible-column lists
// and RoPE angles are worked out once per call, and the last layer stops
// after the keys and values for tokens that have no output slot.
func (m *Model) ForwardScratch(s *Scratch, ctx []*KvPage, inputs []*EmbedSlot, outKv []*KvPage, outEmb []*EmbedSlot, mask [][]bool, adapterName string) error {
	n := len(inputs)
	if n == 0 {
		return fmt.Errorf("model: Forward with no input embeddings")
	}
	for i, in := range inputs {
		if !in.Valid {
			return fmt.Errorf("model: Forward input %d is uninitialized", i)
		}
	}
	if len(outEmb) > n {
		return fmt.Errorf("model: %d output embeds for %d inputs", len(outEmb), n)
	}
	var adapter *Adapter
	if adapterName != "" {
		a, ok := m.adapters[adapterName]
		if !ok {
			return fmt.Errorf("model: unknown adapter %q", adapterName)
		}
		adapter = a
	}
	m.ensureWeights(adapter)
	s.refs = gatherContext(s.refs[:0], ctx)
	refs := s.refs
	nc := len(refs)
	if mask != nil {
		if len(mask) != n {
			return fmt.Errorf("model: mask has %d rows for %d inputs", len(mask), n)
		}
		for i, row := range mask {
			if len(row) != nc+n {
				return fmt.Errorf("model: mask row %d has %d cols, want %d ctx + %d inputs", i, len(row), nc, n)
			}
		}
	}
	// Reserve output KV slots up front.
	dstRefs := s.dstRefs[:0]
	if len(outKv) > 0 {
	reserve:
		for _, p := range outKv {
			for slot, used := range p.Used {
				if !used {
					dstRefs = append(dstRefs, kvRef{p, slot})
					if len(dstRefs) == n {
						break reserve
					}
				}
			}
		}
		s.dstRefs = dstRefs
		if len(dstRefs) < n {
			return fmt.Errorf("model: output pages have %d free slots for %d tokens", len(dstRefs), n)
		}
	}

	d, hd, heads, L, ff := m.cfg.Dim, m.cfg.HeadDim, m.cfg.Heads, m.cfg.Layers, m.cfg.FFDim
	half := hd / 2

	// Attention columns are the context entries (in gather order) followed
	// by the inputs. Resolve what each input may see once.
	s.pos, s.colPos = grow(s.pos, n), grow(s.colPos, nc+n)
	for c, r := range refs {
		s.colPos[c] = r.page.Pos[r.slot]
	}
	for i, in := range inputs {
		s.pos[i], s.colPos[nc+i] = in.Pos, in.Pos
	}
	s.vis, s.visEnd = grow(s.vis, n*(nc+n))[:0], grow(s.visEnd, n)
	for i := range inputs {
		if mask != nil {
			for c, ok := range mask[i] {
				if ok {
					s.vis = append(s.vis, int32(c))
				}
			}
		} else {
			for c, p := range s.colPos {
				if p <= s.pos[i] {
					s.vis = append(s.vis, int32(c))
				}
			}
		}
		s.visEnd[i] = len(s.vis)
	}
	s.sin, s.cos = grow(s.sin, n*half), grow(s.cos, n*half)
	tensor.RopeTable(hd, m.cfg.RopeBase, s.pos, s.sin, s.cos)

	s.h, s.xn, s.q = grow(s.h, n*d), grow(s.xn, n*d), grow(s.q, n*d)
	s.attn, s.proj = grow(s.attn, n*d), grow(s.proj, n*d)
	s.k, s.v = grow(s.k, L*n*d), grow(s.v, L*n*d)
	s.ff1, s.ff3 = grow(s.ff1, n*ff), grow(s.ff3, n*ff)
	s.kcols, s.vcols = grow(s.kcols, nc+n), grow(s.vcols, nc+n)
	s.scores = grow(s.scores, nc+n)
	h, xn := s.h, s.xn
	for i, in := range inputs {
		copy(h[i*d:(i+1)*d], in.Vec)
	}
	// norm normalises the residual stream of tokens from.. into xn.
	norm := func(w []float32, from int) {
		for i := from; i < n; i++ {
			tensor.RMSNorm(h[i*d:(i+1)*d], w, xn[i*d:(i+1)*d], 1e-5)
		}
	}
	invSqrt := 1 / float32(math.Sqrt(float64(hd)))
	first := n - len(outEmb) // the first token whose output is read

	for l := 0; l < L; l++ {
		lw := &m.layers[l]
		k, v := s.k[l*n*d:(l+1)*n*d], s.v[l*n*d:(l+1)*n*d]
		// Every token's key and value are persisted and attended to, but
		// past them a layer only feeds the next one: the last layer skips
		// the query, attention and MLP of a token whose output nobody
		// reads. Tokens from.. get the whole layer.
		from := 0
		if l == L-1 {
			from = first
		}
		nq := n - from
		norm(lw.norm1, 0)
		lw.wq.Mul(xn[from*d:], nq, s.q[from*d:])
		lw.wk.Mul(xn, n, k)
		lw.wv.Mul(xn, n, v)
		for i := 0; i < n; i++ {
			lo, hi := i*d, (i+1)*d
			sin, cos := s.sin[i*half:(i+1)*half], s.cos[i*half:(i+1)*half]
			if adapter != nil {
				s.applyLoRA(adapter.av[l], adapter.bv[l], adapter.Rank, adapter.Scale, xn[lo:hi], v[lo:hi])
			}
			tensor.Rope(k[lo:hi], sin, cos) // keys are stored post-RoPE
			if i < from {
				continue
			}
			if adapter != nil {
				s.applyLoRA(adapter.aq[l], adapter.bq[l], adapter.Rank, adapter.Scale, xn[lo:hi], s.q[lo:hi])
			}
			tensor.Rope(s.q[lo:hi], sin, cos)
		}
		for c, r := range refs {
			s.kcols[c] = r.page.K[r.slot][l*d : (l+1)*d]
			s.vcols[c] = r.page.V[r.slot][l*d : (l+1)*d]
		}
		for i := 0; i < n; i++ {
			s.kcols[nc+i], s.vcols[nc+i] = k[i*d:(i+1)*d], v[i*d:(i+1)*d]
		}
		start := 0
		for i := 0; i < n; i++ {
			vis := s.vis[start:s.visEnd[i]]
			start = s.visEnd[i]
			if i < from {
				continue
			}
			scores := s.scores[:len(vis)]
			for hh := 0; hh < heads; hh++ {
				off := hh * hd
				tensor.GatherDot(s.kcols, vis, off, s.q[i*d+off:][:hd], invSqrt, scores)
				tensor.Softmax(scores)
				tensor.GatherAxpy(s.vcols, vis, off, scores, s.attn[i*d+off:][:hd])
			}
		}
		lw.wo.Mul(s.attn[from*d:], nq, s.proj[from*d:])
		tensor.AddInPlace(h[from*d:], s.proj[from*d:])
		// MLP (SwiGLU).
		norm(lw.norm2, from)
		ff1, ff3 := s.ff1[from*ff:], s.ff3[from*ff:]
		lw.w1.Mul(xn[from*d:], nq, ff1)
		lw.w3.Mul(xn[from*d:], nq, ff3)
		tensor.SiLU(ff1)
		for j, up := range ff3 {
			ff1[j] *= up
		}
		lw.w2.Mul(ff1, nq, s.proj[from*d:])
		tensor.AddInPlace(h[from*d:], s.proj[from*d:])
	}

	// Persist KV.
	for i, ref := range dstRefs {
		for l := 0; l < L; l++ {
			copy(ref.page.K[ref.slot][l*d:(l+1)*d], s.k[(l*n+i)*d:][:d])
			copy(ref.page.V[ref.slot][l*d:(l+1)*d], s.v[(l*n+i)*d:][:d])
		}
		ref.page.Pos[ref.slot] = inputs[i].Pos
		ref.page.SetSlot(ref.slot, true, false)
	}

	// Final norm on the last len(outEmb) tokens.
	for i, slot := range outEmb {
		tensor.RMSNorm(h[(first+i)*d:][:d], m.normF, slot.Vec, 1e-5)
		slot.Pos = inputs[first+i].Pos
		slot.Valid = true
	}
	return nil
}

// applyLoRA adds scale · B·(A·x) to dst.
func (s *Scratch) applyLoRA(a, b *tensor.Matrix, rank int, scale float32, x, dst []float32) {
	s.low, s.delta = grow(s.low, rank), grow(s.delta, len(dst))
	a.Mul(x, 1, s.low)
	b.Mul(s.low, 1, s.delta)
	for r, dv := range s.delta {
		dst[r] += float32(scale * dv)
	}
}

// Logits projects a hidden state onto the (tied) output vocabulary; out
// holds VocabSize elements.
func (m *Model) Logits(hidden, out []float32) {
	m.ensureWeights(nil)
	m.head.Mul(hidden, 1, out)
}

// NextDist computes the top-K next-token distribution for an output
// embedding produced by Forward (the get_next_dist API). Probabilities are
// renormalized over the truncated support, descending (equal probabilities
// by ascending token id).
func (m *Model) NextDist(slot *EmbedSlot) (tokens []int, probs []float32, err error) {
	k := m.DistLen()
	tokens, probs = make([]int, k), make([]float32, k)
	if err := m.NextDistScratch(new(Scratch), slot, tokens, probs); err != nil {
		return nil, nil, err
	}
	return tokens, probs, nil
}

// NextDistScratch is NextDist working in s and writing the distribution
// into the caller's tokens and probs, DistLen elements each: it allocates
// nothing once s has grown to the vocabulary.
func (m *Model) NextDistScratch(s *Scratch, slot *EmbedSlot, tokens []int, probs []float32) error {
	if !slot.Valid {
		return fmt.Errorf("model: NextDist on uninitialized embed")
	}
	k := m.DistLen()
	if len(tokens) != k || len(probs) != k {
		return fmt.Errorf("model: NextDist into %d ids and %d probs, want %d", len(tokens), len(probs), k)
	}
	s.logits = grow(s.logits, m.VocabSize())
	m.Logits(slot.Vec, s.logits)
	tensor.Softmax(s.logits)
	s.keys = grow(s.keys, 2*len(s.logits))
	tensor.TopK(s.logits, k, s.keys, tokens)
	var sum float32
	for _, i := range tokens {
		sum += s.logits[i]
	}
	for j, i := range tokens {
		probs[j] = s.logits[i] / sum
	}
	return nil
}

package infer

import (
	"fmt"
	"math/bits"
	"sync"

	"pie/api"
	"pie/internal/gpu"
	"pie/internal/model"
)

// ExecMode selects functional fidelity (see the package comment).
type ExecMode int

const (
	ExecFull   ExecMode = iota // real tensor math
	ExecTiming                 // bookkeeping only, identical virtual-time charges
)

// ModelRuntime binds one servable model to its timing spec and its physical
// resource arrays. The inference layer retains the memory; allocation
// decisions (free lists, virtual mappings) belong to the control layer
// (§5.3: "resource management is entirely delegated to the control layer,
// while the inference layer retains the actual memory").
type ModelRuntime struct {
	Model *model.Model
	Spec  gpu.Spec
	Mode  ExecMode
	Info  api.ModelInfo

	PageCapacity  int
	EmbedCapacity int
	pages         []*model.KvPage    // grown lazily up to PageCapacity
	embeds        []*model.EmbedSlot // grown lazily up to EmbedCapacity

	// scratch is the tensor kernels' working memory. Calls execute one at
	// a time on the owning clock's event loop, so one set serves them all.
	scratch   model.Scratch
	fused     []model.EmbedSlot // fusedSlots' backing, with one pointer each
	fusedPtrs []*model.EmbedSlot

	// Timing mode's stand-in distribution: every call's Tokens is a TopK
	// window of one read-only table and every call's Probs the same TopK
	// halving probabilities. pseudo is the token hash's modulus with its
	// reciprocal, for sampled forwards, whose results the caller keeps.
	pseudo      pseudoMod
	pseudoToks  []int
	pseudoProbs []float32
	// slab is what is left of the one allocation the executing batch's
	// timing-mode sampled tokens are cut from (tokens).
	slab []int
}

// NewModelRuntime sizes the physical pools from the GPU memory geometry.
func NewModelRuntime(m *model.Model, mode ExecMode) *ModelRuntime {
	spec := gpu.SpecFor(m.Config().ParamLabel)
	pageCap := spec.KvPageCapacity(m.Config().PageSize)
	embedCap := 1 << 16
	traits := []api.Trait{
		api.TraitCore, api.TraitAllocate, api.TraitForward, api.TraitInputText,
		api.TraitTokenize, api.TraitOutputText, api.TraitAdapter, api.TraitFused,
	}
	if m.Config().Multimodal {
		traits = append(traits, api.TraitInputImage)
	}
	pseudoProbs := make([]float32, m.Config().TopK)
	var mass float32 = 0.5
	for i := range pseudoProbs {
		pseudoProbs[i] = mass
		mass *= 0.5
	}
	var pseudoToks []int
	if mode == ExecTiming {
		pseudoToks = pseudoTable(m.VocabSize())
	}
	return &ModelRuntime{
		Model:       m,
		Spec:        spec,
		Mode:        mode,
		pseudo:      newPseudoMod(m.VocabSize()),
		pseudoToks:  pseudoToks,
		pseudoProbs: pseudoProbs,
		Info: api.ModelInfo{
			ID:        api.ModelID(m.Config().Name),
			Params:    m.Config().ParamLabel,
			PageSize:  m.Config().PageSize,
			VocabSize: m.VocabSize(),
			Traits:    traits,
			Adapters:  m.AdapterNames(),
		},
		PageCapacity:  pageCap,
		EmbedCapacity: embedCap,
	}
}

// Page returns the physical page with index id, materializing it on first
// touch. In timing mode pages carry occupancy metadata but no tensor data.
func (rt *ModelRuntime) Page(id int32) *model.KvPage {
	for int(id) >= len(rt.pages) {
		rt.pages = append(rt.pages, nil)
	}
	if rt.pages[id] == nil {
		if rt.Mode == ExecFull {
			rt.pages[id] = rt.Model.NewKvPage()
		} else {
			ps := rt.Model.Config().PageSize
			rt.pages[id] = &model.KvPage{
				K: make([][]float32, ps), V: make([][]float32, ps),
				Pos: make([]int, ps), Used: make([]bool, ps), Masked: make([]bool, ps),
			}
		}
	}
	return rt.pages[id]
}

// Embed returns the physical embedding slot with index id.
func (rt *ModelRuntime) Embed(id int32) *model.EmbedSlot {
	for int(id) >= len(rt.embeds) {
		rt.embeds = append(rt.embeds, nil)
	}
	if rt.embeds[id] == nil {
		if rt.Mode == ExecFull {
			rt.embeds[id] = rt.Model.NewEmbedSlot()
		} else {
			rt.embeds[id] = &model.EmbedSlot{}
		}
	}
	return rt.embeds[id]
}

// execute runs the functional side of a batch, call by call in order.
func (rt *ModelRuntime) execute(b *Batch) {
	if rt.Mode == ExecTiming && b.Op == OpForward {
		// Timing mode hands every sampled forward a token list it keeps: one
		// allocation serves the batch.
		n := 0
		for _, c := range b.Calls {
			if c.Sample != nil {
				n += len(c.Outputs)
			}
		}
		rt.slab = make([]int, n)
	}
	for _, c := range b.Calls {
		if err := rt.executeCall(c); err != nil {
			c.Err = err
		}
	}
}

func (rt *ModelRuntime) executeCall(c *Call) error {
	switch c.Op {
	case OpEmbedText:
		return rt.execEmbedText(c)
	case OpEmbedImage:
		return rt.execEmbedImage(c)
	case OpForward:
		return rt.execForward(c)
	case OpNextDist:
		return rt.execNextDist(c)
	case OpCopyKv:
		return model.CopyTokens(c.SrcPage, c.DstPage, c.SrcOff, c.DstOff, c.NumTokens)
	case OpMaskKv:
		return rt.execMaskKv(c)
	case OpDetokenize:
		c.TextFut.Resolve(rt.Model.Tokenizer().Decode(c.TokenIDs))
		return nil
	case OpGetVocabs:
		c.VocabFut.Resolve(rt.Model.Tokenizer().Vocab())
		return nil
	}
	return fmt.Errorf("infer: unhandled op %v", c.Op)
}

func (rt *ModelRuntime) execEmbedText(c *Call) error {
	if len(c.TokenIDs) != len(c.Positions) || len(c.TokenIDs) != len(c.Outputs) {
		return fmt.Errorf("infer: embed_txt arity mismatch: %d ids, %d pos, %d dst",
			len(c.TokenIDs), len(c.Positions), len(c.Outputs))
	}
	if rt.Mode == ExecFull {
		return rt.Model.EmbedTokens(c.TokenIDs, c.Positions, c.Outputs)
	}
	for i := range c.Outputs {
		c.Outputs[i].Pos = c.Positions[i]
		c.Outputs[i].Valid = true
	}
	return nil
}

func (rt *ModelRuntime) execEmbedImage(c *Call) error {
	if rt.Mode == ExecFull {
		return rt.Model.EmbedImage(c.Blob, c.Positions, c.Outputs)
	}
	need := rt.Model.EmbedsNeededForImage(len(c.Blob))
	if len(c.Outputs) != need {
		return fmt.Errorf("infer: embed_img needs %d slots, got %d", need, len(c.Outputs))
	}
	for i := range c.Outputs {
		c.Outputs[i].Pos = c.Positions[i]
		c.Outputs[i].Valid = true
	}
	return nil
}

func (rt *ModelRuntime) execForward(c *Call) error {
	inputs := c.Inputs
	if len(c.FusedEmb) > 0 {
		// Fused input embedding (monolithic-pipeline ablation): materialize
		// transient slots for the token ids.
		if rt.Mode == ExecFull {
			inputs = make([]*model.EmbedSlot, len(c.FusedEmb))
			for i := range inputs {
				inputs[i] = rt.Model.NewEmbedSlot()
			}
			if err := rt.Model.EmbedTokens(c.FusedEmb, c.FusedPos, inputs); err != nil {
				return err
			}
		} else {
			inputs = rt.fusedSlots(c.FusedPos)
		}
	}
	if rt.Mode == ExecFull {
		if _, err := rt.Model.ForwardScratch(&rt.scratch, c.CtxPages, inputs, c.OutPages, c.Outputs, c.Mask, c.Adapter); err != nil {
			return err
		}
	} else {
		if err := timingForward(c, inputs); err != nil {
			return err
		}
	}
	if c.Sample != nil {
		toks, err := rt.fusedSample(c)
		if err != nil {
			return err
		}
		c.FusedTok.Resolve(toks)
	}
	return nil
}

// fusedSlots returns timing mode's transient input slots for a fused
// forward, one per position. They live in the runtime's scratch, valid
// until the next call executes.
func (rt *ModelRuntime) fusedSlots(positions []int) []*model.EmbedSlot {
	n := len(positions)
	if len(rt.fused) < n {
		rt.fused = make([]model.EmbedSlot, n)
		rt.fusedPtrs = make([]*model.EmbedSlot, n)
		for i := range rt.fused {
			rt.fusedPtrs[i] = &rt.fused[i]
		}
	}
	for i, pos := range positions {
		rt.fused[i] = model.EmbedSlot{Pos: pos, Valid: true}
	}
	return rt.fusedPtrs[:n]
}

// timingForward reproduces Forward's resource effects without tensor math.
func timingForward(c *Call, inputs []*model.EmbedSlot) error {
	n := len(inputs)
	for i, in := range inputs {
		if !in.Valid {
			return fmt.Errorf("infer: forward input %d is uninitialized", i)
		}
	}
	if len(c.Outputs) > n {
		return fmt.Errorf("infer: %d output embeds for %d inputs", len(c.Outputs), n)
	}
	if len(c.OutPages) > 0 {
		free := 0
		for _, p := range c.OutPages {
			for _, u := range p.Used {
				if !u {
					free++
				}
			}
		}
		if free < n {
			return fmt.Errorf("infer: output pages have %d free slots for %d tokens", free, n)
		}
		i := 0
		for _, p := range c.OutPages {
			for s := range p.Used {
				if i == n {
					break
				}
				if !p.Used[s] {
					p.SetSlot(s, true, false)
					p.Pos[s] = inputs[i].Pos
					i++
				}
			}
		}
	}
	start := n - len(c.Outputs)
	for i, slot := range c.Outputs {
		slot.Pos = inputs[start+i].Pos
		slot.Valid = true
	}
	return nil
}

// tokens returns an n-token list for a call's result to keep: the next n of
// the batch's slab, or memory of its own when the slab has no room (full
// mode, a call executed outside a batch).
func (rt *ModelRuntime) tokens(n int) []int {
	if len(rt.slab) < n {
		return make([]int, n)
	}
	toks := rt.slab[:n:n]
	rt.slab = rt.slab[n:]
	return toks
}

func (rt *ModelRuntime) fusedSample(c *Call) ([]int, error) {
	if len(c.Outputs) == 0 {
		return nil, fmt.Errorf("infer: fused sampling requires output embeddings")
	}
	toks := rt.tokens(len(c.Outputs))
	for i, slot := range c.Outputs {
		if rt.Mode == ExecFull {
			ids, probs, err := rt.Model.NextDistScratch(&rt.scratch, slot)
			if err != nil {
				return nil, err
			}
			toks[i] = sampleFrom(ids, probs, c.Sample, uint64(c.Seq)+uint64(i))
		} else {
			toks[i] = rt.pseudo.token(pseudoBase(c.Inst, c.Seq), i)
		}
	}
	return toks, nil
}

func (rt *ModelRuntime) execNextDist(c *Call) error {
	if rt.Mode == ExecFull {
		toks, probs, err := rt.Model.NextDistScratch(&rt.scratch, c.DistOf)
		if err != nil {
			return err
		}
		c.DistFut.Resolve(DistResult{Tokens: toks, Probs: probs})
		return nil
	}
	if !c.DistOf.Valid {
		return fmt.Errorf("infer: get_next_dist on uninitialized embed")
	}
	// Timing mode: a deterministic pseudo-distribution. Scripted workloads
	// ignore its content; its shape (TopK entries) keeps transfer costs
	// honest. The tokens are a window of the shared table at an offset
	// hashed from (inst, seq), clipped so an append cannot write into the
	// table; every distribution has the same probabilities. Both are
	// read-only (api.Dist).
	k := len(rt.pseudoProbs)
	off := mix64(pseudoBase(c.Inst, c.Seq)) % uint64(len(rt.pseudoToks)-k+1)
	c.DistFut.Resolve(DistResult{Tokens: rt.pseudoToks[off : off+uint64(k) : off+uint64(k)], Probs: rt.pseudoProbs})
	return nil
}

func (rt *ModelRuntime) execMaskKv(c *Call) error {
	if len(c.MaskBits) > len(c.MaskPage.Masked) {
		return fmt.Errorf("infer: mask has %d bits for a %d-token page", len(c.MaskBits), len(c.MaskPage.Masked))
	}
	for i, m := range c.MaskBits {
		c.MaskPage.SetSlot(i, c.MaskPage.Used[i], m)
	}
	return nil
}

// sampleFrom draws from a truncated distribution per the fused SampleSpec.
func sampleFrom(ids []int, probs []float32, s *SampleSpec, salt uint64) int {
	if s.Temperature <= 0 {
		return ids[0] // greedy
	}
	k := s.TopK
	if k <= 0 || k > len(ids) {
		k = len(ids)
	}
	// Deterministic draw from (seed, salt).
	x := s.Seed*0x9E3779B97F4A7C15 + salt*0xD6E8FEB86659FD93
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	u := float32(x>>40) / (1 << 24)
	var cum, total float32
	for i := 0; i < k; i++ {
		total += probs[i]
	}
	for i := 0; i < k; i++ {
		cum += probs[i] / total
		if u <= cum {
			return ids[i]
		}
	}
	return ids[k-1]
}

// pseudoMod generates the timing-mode stand-in token stream: a 64-bit mix
// of (inst, seq, i) reduced into the vocabulary past the four special
// tokens. The reduction is an exact x % d by multiplying with the
// precomputed m = floor((2^64-1)/d): the high word of x*m is floor(x/d) or
// one less, so one conditional subtraction finishes it.
type pseudoMod struct{ d, m uint64 }

func newPseudoMod(vocab int) pseudoMod {
	d := uint64(vocab - 4)
	return pseudoMod{d: d, m: ^uint64(0) / d}
}

// pseudoBase is the part of the mix that is the same for every i of a call.
func pseudoBase(inst, seq uint64) uint64 {
	return inst*0x9E3779B97F4A7C15 ^ seq*0xD6E8FEB86659FD93
}

func (p pseudoMod) token(base uint64, i int) int {
	return 4 + int(p.rem(mix64(base^uint64(i)*0xCA5A826395121157)))
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// pseudoTableLen is the length of the stand-in token table get_next_dist
// windows are cut from: room for 8 192 − TopK + 1 distinct distributions,
// small enough that building it does not show in an engine's set-up time.
const pseudoTableLen = 8192

// pseudoTables memoizes pseudoTable by vocabulary size: the tables are
// immutable and the same for every runtime of a size, so a process builds
// each once (twice if two engines race to be first; one is kept).
var pseudoTables sync.Map

// pseudoTable returns the shared stand-in token table for a vocabulary size.
// Nothing may write to it.
func pseudoTable(vocab int) []int {
	if t, ok := pseudoTables.Load(vocab); ok {
		return t.([]int)
	}
	p := newPseudoMod(vocab)
	t := make([]int, pseudoTableLen)
	for i := range t {
		t[i] = p.token(0, i)
	}
	kept, _ := pseudoTables.LoadOrStore(vocab, t)
	return kept.([]int)
}

// rem is x % p.d.
func (p pseudoMod) rem(x uint64) uint64 {
	q, _ := bits.Mul64(x, p.m)
	r := x - q*p.d
	if r >= p.d {
		r -= p.d
	}
	return r
}

package model

import (
	"math"
	"math/rand"
	"testing"
)

// golden holds the FNV-64a of the math.Float32bits of every Forward output,
// every KV entry written and every NextDist (tokens, probs) of the scenarios
// below. The values were generated at commit 16295b6, before the blocked
// kernels, the per-call RoPE table and the top-K selection existed: they pin
// the rewritten path to the naive one bit for bit. A mismatch means a kernel
// changed a float; do not regenerate.
var golden = map[string]uint64{
	"llama-1b/plain": 0xf3f4bfd7cf81e024,
	"llama-1b/chat":  0x2bbd20a4541722ef,
	"llama-1b/mask":  0x2e50be5e54e305dc,
	"llama-1b/split": 0x30545880aacbe3e7,
	"llama-3b/plain": 0xd4af7462ffff9692,
	"llama-3b/chat":  0xc4a598766a59d4c0,
	"llama-3b/mask":  0x1524b5c63dc54075,
	"llama-3b/split": 0xbd4e75445e5f843d,
	"llama-8b/plain": 0xc742bbb2fa09b999,
	"llama-8b/chat":  0x5c4cf9866f739c64,
	"llama-8b/mask":  0x300311a23e67a052,
	"llama-8b/split": 0x5c6a7dc62914002d,
}

// bitHash folds exact float bits and ints into one FNV-64a.
type bitHash struct{ h uint64 }

func newBitHash() *bitHash { return &bitHash{h: 14695981039346656037} }

func (b *bitHash) u32(v uint32) {
	for s := 0; s < 32; s += 8 {
		b.h = (b.h ^ uint64(byte(v>>s))) * 1099511628211
	}
}

func (b *bitHash) floats(xs []float32) {
	for _, x := range xs {
		b.u32(math.Float32bits(x))
	}
}

func (b *bitHash) ints(xs []int) {
	for _, x := range xs {
		b.u32(uint32(x))
	}
}

func (b *bitHash) pages(pages []*KvPage) {
	for _, p := range pages {
		for s, used := range p.Used {
			if used {
				b.u32(uint32(p.Pos[s]))
				b.floats(p.K[s])
				b.floats(p.V[s])
			}
		}
	}
}

// goldenRun is one scenario: it hashes everything Forward and NextDist
// return while prefilling ids and greedy-decoding steps tokens.
type goldenRun struct {
	t       *testing.T
	m       *Model
	h       *bitHash
	adapter string
	s       *Scratch // nil: Forward and NextDist with fresh memory
}

// poison fills every float buffer of s, to capacity, with NaN: a kernel
// that reads scratch it did not write this call cannot match the golden.
func (s *Scratch) poison() {
	nan := float32(math.NaN())
	for _, buf := range [][]float32{s.sin, s.cos, s.h, s.xn, s.q, s.attn, s.proj, s.k, s.v, s.ff1, s.ff3, s.scores, s.low, s.delta, s.logits} {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = nan
		}
	}
}

func (g *goldenRun) forward(ctx []*KvPage, in []*EmbedSlot, outKv []*KvPage, outEmb []*EmbedSlot, mask [][]bool) {
	g.t.Helper()
	var res *ForwardResult
	var err error
	if g.s == nil {
		res, err = g.m.Forward(ctx, in, outKv, outEmb, mask, g.adapter)
	} else {
		res, err = g.m.ForwardScratch(g.s, ctx, in, outKv, outEmb, mask, g.adapter)
		g.s.poison()
	}
	if err != nil {
		g.t.Fatal(err)
	}
	for i, out := range res.Outputs {
		g.h.floats(out)
		g.h.floats(outEmb[i].Vec)
		g.h.u32(uint32(outEmb[i].Pos))
	}
}

func (g *goldenRun) dist(slot *EmbedSlot) int {
	g.t.Helper()
	var toks []int
	var probs []float32
	var err error
	if g.s == nil {
		toks, probs, err = g.m.NextDist(slot)
	} else {
		toks, probs, err = g.m.NextDistScratch(g.s, slot)
		g.s.poison()
	}
	if err != nil {
		g.t.Fatal(err)
	}
	g.h.ints(toks)
	g.h.floats(probs)
	return toks[0]
}

func (g *goldenRun) decode(pages []*KvPage, out *EmbedSlot, pos, steps int) {
	for s := 0; s < steps; s++ {
		tok := g.dist(out)
		in := embedPrompt(g.t, g.m, []int{tok}, pos+s)
		g.forward(pages, in, pages, []*EmbedSlot{out}, nil)
	}
}

func newPages(m *Model, n int) []*KvPage {
	pages := make([]*KvPage, n)
	for i := range pages {
		pages[i] = m.NewKvPage()
	}
	return pages
}

const goldenPrompt = "the answer to life the universe and everything is not a number but a question "

func goldenScenarios() map[string]func(g *goldenRun) {
	return map[string]func(g *goldenRun){
		// One prefill, three output embeddings, then greedy decode over
		// the paged context.
		"plain": func(g *goldenRun) {
			ids := g.m.Tokenizer().Encode(goldenPrompt)
			pages := newPages(g.m, 4)
			outs := []*EmbedSlot{g.m.NewEmbedSlot(), g.m.NewEmbedSlot(), g.m.NewEmbedSlot()}
			g.forward(nil, embedPrompt(g.t, g.m, ids, 0), pages, outs, nil)
			g.dist(outs[0])
			g.dist(outs[1])
			g.decode(pages, outs[2], len(ids), 6)
			g.h.pages(pages)
		},
		"chat": func(g *goldenRun) {
			g.adapter = "chat"
			ids := g.m.Tokenizer().Encode(goldenPrompt)
			pages := newPages(g.m, 4)
			out := g.m.NewEmbedSlot()
			g.forward(nil, embedPrompt(g.t, g.m, ids, 0), pages, []*EmbedSlot{out}, nil)
			g.decode(pages, out, len(ids), 6)
			g.h.pages(pages)
		},
		// A masked context slot, an explicit attention matrix with holes
		// and one all-false row, and out-of-order positions under the
		// causal-by-position rule.
		"mask": func(g *goldenRun) {
			ids := g.m.Tokenizer().Encode(goldenPrompt)
			half := len(ids) / 2
			pages := newPages(g.m, 4)
			g.forward(nil, embedPrompt(g.t, g.m, ids[:half], 0), pages, nil, nil)
			pages[0].Masked[1] = true
			pages[0].Masked[3] = true
			nc := half - 2
			rest := ids[half:]
			n := len(rest)
			mask := make([][]bool, n)
			for i := range mask {
				mask[i] = make([]bool, nc+n)
				if i == 1 {
					continue // attends to nothing
				}
				for c := range mask[i] {
					mask[i][c] = (c < nc && (c+i)%3 != 0) || (c >= nc && c-nc <= i && (c-nc)%2 == i%2)
				}
			}
			outs := []*EmbedSlot{g.m.NewEmbedSlot(), g.m.NewEmbedSlot()}
			g.forward(pages, embedPrompt(g.t, g.m, rest, half), pages, outs, mask)
			g.dist(outs[0])
			g.dist(outs[1])
			// Positions out of order: causal visibility follows Pos, not
			// input order.
			in := embedPrompt(g.t, g.m, ids[:5], 0)
			for i, p := range []int{len(ids) + 3, 2, len(ids), 40, len(ids) + 1} {
				in[i].Pos = p
			}
			g.forward(pages, in, nil, outs, nil)
			g.dist(outs[1])
			g.h.pages(pages)
		},
		// The same prefill split into three calls chained through pages.
		"split": func(g *goldenRun) {
			ids := g.m.Tokenizer().Encode(goldenPrompt)
			a, b := len(ids)/3, 2*len(ids)/3
			pages := newPages(g.m, 4)
			out := g.m.NewEmbedSlot()
			g.forward(nil, embedPrompt(g.t, g.m, ids[:a], 0), pages, nil, nil)
			g.forward(pages, embedPrompt(g.t, g.m, ids[a:b], a), pages, []*EmbedSlot{out}, nil)
			g.forward(pages, embedPrompt(g.t, g.m, ids[b:], b), pages, []*EmbedSlot{out}, nil)
			g.decode(pages, out, len(ids), 3)
			g.h.pages(pages)
		},
	}
}

// TestGoldenBits runs every scenario with fresh memory per call and again
// in one Scratch shared by all scenarios and models, as a ModelRuntime
// shares it between sessions.
func TestGoldenBits(t *testing.T) {
	cat := StandardCatalog(42)
	for _, shared := range []*Scratch{nil, new(Scratch)} {
		for _, name := range cat.Names() {
			for scen, run := range goldenScenarios() {
				key := name + "/" + scen
				g := &goldenRun{t: t, m: cat.Models[name], h: newBitHash(), s: shared}
				run(g)
				if want, ok := golden[key]; !ok || g.h.h != want {
					t.Errorf("%q (shared scratch: %v): %#x, golden %#x", key, shared != nil, g.h.h, want)
				}
			}
		}
	}
	if len(golden) != len(cat.Names())*len(goldenScenarios()) {
		t.Errorf("golden has %d entries for %d scenarios", len(golden), len(cat.Names())*len(goldenScenarios()))
	}
}

// TestLastLayerPruningKeepsBits checks the last layer's shortcut against the
// call that cannot take it: with n output slots every token runs the whole
// layer. Whatever len(outEmb) is, the KV written and the outputs that are
// asked for must be those bits. All cases share one poisoned Scratch, so a
// row the pruned pass skipped and then read would be NaN.
func TestLastLayerPruningKeepsBits(t *testing.T) {
	cat := StandardCatalog(42)
	r := rand.New(rand.NewSource(22))
	s := new(Scratch)
	for trial := 0; trial < 48; trial++ {
		m := cat.Models[cat.Names()[trial%3]]
		adapter := []string{"", "chat"}[trial/3%2]
		explicit := trial/6%2 == 1
		n := 1 + r.Intn(40)
		randIDs := func(n int) []int {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = r.Intn(m.VocabSize())
			}
			return ids
		}
		ctx := newPages(m, r.Intn(5))
		nc := 0
		if len(ctx) > 0 {
			nc = 1 + r.Intn(len(ctx)*m.cfg.PageSize)
			if _, err := m.ForwardScratch(s, nil, embedPrompt(t, m, randIDs(nc), 0), ctx, nil, nil, adapter); err != nil {
				t.Fatal(err)
			}
			s.poison()
		}
		in := embedPrompt(t, m, randIDs(n), nc)
		var mask [][]bool
		if explicit {
			mask = make([][]bool, n)
			for i := range mask {
				mask[i] = make([]bool, nc+n)
				for c := range mask[i] {
					mask[i][c] = r.Intn(3) != 0
				}
			}
		}
		// run returns the hash of the KV pages a call with nOut output
		// slots wrote, and its outputs.
		run := func(nOut int) (uint64, [][]float32) {
			outKv, outs := newPages(m, 3), make([]*EmbedSlot, nOut)
			for i := range outs {
				outs[i] = m.NewEmbedSlot()
			}
			res, err := m.ForwardScratch(s, ctx, in, outKv, outs, mask, adapter)
			if err != nil {
				t.Fatal(err)
			}
			s.poison()
			h := newBitHash()
			h.pages(outKv)
			return h.h, res.Outputs
		}
		wantKv, wantOut := run(n)
		for _, nOut := range []int{0, 1, 1 + r.Intn(n), n} {
			gotKv, gotOut := run(nOut)
			if gotKv != wantKv {
				t.Fatalf("trial %d (n=%d, ctx=%d, mask=%v, adapter=%q): %d output slots wrote KV %#x, %d slots %#x", trial, n, nc, explicit, adapter, nOut, gotKv, n, wantKv)
			}
			for i, out := range gotOut {
				want := wantOut[n-nOut+i]
				for j := range out {
					if math.Float32bits(out[j]) != math.Float32bits(want[j]) {
						t.Fatalf("trial %d (n=%d, ctx=%d, mask=%v, adapter=%q): output %d of %d differs at element %d", trial, n, nc, explicit, adapter, i, nOut, j)
					}
				}
			}
		}
	}
}

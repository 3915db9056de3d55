package apps

import (
	"fmt"
	"math"
	"time"

	"pie/api"
	"pie/inferlet"
	"pie/internal/grammar"
	"pie/support"
)

// Custom generation processes (R2): these programs reshape the
// predict-then-sample loop itself — grammar masks, multi-candidate beams,
// distribution biasing, validate-and-retry, and multi-token-per-step
// speculative/Jacobi schedules — all per-request, with no engine changes.

// EBNFParams configures EBNFDecoding.
type EBNFParams struct {
	Common
	Grammar   string `json:"grammar"` // EBNF source; default JSON
	Start     string `json:"start"`
	Prompt    string `json:"prompt"`
	MaxTokens int    `json:"max_tokens"`
	// MinTokens keeps generating past early acceptable sentences (e.g. a
	// bare number is complete JSON); default 3/4 of MaxTokens, so
	// cross-system comparisons generate comparable lengths.
	MinTokens int `json:"min_tokens"`
	// MaskCostUs charges the per-step token-mask computation to virtual
	// time (the in-sandbox work a Wasm-compiled grammar library performs;
	// default 150µs, roughly llguidance's per-step cost).
	MaskCostUs int `json:"mask_cost_us"`
}

// EBNFDecoding constrains sampling with a compiled EBNF grammar: at every
// step only tokens whose bytes keep the parse alive are eligible, so even
// an untrained model emits syntactically valid output (Table 2: 225 LoC,
// 2 MB — the paper embeds the llguidance library; we embed
// internal/grammar).
func EBNFDecoding() inferlet.Program {
	return inferlet.Program{
		Name:       "ebnf",
		BinarySize: 2 << 20,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p EBNFParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.Grammar == "" {
				p.Grammar = grammar.JSONGrammar
				p.Start = "json"
			}
			if p.MaxTokens <= 0 {
				p.MaxTokens = 48
			}
			if p.Prompt == "" {
				p.Prompt = "Respond with JSON: "
			}
			g, err := grammar.Parse(p.Grammar)
			if err != nil {
				return err
			}
			machine, err := g.Compile(p.Start)
			if err != nil {
				return err
			}
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			ctx, err := support.NewContext(s, m)
			if err != nil {
				return err
			}
			defer ctx.Drop()
			if err := ctx.Fill(p.Prompt); err != nil {
				return err
			}
			vocab, err := ctx.Vocabs()
			if err != nil {
				return err
			}

			if p.MaskCostUs == 0 {
				p.MaskCostUs = 150
			}
			if p.MinTokens <= 0 {
				p.MinTokens = p.MaxTokens * 3 / 4
			}
			var out []int
			hardLimit := p.MaxTokens + 16 // soft landing: close open structure
			for len(out) < hardLimit {
				if machine.CanAccept() && !machine.CanContinue() {
					break
				}
				s.Sleep(time.Duration(p.MaskCostUs) * time.Microsecond)
				allowed := machine.AllowedSet(vocab)
				if len(allowed) == 0 {
					break // only acceptance remains
				}
				dist, err := ctx.NextDist()
				if err != nil {
					return err
				}
				sampler := &support.MaskedSampler{
					Allowed: func(tok int) bool { return allowed[tok] },
					Base:    support.Greedy{},
				}
				tok := sampler.Next(dist)
				if !allowed[tok] {
					// The whole truncated distribution was masked out; fall
					// back to the lowest viable id (never map order).
					for id := range vocab {
						if allowed[id] {
							tok = id
							break
						}
					}
				}
				if len(out) >= p.MaxTokens-2 || (len(out) >= p.MinTokens && !allowed[tok]) {
					// Budget nearly spent: steer toward completion by
					// preferring the lowest-id allowed token that accepts
					// outright.
					for id := range vocab {
						if !allowed[id] {
							continue
						}
						probe := machine.Clone()
						if probe.AdvanceString(string(vocab[id])) && probe.CanAccept() {
							tok = id
							break
						}
					}
				}
				if !machine.AdvanceString(string(vocab[tok])) {
					return fmt.Errorf("apps: grammar rejected its own allowed token %d", tok)
				}
				out = append(out, tok)
				s.ReportOutputTokens(1)
				if err := ctx.Append(tok); err != nil {
					return err
				}
				if machine.CanAccept() && (len(out) >= p.MinTokens || !machine.CanContinue()) {
					break
				}
			}
			text, err := ctx.DecodeText(out)
			if err != nil {
				return err
			}
			s.Send(text)
			return ctx.Sync()
		},
	}
}

// BeamParams configures BeamSearch.
type BeamParams struct {
	Common
	Prompt string `json:"prompt"`
	Width  int    `json:"width"`
	Steps  int    `json:"steps"`
}

// BeamSearch keeps the `width` highest-likelihood continuations alive,
// duplicating KV pages when a beam spawns several survivors and freeing
// pruned beams immediately — the feature vLLM nearly dropped for
// complexity, here 100 lines of application code (Table 2: 98 LoC).
func BeamSearch() inferlet.Program {
	return inferlet.Program{
		Name:       "beam",
		BinarySize: 142 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p BeamParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.Prompt == "" {
				p.Prompt = "Once upon a time "
			}
			if p.Width <= 0 {
				p.Width = 3
			}
			if p.Steps <= 0 {
				p.Steps = 12
			}
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			root, err := support.NewContext(s, m)
			if err != nil {
				return err
			}
			if err := root.Fill(p.Prompt); err != nil {
				return err
			}
			type beam struct {
				ctx   *support.Context
				score float64
				toks  []int
			}
			first, err := root.Fork(1)
			if err != nil {
				return err
			}
			beams := []beam{{ctx: first[0]}}

			for step := 0; step < p.Steps; step++ {
				type cand struct {
					from  int
					tok   int
					score float64
				}
				var cands []cand
				// Every beam's forward goes out before any is awaited, so
				// one kernel serves the step.
				for _, b := range beams {
					if err := b.ctx.Flush(); err != nil {
						return err
					}
				}
				for i, b := range beams {
					dist, err := b.ctx.NextDist()
					if err != nil {
						return err
					}
					for j := 0; j < p.Width && j < len(dist.Tokens); j++ {
						lp := math.Log(float64(dist.Probs[j]) + 1e-9)
						cands = append(cands, cand{from: i, tok: dist.Tokens[j], score: b.score + lp})
					}
				}
				// Top `width` candidates overall (insertion sort: tiny n).
				for i := 1; i < len(cands); i++ {
					for j := i; j > 0 && cands[j].score > cands[j-1].score; j-- {
						cands[j], cands[j-1] = cands[j-1], cands[j]
					}
				}
				if len(cands) > p.Width {
					cands = cands[:p.Width]
				}
				// How many survivors does each parent feed?
				children := map[int][]cand{}
				for _, c := range cands {
					children[c.from] = append(children[c.from], c)
				}
				var next []beam
				for i, b := range beams {
					kids := children[i]
					if len(kids) == 0 {
						if err := b.ctx.Drop(); err != nil { // pruned
							return err
						}
						continue
					}
					// First survivor continues in place; extra survivors
					// fork (KV page duplication).
					extra, err := b.ctx.Fork(len(kids) - 1)
					if err != nil {
						return err
					}
					ctxs := append([]*support.Context{b.ctx}, extra...)
					for k, c := range kids {
						if err := ctxs[k].Append(c.tok); err != nil {
							return err
						}
						s.ReportOutputTokens(0) // counted below once per step
						next = append(next, beam{
							ctx:   ctxs[k],
							score: c.score,
							toks:  append(append([]int(nil), b.toks...), c.tok),
						})
					}
				}
				beams = next
				s.ReportOutputTokens(1) // one output token per step survives
			}
			best := beams[0]
			for _, b := range beams[1:] {
				if b.score > best.score {
					best = b
				}
			}
			text, err := best.ctx.DecodeText(best.toks)
			if err != nil {
				return err
			}
			s.Send(fmt.Sprintf("beam[%.3f]:%s", best.score, text))
			for _, b := range beams {
				if err := b.ctx.Sync(); err != nil {
					return err
				}
				if err := b.ctx.Drop(); err != nil {
					return err
				}
			}
			return root.Drop()
		},
	}
}

// WatermarkParams configures Watermarking.
type WatermarkParams struct {
	Common
	Prompt    string  `json:"prompt"`
	MaxTokens int     `json:"max_tokens"`
	Gamma     float64 `json:"gamma"` // greenlist fraction
	Delta     float64 `json:"delta"` // logit boost
	Key       uint64  `json:"key"`
}

// Watermarking biases sampling toward a key-dependent greenlist
// (Kirchenbauer et al.): dynamic control over the output distribution
// that monolithic loops have no hook for (Table 2: 43 LoC).
func Watermarking() inferlet.Program {
	return inferlet.Program{
		Name:       "watermarking",
		BinarySize: 130 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p WatermarkParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.Prompt == "" {
				p.Prompt = "The quick brown "
			}
			if p.MaxTokens <= 0 {
				p.MaxTokens = 40
			}
			if p.Gamma <= 0 {
				p.Gamma = 0.5
			}
			if p.Delta == 0 {
				p.Delta = 4
			}
			if p.Key == 0 {
				p.Key = 0xC0FFEE
			}
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			ctx, err := support.NewContext(s, m)
			if err != nil {
				return err
			}
			defer ctx.Drop()
			if err := ctx.Fill(p.Prompt); err != nil {
				return err
			}
			// The greenlist reseeds from the previous token every step, so
			// the bias closure reads prev captured by reference.
			prev := ctx.Tokens[len(ctx.Tokens)-1]
			sampler := &support.BiasedSampler{
				Base: support.Greedy{},
				Bias: func(tok int) float32 {
					if InGreenlist(prev, tok, p.Key, p.Gamma) {
						return float32(p.Delta)
					}
					return 0
				},
			}
			res, err := ctx.Generate(support.GenOpts{
				MaxTokens: p.MaxTokens,
				Sampler:   sampler,
				OnToken:   func(tok int) { prev = tok },
			})
			if err != nil {
				return err
			}
			z := WatermarkZScore(append([]int{ctx.Tokens[len(ctx.Tokens)-len(res.Tokens)-1]}, res.Tokens...), p.Key, p.Gamma)
			s.Send(fmt.Sprintf("z=%.2f %s", z, res.Text))
			return ctx.Sync()
		},
	}
}

// InGreenlist reports whether tok is in the greenlist seeded by the
// previous token and key.
func InGreenlist(prev, tok int, key uint64, gamma float64) bool {
	h := (uint64(prev)*0x9E3779B97F4A7C15 + key) * 0xD6E8FEB86659FD93
	h ^= uint64(tok) * 0xCA5A826395121157
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return float64(h%10000)/10000 < gamma
}

// WatermarkZScore measures greenlist over-representation in a token
// stream: the detector for Watermarking's output.
func WatermarkZScore(tokens []int, key uint64, gamma float64) float64 {
	if len(tokens) < 2 {
		return 0
	}
	green := 0
	n := 0
	for i := 1; i < len(tokens); i++ {
		if InGreenlist(tokens[i-1], tokens[i], key, gamma) {
			green++
		}
		n++
	}
	mean := gamma * float64(n)
	sd := math.Sqrt(gamma * (1 - gamma) * float64(n))
	if sd == 0 {
		return 0
	}
	return (float64(green) - mean) / sd
}

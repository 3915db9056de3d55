package apps

import (
	"pie/api"
	"pie/inferlet"
	"pie/support"
)

// FusedCompletionParams configures TextCompletionFused.
type FusedCompletionParams struct {
	Common
	Prompt    string `json:"prompt"`
	MaxTokens int    `json:"max_tokens"`
	// FuseEmbed also folds token embedding into the forward kernel
	// (full monolithic pipeline); otherwise embed_txt stays separate.
	FuseEmbed bool `json:"fuse_embed"`
}

// TextCompletionFused is the Table 3 ablation program: it decodes with
// forward_with_sampling (the negotiated Fused capability), emulating the
// monolithic pipeline's fused sampling (and optionally fused embedding)
// to measure the opportunity cost of Pie's decomposed APIs.
func TextCompletionFused() inferlet.Program {
	return inferlet.Program{
		Name:       "text_completion_fused",
		BinarySize: 129 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitFused),
		Run: func(s inferlet.Session) error {
			var p FusedCompletionParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.Prompt == "" {
				p.Prompt = "Hello, "
			}
			if p.MaxTokens <= 0 {
				p.MaxTokens = 32
			}
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			q, err := s.Open(m.ID)
			if err != nil {
				return err
			}
			tok, err := q.Tokenizer()
			if err != nil {
				return err
			}
			alloc, err := q.Alloc()
			if err != nil {
				return err
			}
			text, err := q.Text()
			if err != nil {
				return err
			}
			fused, err := q.Fused()
			if err != nil {
				return err
			}
			tf, err := tok.Encode(p.Prompt)
			if err != nil {
				return err
			}
			prom, err := tf.Get()
			if err != nil {
				return err
			}
			limit := len(prom) + p.MaxTokens
			pages, err := alloc.Pages((limit + m.PageSize - 1) / m.PageSize)
			if err != nil {
				return err
			}
			gen, err := alloc.Embeds(1)
			if err != nil {
				return err
			}
			sampling := inferlet.WithSampling(inferlet.TopK(1), inferlet.SampleSeed(p.Seed))

			// Prefill with fused sampling: one call yields the first token.
			pos := make([]int, len(prom))
			for i := range pos {
				pos[i] = i
			}
			promEmb, err := alloc.Embeds(len(prom))
			if err != nil {
				return err
			}
			if err := text.Embed(prom, pos, promEmb); err != nil {
				return err
			}
			tokF, err := fused.Run(
				inferlet.Input(promEmb...), inferlet.AppendKv(pages...),
				inferlet.Output(gen...), sampling,
			)
			if err != nil {
				return err
			}
			toks, err := tokF.Get()
			if err != nil {
				return err
			}
			cur := toks[0]
			out := []int{cur}
			s.ReportOutputTokens(1)
			if err := alloc.FreeEmbeds(promEmb); err != nil {
				return err
			}

			for i := len(prom); len(out) < p.MaxTokens; i++ {
				opts := []inferlet.ForwardOption{
					inferlet.ReadKv(pages...), inferlet.AppendKv(pages...),
					inferlet.Output(gen...), sampling,
				}
				if p.FuseEmbed {
					opts = append(opts, inferlet.InlineTokens([]int{cur}, []int{i}))
				} else {
					if err := text.Embed([]int{cur}, []int{i}, gen); err != nil {
						return err
					}
					opts = append(opts, inferlet.Input(gen...))
				}
				tf, err := fused.Run(opts...)
				if err != nil {
					return err
				}
				ts, err := tf.Get()
				if err != nil {
					return err
				}
				cur = ts[len(ts)-1]
				out = append(out, cur)
				s.ReportOutputTokens(1)
			}
			textF, err := tok.Decode(out)
			if err != nil {
				return err
			}
			decoded, err := textF.Get()
			if err != nil {
				return err
			}
			s.Send(decoded)
			// Queue-scoped reclamation: one Close frees the pages and both
			// embed allocations this program made.
			return q.Close()
		},
	}
}

// PrefixTreeParams configures PrefixTree.
type PrefixTreeParams struct {
	Common
	Prompt       string `json:"prompt"`
	Branches     int    `json:"branches"`
	BranchTokens int    `json:"branch_tokens"`
}

// PrefixTree is SGLang-style branching generation (the "PrefixTree" entry
// of Fig. 8): fork n continuations off one shared prompt, decode them in
// lockstep, and return all branches. The shared prefix's pages are never
// duplicated (RadixAttention-equivalent, as a program).
func PrefixTree() inferlet.Program {
	return inferlet.Program{
		Name:       "prefix_tree",
		BinarySize: 134 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p PrefixTreeParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.Prompt == "" {
				p.Prompt = "Consider three different answers: "
			}
			if p.Branches <= 0 {
				p.Branches = 4
			}
			if p.BranchTokens <= 0 {
				p.BranchTokens = 16
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
			kids, err := root.Fork(p.Branches)
			if err != nil {
				return err
			}
			samplers := make([]support.Sampler, p.Branches)
			for i := range samplers {
				samplers[i] = &support.TopK{K: 8, Temperature: 0.9, Seed: p.Seed + uint64(i)}
			}
			res, err := support.ParallelGenerate(kids, support.GenOpts{MaxTokens: p.BranchTokens}, samplers)
			if err != nil {
				return err
			}
			for i, r := range res {
				s.Send(r.Text)
				if err := kids[i].Drop(); err != nil {
					return err
				}
			}
			if err := root.Sync(); err != nil {
				return err
			}
			return root.Drop()
		},
	}
}

// Package apps contains the inferlet applications of the paper's Table 2:
// standard techniques (text completion, prefix/modular caching), custom
// decoding (EBNF, beam search, watermarking, output validation,
// speculative and Jacobi decoding), attention-level techniques (sink,
// windowed, hierarchical), deliberate prompting strategies (ToT, RoT, GoT,
// SkoT), and agentic workflows (ReACT, CodeACT, SWARM, plus the Fig. 7
// function-calling agent with its three stackable optimizations).
//
// Every program reads a JSON parameter blob from its first launch argument
// — the way a real client would configure a deployed inferlet — and
// reports results to the client with Send. Token counts (not token
// identities) parameterize the workloads, so the same programs run under
// both execution modes; content-sensitive programs (EBNF, watermarking,
// beam) use real distributions in full mode.
package apps

import (
	"encoding/json"
	"fmt"

	"pie/api"
	"pie/inferlet"
	"pie/support"
)

// Common holds parameters shared by every program.
type Common struct {
	Model string `json:"model"` // default "llama-1b"
	Seed  uint64 `json:"seed"`
}

// decodeParams unmarshals the launch-argument blob into v.
func decodeParams(s inferlet.Session, v interface{}) error {
	args := s.GetArg()
	if len(args) == 0 || args[0] == "" {
		return nil
	}
	if err := json.Unmarshal([]byte(args[0]), v); err != nil {
		return fmt.Errorf("apps: bad params: %w", err)
	}
	return nil
}

// modelInfo resolves a model name ("" means the first installed model).
func modelInfo(s inferlet.Session, name string) (api.ModelInfo, error) {
	models := s.AvailableModels()
	if name == "" {
		return models[0], nil
	}
	for _, m := range models {
		if string(m.ID) == name {
			return m, nil
		}
	}
	return api.ModelInfo{}, fmt.Errorf("apps: %w: %q", api.ErrNoSuchModel, name)
}

// All returns every registered application, ready for Engine.MustRegister.
func All() []inferlet.Program {
	return []inferlet.Program{
		TextCompletion(),
		PrefixCaching(),
		ModularCaching(),
		TreeOfThought(),
		RecursionOfThought(),
		GraphOfThought(),
		SkeletonOfThought(),
		EBNFDecoding(),
		BeamSearch(),
		Watermarking(),
		OutputValidation(),
		SpeculativeDecoding(),
		JacobiDecoding(),
		AttentionSink(),
		WindowedAttention(),
		HierarchicalAttention(),
		AgentReACT(),
		AgentCodeACT(),
		AgentSwarm(),
		AgentSwarmWorker(),
		FunctionCallAgent(),
		TextCompletionFused(),
		PrefixTree(),
	}
}

// ---------------------------------------------------------------------------
// Text completion — the baseline workload (Table 2: 38 LoC, 129 KB).

// CompletionParams configures TextCompletion.
type CompletionParams struct {
	Common
	Prompt      string  `json:"prompt"`
	MaxTokens   int     `json:"max_tokens"`
	Temperature float64 `json:"temperature"`
	TopK        int     `json:"top_k"`
	// Ack makes the program message the client before generating (the
	// Fig. 9 launch-latency probe).
	Ack bool `json:"ack"`
	// FirstTokenAck messages the client the moment the first token is
	// accepted — the TTFT probe for the cluster scaling sweep.
	FirstTokenAck bool `json:"first_token_ack"`
}

// TextCompletion is the standard autoregressive completion inferlet.
func TextCompletion() inferlet.Program {
	return inferlet.Program{
		Name:       "text_completion",
		BinarySize: 129 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p CompletionParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.MaxTokens <= 0 {
				p.MaxTokens = 32
			}
			if p.Prompt == "" {
				p.Prompt = "Hello, "
			}
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			if p.Ack {
				s.Send("ack")
			}
			ctx, err := support.NewContext(s, m)
			if err != nil {
				return err
			}
			defer ctx.Drop()
			if err := ctx.Fill(p.Prompt); err != nil {
				return err
			}
			var sampler support.Sampler = support.Greedy{}
			if p.Temperature > 0 {
				sampler = &support.TopK{K: p.TopK, Temperature: p.Temperature, Seed: p.Seed}
			}
			var onToken func(int)
			if p.FirstTokenAck {
				sent := false
				onToken = func(int) {
					if !sent {
						sent = true
						s.Send("first-token")
					}
				}
			}
			res, err := ctx.Generate(support.GenOpts{MaxTokens: p.MaxTokens, Sampler: sampler, OnToken: onToken})
			if err != nil {
				return err
			}
			s.Send(res.Text)
			return ctx.Sync()
		},
	}
}

// ---------------------------------------------------------------------------
// Prefix caching — replicates vLLM's automatic prefix caching as a
// program (Table 2: 45 LoC; §7.3), built on export/import.

// PrefixCachingParams configures PrefixCaching.
type PrefixCachingParams struct {
	Common
	SharedPrefix string `json:"shared_prefix"`
	Prompt       string `json:"prompt"`
	MaxTokens    int    `json:"max_tokens"`
	CacheKey     string `json:"cache_key"` // default: derived from prefix
}

// PrefixCaching fills a shared prefix once per cache key: the first
// inferlet prefills and exports page-aligned KV; later ones import it and
// skip the prefill entirely.
func PrefixCaching() inferlet.Program {
	return inferlet.Program{
		Name:       "prefix_caching",
		BinarySize: 131 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p PrefixCachingParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.MaxTokens <= 0 {
				p.MaxTokens = 16
			}
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			key := p.CacheKey
			if key == "" {
				key = fmt.Sprintf("prefix:%d:%x", len(p.SharedPrefix), hash64(p.SharedPrefix))
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
			toksF, err := tok.Encode(p.SharedPrefix)
			if err != nil {
				return err
			}
			prefixToks, err := toksF.Get()
			if err != nil {
				return err
			}
			// Only page-aligned KV is shareable; the remainder re-fills.
			aligned := len(prefixToks) / m.PageSize * m.PageSize

			var ctx *support.Context
			if aligned > 0 && alloc.HasExport(key) {
				ctx, err = support.ImportContext(s, m, key, prefixToks[:aligned])
				if err != nil {
					return err
				}
				if err := ctx.FillTokens(prefixToks[aligned:]); err != nil {
					return err
				}
			} else {
				ctx, err = support.NewContext(s, m)
				if err != nil {
					return err
				}
				if err := ctx.FillTokens(prefixToks[:aligned]); err != nil {
					return err
				}
				if aligned > 0 {
					// Racing exporters: first one wins, losers just continue.
					_ = ctx.Export(key)
				}
				if err := ctx.FillTokens(prefixToks[aligned:]); err != nil {
					return err
				}
			}
			defer ctx.Drop()
			if err := ctx.Fill(p.Prompt); err != nil {
				return err
			}
			res, err := ctx.Generate(support.GenOpts{MaxTokens: p.MaxTokens})
			if err != nil {
				return err
			}
			s.Send(res.Text)
			return ctx.Sync()
		},
	}
}

// ---------------------------------------------------------------------------
// Modular caching — Prompt Cache-style reuse of independent prompt
// modules at schema positions (Table 2: 72 LoC; [21]).

// Module is one cacheable prompt segment.
type Module struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// ModularCachingParams configures ModularCaching.
type ModularCachingParams struct {
	Common
	// Schema declares every module and fixes its position range.
	Schema []Module `json:"schema"`
	// Use selects the modules this request includes (by name).
	Use       []string `json:"use"`
	Prompt    string   `json:"prompt"`
	MaxTokens int      `json:"max_tokens"`
	// SlotTokens is each module's fixed position budget (page-aligned
	// internally).
	SlotTokens int `json:"slot_tokens"`
}

// ModularCaching caches each module's KV independently at its schema
// position (modules attend only to themselves, like Prompt Cache), then
// composes an arbitrary subset per request without re-prefilling.
func ModularCaching() inferlet.Program {
	return inferlet.Program{
		Name:       "modular_caching",
		BinarySize: 139 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p ModularCachingParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.MaxTokens <= 0 {
				p.MaxTokens = 16
			}
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			if p.SlotTokens <= 0 {
				p.SlotTokens = 2 * m.PageSize
			}
			p.SlotTokens = (p.SlotTokens + m.PageSize - 1) / m.PageSize * m.PageSize
			q, err := s.Open(m.ID)
			if err != nil {
				return err
			}
			alloc, err := q.Alloc()
			if err != nil {
				return err
			}

			// Ensure every used module is cached at its schema position.
			slotOf := map[string]int{}
			for i, mod := range p.Schema {
				slotOf[mod.Name] = i
			}
			var importedPages []api.KvPage
			used := 0
			for _, name := range p.Use {
				idx, ok := slotOf[name]
				if !ok {
					return fmt.Errorf("apps: module %q not in schema", name)
				}
				mod := p.Schema[idx]
				key := fmt.Sprintf("module:%x:%d", hash64(mod.Text), idx)
				if !alloc.HasExport(key) {
					if err := cacheModule(q, m, mod, idx*p.SlotTokens, p.SlotTokens, key); err != nil {
						return err
					}
				}
				pages, err := alloc.Import(key)
				if err != nil {
					return err
				}
				importedPages = append(importedPages, pages...)
				used++
			}

			// Compose: a fresh context that attends the imported modules.
			ctx, err := support.NewContext(s, m)
			if err != nil {
				return err
			}
			defer ctx.Drop()
			composed, err := support.ComposeContext(ctx, importedPages, len(p.Schema)*p.SlotTokens)
			if err != nil {
				return err
			}
			if err := composed.Fill(p.Prompt); err != nil {
				return err
			}
			res, err := composed.Generate(support.GenOpts{MaxTokens: p.MaxTokens})
			if err != nil {
				return err
			}
			s.Send(fmt.Sprintf("modules=%d %s", used, res.Text))
			return composed.Sync()
		},
	}
}

// cacheModule prefills one module in isolation at its schema position and
// exports the page-aligned KV.
func cacheModule(q *inferlet.Queue, m api.ModelInfo, mod Module, startPos, slotTokens int, key string) error {
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
	fwd, err := q.Forward()
	if err != nil {
		return err
	}
	toksF, err := tok.Encode(mod.Text)
	if err != nil {
		return err
	}
	toks, err := toksF.Get()
	if err != nil {
		return err
	}
	if len(toks) > slotTokens {
		toks = toks[:slotTokens]
	}
	// Pad to the full slot with PAD tokens so positions stay page-aligned.
	for len(toks) < slotTokens {
		toks = append(toks, 0)
	}
	pages, err := alloc.Pages(slotTokens / m.PageSize)
	if err != nil {
		return err
	}
	emb, err := alloc.Embeds(len(toks))
	if err != nil {
		return err
	}
	defer alloc.FreeEmbeds(emb)
	pos := make([]int, len(toks))
	for i := range pos {
		pos[i] = startPos + i
	}
	if err := text.Embed(toks, pos, emb); err != nil {
		return err
	}
	if err := fwd.Run(inferlet.Input(emb...), inferlet.AppendKv(pages...)); err != nil {
		return err
	}
	if err := q.Sync(); err != nil {
		return err
	}
	return alloc.Export(key, pages)
}

// hash64 is FNV-1a for cache keys.
func hash64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// manifest builds the standard Table 2 deployment contract: the artifact
// version plus the capability traits the program requires of a serving
// model. The registry validates these against the catalog's trait closure
// at register time (api.ErrUnsatisfiedManifest), so a program
// deployed onto an engine that cannot serve it fails before it runs.
func manifest(traits ...api.Trait) inferlet.Manifest {
	return inferlet.Manifest{Version: appsVersion, Traits: traits}
}

// appsVersion is the artifact version every Table 2 program ships at.
const appsVersion = "1.0.0"

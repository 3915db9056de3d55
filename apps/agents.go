package apps

import (
	"fmt"
	"strings"

	"pie/api"
	"pie/inferlet"
	"pie/support"
)

// Agentic workflows (§7.1): the whole agent loop — thinking, tool calls,
// observations — lives inside one inferlet, so external interactions cost
// no client round trips and the KV cache survives across them. The
// baselines in internal/baseline replicate the same workloads with
// client-side orchestration for the Fig. 6/7 comparisons.

// AgentParams configures the ReACT/CodeACT agents.
type AgentParams struct {
	Common
	Task        string `json:"task"`
	Steps       int    `json:"steps"` // external interactions (paper: 8)
	ThinkTokens int    `json:"think_tokens"`
	ObsTokens   int    `json:"obs_tokens"`
	FinalTokens int    `json:"final_tokens"`
	ToolURL     string `json:"tool_url"`
}

func applyAgentDefaults(p *AgentParams, defaultTool string) {
	if p.Task == "" {
		p.Task = "Find the weather in the capital of France and summarize. "
	}
	if p.Steps <= 0 {
		p.Steps = 8
	}
	if p.ThinkTokens <= 0 {
		p.ThinkTokens = 24
	}
	if p.ObsTokens <= 0 {
		p.ObsTokens = 16
	}
	if p.FinalTokens <= 0 {
		p.FinalTokens = 24
	}
	if p.ToolURL == "" {
		p.ToolURL = defaultTool
	}
}

// AgentReACT interleaves Thought/Action generation with web-API calls
// (Table 2: 60 LoC, 309 KB).
func AgentReACT() inferlet.Program {
	return agentProgram("agent_react", 309<<10, "http://search.api/q")
}

// AgentCodeACT generates code actions executed by a sandbox service; its
// binary embeds a JS runtime, hence the 6.7 MB artifact (Table 2: 62 LoC).
func AgentCodeACT() inferlet.Program {
	return agentProgram("agent_codeact", 6700<<10, "http://code.exec/run")
}

func agentProgram(name string, binSize int, defaultTool string) inferlet.Program {
	return inferlet.Program{
		Name:       name,
		BinarySize: binSize,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p AgentParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			applyAgentDefaults(&p, defaultTool)
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			ctx, err := support.NewContext(s, m)
			if err != nil {
				return err
			}
			defer ctx.Drop()
			if err := ctx.Fill(p.Task); err != nil {
				return err
			}
			for step := 0; step < p.Steps; step++ {
				// Think: emit the next Thought/Action.
				act, err := ctx.Generate(support.GenOpts{MaxTokens: p.ThinkTokens})
				if err != nil {
					return err
				}
				// Act: the tool call happens inside the inferlet — no
				// client round trip, KV stays resident (R3).
				resp, err := s.HTTPGet(fmt.Sprintf("%s?step=%d&act=%x", p.ToolURL, step, hash64(act.Text))).Get()
				if err != nil {
					return err
				}
				// Observe: splice the observation into the live context.
				obs := fmt.Sprintf(" observation %d: %s ", step, resp)
				if err := ctx.FillPadded(obs, p.ObsTokens); err != nil {
					return err
				}
			}
			final, err := ctx.Generate(support.GenOpts{MaxTokens: p.FinalTokens})
			if err != nil {
				return err
			}
			s.Send(name + ":" + final.Text)
			return ctx.Sync()
		},
	}
}

// SwarmParams configures AgentSwarm.
type SwarmParams struct {
	Common
	Task         string `json:"task"`
	Workers      int    `json:"workers"`
	IOsPerWorker int    `json:"ios_per_worker"` // paper total: 32 per agent
	ThinkTokens  int    `json:"think_tokens"`
	Topic        string `json:"topic"`
}

// AgentSwarm coordinates sub-agent inferlets: the coordinator spawns
// workers, workers run their own generation+IO loops and publish results
// on a broadcast topic, and the coordinator synthesizes the answers
// (Table 2: 95 LoC; GPTSwarm-style).
func AgentSwarm() inferlet.Program {
	return inferlet.Program{
		Name:       "agent_swarm",
		BinarySize: 135 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p SwarmParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.Task == "" {
				p.Task = "Research the topic from several angles. "
			}
			if p.Workers <= 0 {
				p.Workers = 4
			}
			if p.IOsPerWorker <= 0 {
				p.IOsPerWorker = 8 // 4 workers × 8 = the paper's 32 IOs
			}
			if p.ThinkTokens <= 0 {
				p.ThinkTokens = 16
			}
			if p.Topic == "" {
				p.Topic = fmt.Sprintf("swarm-%s", s.InstanceID())
			}
			sub := s.Subscribe(p.Topic)

			for w := 0; w < p.Workers; w++ {
				wp := fmt.Sprintf(`{"model":%q,"seed":%d,"task":"angle %d: %s","ios":%d,"think_tokens":%d,"topic":%q}`,
					p.Model, p.Seed+uint64(w), w, p.Task, p.IOsPerWorker, p.ThinkTokens, p.Topic)
				if _, err := s.Spawn("agent_swarm_worker", []string{wp}); err != nil {
					return err
				}
			}
			var parts []string
			for w := 0; w < p.Workers; w++ {
				msg, err := sub.Recv().Get()
				if err != nil {
					return err
				}
				parts = append(parts, msg)
			}

			// Synthesize.
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			ctx, err := support.NewContext(s, m)
			if err != nil {
				return err
			}
			defer ctx.Drop()
			if err := ctx.Fill(p.Task + strings.Join(parts, " ")); err != nil {
				return err
			}
			res, err := ctx.Generate(support.GenOpts{MaxTokens: p.ThinkTokens * 2})
			if err != nil {
				return err
			}
			s.Send("swarm:" + res.Text)
			return ctx.Sync()
		},
	}
}

// swarmWorkerParams configures one swarm worker.
type swarmWorkerParams struct {
	Common
	Task        string `json:"task"`
	IOs         int    `json:"ios"`
	ThinkTokens int    `json:"think_tokens"`
	Topic       string `json:"topic"`
}

// AgentSwarmWorker is the sub-agent of AgentSwarm.
func AgentSwarmWorker() inferlet.Program {
	return inferlet.Program{
		Name:       "agent_swarm_worker",
		BinarySize: 135 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p swarmWorkerParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.IOs <= 0 {
				p.IOs = 8
			}
			if p.ThinkTokens <= 0 {
				p.ThinkTokens = 16
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
			if err := ctx.Fill(p.Task); err != nil {
				return err
			}
			for i := 0; i < p.IOs; i++ {
				if _, err := ctx.Generate(support.GenOpts{MaxTokens: p.ThinkTokens}); err != nil {
					return err
				}
				resp, err := s.HTTPGet(fmt.Sprintf("http://search.api/q?worker&io=%d", i)).Get()
				if err != nil {
					return err
				}
				if err := ctx.FillPadded(resp, 8); err != nil {
					return err
				}
			}
			res, err := ctx.Generate(support.GenOpts{MaxTokens: p.ThinkTokens})
			if err != nil {
				return err
			}
			if err := ctx.Sync(); err != nil {
				return err
			}
			s.Broadcast(p.Topic, res.Text)
			return nil
		},
	}
}

// FnCallParams configures the Fig. 7 function-calling agent.
type FnCallParams struct {
	Common
	NumAPIs     int `json:"num_apis"`    // API specs in the system prompt
	SpecTokens  int `json:"spec_tokens"` // tokens per spec (page-aligned)
	HotAPIs     int `json:"hot_apis"`    // frequently-used specs (cacheable)
	Calls       int `json:"calls"`       // function calls to make
	ThinkTokens int `json:"think_tokens"`

	// The three stackable optimizations of §7.2:
	OptCache bool `json:"opt_cache"` // #1 export/import hot spec KV
	OptAsync bool `json:"opt_async"` // #2 fire-and-forget concurrent calls
	OptMask  bool `json:"opt_mask"`  // #3 drop single-use spec KV
}

// FunctionCallAgent is the workload behind Fig. 7: a system prompt of API
// specifications followed by a loop of think→call steps. Each optimization
// exploits one workload property the serving system cannot know:
// #1 hot specs are shared across agents (export/import beats re-prefill),
// #2 most calls are fire-and-forget (no need to await responses),
// #3 cold specs are used once (mask + free their KV after use).
func FunctionCallAgent() inferlet.Program {
	return inferlet.Program{
		Name:       "fncall_agent",
		BinarySize: 140 << 10,
		Manifest:   manifest(api.TraitTokenize, api.TraitOutputText),
		Run: func(s inferlet.Session) error {
			var p FnCallParams
			if err := decodeParams(s, &p); err != nil {
				return err
			}
			if p.NumAPIs <= 0 {
				p.NumAPIs = 8
			}
			if p.HotAPIs <= 0 {
				p.HotAPIs = 2
			}
			if p.Calls <= 0 {
				p.Calls = 8
			}
			if p.ThinkTokens <= 0 {
				p.ThinkTokens = 12
			}
			m, err := modelInfo(s, p.Model)
			if err != nil {
				return err
			}
			if p.SpecTokens <= 0 {
				p.SpecTokens = 4 * m.PageSize
			}
			p.SpecTokens = (p.SpecTokens + m.PageSize - 1) / m.PageSize * m.PageSize

			ctx, err := support.NewContext(s, m)
			if err != nil {
				return err
			}
			defer ctx.Drop()

			// System prompt: hot specs first (as pinned shared KV when
			// cached), then per-agent cold specs.
			var pinned []api.KvPage
			basePos := 0
			if p.OptCache {
				alloc := ctx.Alloc()
				for h := 0; h < p.HotAPIs; h++ {
					key := fmt.Sprintf("apispec:%d:%d", h, p.SpecTokens)
					if !alloc.HasExport(key) {
						if err := cacheModule(ctx.Q, m,
							Module{Name: key, Text: specText(h)},
							h*p.SpecTokens, p.SpecTokens, key); err != nil {
							return err
						}
					}
					pages, err := alloc.Import(key)
					if err != nil {
						return err
					}
					pinned = append(pinned, pages...)
					basePos += p.SpecTokens
				}
				if _, err := support.ComposeContext(ctx, pinned, basePos); err != nil {
					return err
				}
			}
			coldStart := p.HotAPIs
			if !p.OptCache {
				coldStart = 0
			}
			specRange := make(map[int][2]int) // spec -> [fromSlot, toSlot)
			for a := coldStart; a < p.NumAPIs; a++ {
				from := ctx.Slots()
				if err := ctx.FillPadded(specText(a), p.SpecTokens); err != nil {
					return err
				}
				specRange[a] = [2]int{from, ctx.Slots()}
			}
			if err := ctx.Fill(" user query: run the workflow "); err != nil {
				return err
			}

			// Call loop.
			var lastCall api.Future[string]
			for call := 0; call < p.Calls; call++ {
				if _, err := ctx.Generate(support.GenOpts{MaxTokens: p.ThinkTokens}); err != nil {
					return err
				}
				target := call % p.NumAPIs
				fut := s.HTTPGet(fmt.Sprintf("http://fn.api/%d?call=%d", target, call))
				if p.OptAsync {
					lastCall = fut // fire-and-forget; keep only the last
				} else {
					resp, err := fut.Get()
					if err != nil {
						return err
					}
					if err := ctx.FillPadded(" result: "+resp, 8); err != nil {
						return err
					}
				}
				// A cold spec was consumed: mask and free its KV.
				if p.OptMask {
					if r, used := specRange[target]; used && target >= coldStart {
						if err := ctx.MaskRange(r[0], r[1], true); err != nil {
							return err
						}
						if _, err := ctx.ReleaseMaskedPages([][2]int{r}); err != nil {
							return err
						}
						delete(specRange, target)
					}
				}
			}
			if p.OptAsync && lastCall != nil {
				// Only the final call's completion gates the answer.
				if _, err := lastCall.Get(); err != nil {
					return err
				}
			}
			final, err := ctx.Generate(support.GenOpts{MaxTokens: p.ThinkTokens})
			if err != nil {
				return err
			}
			s.Send("fncall:" + final.Text)
			return ctx.Sync()
		},
	}
}

// specText synthesizes an API specification document.
func specText(i int) string {
	return fmt.Sprintf("api %d spec: function call with args and return value documentation for tool number %d. ", i, i)
}

package eval

import (
	"fmt"
	"time"

	"pie/apps"
	"pie/internal/baseline"
	"pie/internal/metrics"
	"pie/internal/netsim"
	"pie/internal/sim"
)

// Figure 8: normalized latency and throughput of eleven inference
// techniques across Pie, vLLM, SGLang, LMQL, and StreamingLLM. Paper:
// Pie matches the state of the art on standard tasks (3–12% overhead on
// text completion) and wins on deliberate prompting (−28% latency, +34%
// throughput) and attention-level techniques (1.5×/30× vs StreamingLLM).
// Unsupported (technique, system) pairs are ×.

// Fig8Row is one cell of the grid.
type Fig8Row struct {
	Technique  string
	System     string
	Latency    time.Duration
	Throughput float64
	Supported  bool
}

// Fig8Result is the full grid.
type Fig8Result struct {
	Techniques []string
	Systems    []string
	Rows       []Fig8Row
}

type fig8Runner func(o Options, total, concurrency int) loadResult

// Figure8 runs every supported cell.
func Figure8(o Options) Fig8Result {
	out := Fig8Result{
		Techniques: []string{"textcomp", "prefixtree", "tot", "rot", "got", "skot",
			"cache", "ebnf", "specdec", "beam", "attnsink"},
		Systems: []string{"pie", "vllm", "sglang", "lmql", "streamingllm"},
	}
	latConc := 2
	thptConc := o.scale(32, 12)
	totalLat := latConc * 3
	totalThpt := o.scale(64, 18)

	// All 55 grid cells are independent; fan them out and fill rows by
	// index so the table reads identically to a serial run.
	out.Rows = make([]Fig8Row, len(out.Techniques)*len(out.Systems))
	parallelFor(len(out.Rows), func(i int) {
		tech := out.Techniques[i/len(out.Systems)]
		sys := out.Systems[i%len(out.Systems)]
		runner := fig8Cell(tech, sys)
		if runner == nil {
			out.Rows[i] = Fig8Row{Technique: tech, System: sys}
			return
		}
		lat := runner(o, totalLat, latConc)
		thp := runner(o, totalThpt, thptConc)
		out.Rows[i] = Fig8Row{
			Technique: tech, System: sys, Supported: true,
			Latency: lat.Latency.Mean(), Throughput: thp.Throughput(),
		}
	})
	return out
}

// Workload shapes per technique (1B model throughout, matching §7.2-7.3).
const (
	f8PromptLen = 256
	f8GenLen    = 64
	f8Branches  = 4
	f8Branch    = 24
)

var f8Prompt = func() string {
	s := ""
	for i := 0; i < 40; i++ {
		s += "the story of the system continues with more events and people "
	}
	return s[:900] // ≈ 256 tokens after lexicon compression
}()

// fig8Cell returns the runner for (technique, system), nil when the pair
// is unsupported (× in the figure).
func fig8Cell(tech, sys string) fig8Runner {
	pieApp := func(app string, params interface{}) fig8Runner {
		return func(o Options, total, conc int) loadResult {
			e := newPieEngine(o.seed(), nil)
			blob := marshalParams(params)
			return runPieLoad(e, app, func(int) string { return blob }, total, conc)
		}
	}
	bl := func(cfg baseline.Config, wf baselineWorkflow) fig8Runner {
		return func(o Options, total, conc int) loadResult {
			return runBaselineLoad(cfg, wf, total, conc, o.seed())
		}
	}
	simpleGen := func(promptLen, gen int, opts func(*baseline.Request)) baselineWorkflow {
		return func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
			r := &baseline.Request{Prompt: syntheticTokens(rng, promptLen), MaxTokens: gen,
				Script: syntheticTokens(rng, gen)}
			if opts != nil {
				opts(r)
			}
			c.GenerateOpts(r)
		}
	}

	switch tech + "/" + sys {
	// --- Text completion: everything but StreamingLLM.
	case "textcomp/pie":
		return pieApp("text_completion", apps.CompletionParams{Prompt: f8Prompt, MaxTokens: f8GenLen})
	case "textcomp/vllm":
		return bl(baseline.Config{Kind: baseline.VLLM, ModelLabel: "1B"}, simpleGen(f8PromptLen, f8GenLen, nil))
	case "textcomp/sglang":
		return bl(baseline.Config{Kind: baseline.SGLang, ModelLabel: "1B"}, simpleGen(f8PromptLen, f8GenLen, nil))
	case "textcomp/lmql":
		return bl(baseline.Config{Kind: baseline.LMQL, ModelLabel: "1B"}, simpleGen(f8PromptLen, f8GenLen, nil))

	// --- Prefix-tree branching: Pie and SGLang (RadixAttention).
	case "prefixtree/pie":
		return pieApp("prefix_tree", apps.PrefixTreeParams{Prompt: f8Prompt, Branches: f8Branches, BranchTokens: f8Branch})
	case "prefixtree/sglang":
		return bl(baseline.Config{Kind: baseline.SGLang, ModelLabel: "1B"},
			func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
				c.GenerateFork(syntheticTokens(rng, f8PromptLen), f8Branches, f8Branch, nil)
			})

	// --- ToT: Pie and SGLang (fork/join per level).
	case "tot/pie":
		return pieApp("tot", apps.TreeParams{Depth: 3, Branch: 3, ThinkTokens: 24})
	case "tot/sglang":
		return bl(baseline.Config{Kind: baseline.SGLang, ModelLabel: "1B"},
			func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
				ctx := syntheticTokens(rng, 32)
				for level := 0; level < 3; level++ {
					outs := c.GenerateFork(ctx, 3, 24, nil)
					best := outs[rng.Intn(len(outs))]
					ctx = append(ctx, best...)
				}
				c.Generate(ctx, 24, nil)
			})

	// --- RoT: Pie; client script on vLLM (no native support anywhere).
	case "rot/pie":
		return pieApp("rot", apps.RecursionParams{Depth: 3, Branch: 2, DivideTokens: 12, SolveTokens: 16})
	case "rot/vllm":
		return bl(baseline.Config{Kind: baseline.VLLM, ModelLabel: "1B"},
			func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
				var solve func(ctx []int, depth int) []int
				solve = func(ctx []int, depth int) []int {
					if depth == 0 {
						return c.Generate(ctx, 16, nil)
					}
					div := c.Generate(ctx, 12, nil)
					ctx = append(ctx, div...)
					for b := 0; b < 2; b++ {
						sub := append(syntheticTokens(rng, 8), div...)
						ans := solve(sub, depth-1)
						ctx = append(ctx, ans...)
					}
					return c.Generate(ctx, 16, nil)
				}
				solve(syntheticTokens(rng, 32), 3)
			})

	// --- GoT: Pie; client script on vLLM.
	case "got/pie":
		return pieApp("got", apps.GraphParams{NumChunks: 4, ChunkTokens: 24, MergeTokens: 16})
	case "got/vllm":
		return bl(baseline.Config{Kind: baseline.VLLM, ModelLabel: "1B"},
			func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
				var summaries [][]int
				for i := 0; i < 4; i++ {
					s := c.Generate(syntheticTokens(rng, 48), 24, nil)
					summaries = append(summaries, s)
				}
				for len(summaries) > 1 {
					var next [][]int
					for i := 0; i+1 < len(summaries); i += 2 {
						merged := append(append([]int(nil), summaries[i]...), summaries[i+1]...)
						next = append(next, c.Generate(merged, 16, nil))
					}
					if len(summaries)%2 == 1 {
						next = append(next, summaries[len(summaries)-1])
					}
					summaries = next
				}
			})

	// --- SkoT: Pie and SGLang.
	case "skot/pie":
		return pieApp("skot", apps.SkeletonParams{Points: 4, SkeletonTokens: 20, ExpandTokens: 24})
	case "skot/sglang":
		return bl(baseline.Config{Kind: baseline.SGLang, ModelLabel: "1B"},
			func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
				ctx := syntheticTokens(rng, 32)
				skel := c.Generate(ctx, 20, nil)
				ctx = append(ctx, skel...)
				c.GenerateFork(ctx, 4, 24, nil)
			})

	// --- Prefix caching: Pie, vLLM (hash), SGLang (radix).
	case "cache/pie":
		return func(o Options, total, conc int) loadResult {
			e := newPieEngine(o.seed(), nil)
			return runPieLoad(e, "prefix_caching", func(task int) string {
				return marshalParams(apps.PrefixCachingParams{
					SharedPrefix: f8Prompt, Prompt: fmt.Sprintf("query %d ", task), MaxTokens: 16,
				})
			}, total, conc)
		}
	case "cache/vllm", "cache/sglang":
		kind := baseline.VLLM
		if sys == "sglang" {
			kind = baseline.SGLang
		}
		return bl(baseline.Config{Kind: kind, ModelLabel: "1B"},
			func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
				shared := syntheticTokens(sim.NewRNG(0xCAFE), f8PromptLen)
				prompt := append(append([]int(nil), shared...), syntheticTokens(rng, 8)...)
				c.Generate(prompt, 16, nil)
			})

	// --- EBNF structured generation: Pie, vLLM, SGLang, LMQL.
	case "ebnf/pie":
		return pieApp("ebnf", apps.EBNFParams{MaxTokens: 40})
	case "ebnf/vllm", "ebnf/sglang", "ebnf/lmql":
		kind := map[string]baseline.Kind{"vllm": baseline.VLLM, "sglang": baseline.SGLang, "lmql": baseline.LMQL}[sys]
		return bl(baseline.Config{Kind: kind, ModelLabel: "1B"},
			simpleGen(16, 40, func(r *baseline.Request) { r.Guided = true }))

	// --- Speculative decoding (n-gram prompt lookup): Pie and vLLM.
	case "specdec/pie":
		return pieApp("specdec", apps.SpecDecodeParams{MaxTokens: f8GenLen, DraftLen: 4, Oracle: true, AcceptRate: 0.7})
	case "specdec/vllm":
		return bl(baseline.Config{Kind: baseline.VLLM, ModelLabel: "1B", SpecDecode: true, SpecDraftLen: 4, SpecAcceptRate: 0.7},
			simpleGen(f8PromptLen, f8GenLen, nil))

	// --- Beam search: Pie, vLLM, LMQL.
	case "beam/pie":
		return pieApp("beam", apps.BeamParams{Width: 3, Steps: 32})
	case "beam/vllm", "beam/lmql":
		kind := baseline.VLLM
		if sys == "lmql" {
			kind = baseline.LMQL
		}
		return bl(baseline.Config{Kind: kind, ModelLabel: "1B"},
			simpleGen(32, 32, func(r *baseline.Request) { r.BeamWidth = 3 }))

	// --- Attention sink: Pie and StreamingLLM.
	case "attnsink/pie":
		return pieApp("attention_sink", apps.SinkParams{MaxTokens: 256, SinkTokens: 4, WindowSize: 128, ReleaseKv: true})
	case "attnsink/streamingllm":
		return bl(baseline.Config{Kind: baseline.StreamingLLM, ModelLabel: "1B", SinkWindow: 132},
			simpleGen(32, 256, nil))
	}
	return nil
}

// Table renders normalized latency and throughput per technique.
func (r Fig8Result) Table() string {
	t := &metrics.Table{
		Title:  "Figure 8: techniques across serving systems (normalized; x = unsupported)",
		Header: []string{"technique", "system", "latency", "lat ratio", "tasks/s", "thpt ratio"},
	}
	worstLat := map[string]time.Duration{}
	bestThp := map[string]float64{}
	for _, row := range r.Rows {
		if !row.Supported {
			continue
		}
		if row.Latency > worstLat[row.Technique] {
			worstLat[row.Technique] = row.Latency
		}
		if row.Throughput > bestThp[row.Technique] {
			bestThp[row.Technique] = row.Throughput
		}
	}
	for _, row := range r.Rows {
		if !row.Supported {
			t.AddRow(row.Technique, row.System, "x", "x", "x", "x")
			continue
		}
		t.AddRow(row.Technique, row.System, metrics.Ms(row.Latency),
			fmt.Sprintf("%.2f", float64(row.Latency)/float64(worstLat[row.Technique])),
			fmt.Sprintf("%.2f", row.Throughput),
			fmt.Sprintf("%.2f", row.Throughput/bestThp[row.Technique]))
	}
	return t.String()
}

// Get returns the cell for (technique, system).
func (r Fig8Result) Get(tech, sys string) (Fig8Row, bool) {
	for _, row := range r.Rows {
		if row.Technique == tech && row.System == sys {
			return row, row.Supported
		}
	}
	return Fig8Row{}, false
}

// Headline is the figure's gated cells.
func (r Fig8Result) Headline() map[string]float64 {
	h := map[string]float64{}
	if pieTC, ok := r.Get("textcomp", "pie"); ok {
		h["textcomp-pie-ms"] = ms(pieTC.Latency)
	}
	if vllmTC, ok := r.Get("textcomp", "vllm"); ok {
		h["textcomp-vllm-ms"] = ms(vllmTC.Latency)
	}
	pieAS, okA := r.Get("attnsink", "pie")
	sllm, okB := r.Get("attnsink", "streamingllm")
	if okA && okB && sllm.Throughput > 0 {
		h["attnsink-speedup-x"] = pieAS.Throughput / sllm.Throughput
	}
	return h
}

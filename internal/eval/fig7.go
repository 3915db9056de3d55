package eval

import (
	"fmt"

	"pie/apps"
	"pie/internal/baseline"
	"pie/internal/metrics"
	"pie/internal/netsim"
	"pie/internal/sim"
)

// Figure 7: throughput of the function-calling agent versus the number of
// concurrent agents, with Pie's application-level optimizations stacked:
// baseline vLLM client, Pie (no opts), +Cache (#1 export/import of hot
// API-spec KV), +Call (#2 fire-and-forget concurrent tool calls),
// +Mask (#3 drop single-use spec KV). Paper: 3.5× vLLM at 128 agents.
//
// The 8B model makes KV capacity bind at high agent counts, which is what
// gives optimization #3 its lever (DESIGN.md §4).

// Fig7Series is one line of the figure.
type Fig7Series struct {
	Label      string
	AgentCount []int
	Throughput []float64 // agents/s
}

// Fig7Result holds all five lines.
type Fig7Result struct {
	Series []Fig7Series
}

// Function-calling workload shape (§7.2). API documentation is bulky —
// 256 tokens per spec, 8 specs — so at high agent counts the 8B model's
// KV capacity binds, which is the lever behind optimizations #1 and #3.
const (
	fnNumAPIs  = 8
	fnHotAPIs  = 2
	fnSpecToks = 256 // 16 pages per spec
	fnCalls    = 8
	fnThink    = 12
)

// Figure7 sweeps agent counts for every configuration.
func Figure7(o Options) Fig7Result {
	counts := []int{1, 16, 32, 64, 96, 128}
	if o.Quick {
		counts = []int{1, 16, 48}
	}
	configs := []struct {
		label              string
		system             string
		cache, async, mask bool
	}{
		{"vllm (baseline)", "vllm", false, false, false},
		{"pie (baseline)", "pie", false, false, false},
		{"+ cache (#1)", "pie", true, false, false},
		{"+ call (#2)", "pie", true, true, false},
		{"+ mask (#3)", "pie", true, true, true},
	}
	// Flatten the (config, agent count) grid: every sweep point is an
	// independent simulation, so all of them fan out together.
	var out Fig7Result
	for _, cfg := range configs {
		out.Series = append(out.Series, Fig7Series{
			Label:      cfg.label,
			AgentCount: counts,
			Throughput: make([]float64, len(counts)),
		})
	}
	parallelFor(len(configs)*len(counts), func(i int) {
		cfg := configs[i/len(counts)]
		ci := i % len(counts)
		n := counts[ci]
		total := n * 2
		if total < 8 {
			total = 8
		}
		var res loadResult
		if cfg.system == "pie" {
			params := marshalParams(apps.FnCallParams{
				Common:  apps.Common{Model: "llama-8b"},
				NumAPIs: fnNumAPIs, HotAPIs: fnHotAPIs, SpecTokens: fnSpecToks,
				Calls: fnCalls, ThinkTokens: fnThink,
				OptCache: cfg.cache, OptAsync: cfg.async, OptMask: cfg.mask,
			})
			e := newPieEngine(o.seed(), nil)
			res = runPieLoad(e, "fncall_agent", func(int) string { return params }, total, n)
		} else {
			res = runBaselineLoad(
				baseline.Config{Kind: baseline.VLLM, ModelLabel: "8B"},
				baselineFnCall(), total, n, o.seed())
		}
		out.Series[i/len(counts)].Throughput[ci] = res.Throughput()
	})
	return out
}

// baselineFnCall is the client-orchestrated function-calling workflow:
// the spec prompt is resent per generation (prefix cache mitigates), each
// call awaits its tool round trip at the client.
func baselineFnCall() baselineWorkflow {
	return func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
		// All agents share the hot spec tokens; cold specs are per-agent.
		hotRng := sim.NewRNG(0x5EEC)
		ctx := syntheticTokens(hotRng, fnHotAPIs*fnSpecToks)
		ctx = append(ctx, syntheticTokens(rng, (fnNumAPIs-fnHotAPIs)*fnSpecToks)...)
		ctx = append(ctx, syntheticTokens(rng, 8)...) // user query
		for call := 0; call < fnCalls; call++ {
			out := c.Generate(ctx, fnThink, syntheticTokens(rng, fnThink))
			ctx = append(ctx, out...)
			resp, _ := w.Call("http://fn.api/x", "call").Get()
			_ = resp
			ctx = append(ctx, syntheticTokens(rng, 8)...)
		}
		c.Generate(ctx, fnThink, syntheticTokens(rng, fnThink))
	}
}

// Table renders the sweep.
func (r Fig7Result) Table() string {
	t := &metrics.Table{Title: "Figure 7: function-calling agent throughput (agents/s, 8B model)"}
	t.Header = []string{"config"}
	if len(r.Series) > 0 {
		for _, n := range r.Series[0].AgentCount {
			t.Header = append(t.Header, fmt.Sprintf("%d ag", n))
		}
	}
	for _, s := range r.Series {
		row := []string{s.Label}
		for _, v := range s.Throughput {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.AddRow(row...)
	}
	// The headline ratio.
	if base := r.find("vllm (baseline)"); base != nil {
		if full := r.find("+ mask (#3)"); full != nil {
			n := len(base.Throughput) - 1
			t.Title += fmt.Sprintf("\n  (max-agents speedup over vLLM: %.2fx; paper: 3.5x)",
				full.Throughput[n]/base.Throughput[n])
		}
	}
	return t.String()
}

func (r Fig7Result) find(label string) *Fig7Series {
	for i := range r.Series {
		if r.Series[i].Label == label {
			return &r.Series[i]
		}
	}
	return nil
}

// Headline is the figure's gated numbers: the first (vLLM) and last (every
// optimization) series at the largest agent count.
func (r Fig7Result) Headline() map[string]float64 {
	h := map[string]float64{}
	if len(r.Series) > 0 {
		base := r.Series[0]
		full := r.Series[len(r.Series)-1]
		last := len(base.Throughput) - 1
		h["vllm-agents-per-sec"] = base.Throughput[last]
		h["pie-full-agents-per-sec"] = full.Throughput[last]
		h["speedup-x"] = full.Throughput[last] / base.Throughput[last]
	}
	return h
}

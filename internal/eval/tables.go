package eval

import (
	"fmt"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/baseline"
	"pie/internal/metrics"
	"pie/internal/netsim"
	"pie/internal/sim"
)

// Table 2: the application inventory. LoC figures are the paper's
// reported implementation sizes; binary sizes come from our program
// registrations (they drive the launch-cost model).

// Table2Row is one inventory entry.
type Table2Row struct {
	Technique    string
	Requirements string
	PaperLoC     int
	BinaryBytes  int
	Supported    string
}

// Table2Result is the inventory.
type Table2Result struct{ Rows []Table2Row }

// Table2 assembles the inventory from the registered programs.
func Table2() Table2Result {
	meta := []struct {
		name, tech, reqs, sup string
		loc                   int
	}{
		{"text_completion", "Text completion", "", "V, S, L", 38},
		{"tot", "ToT", "R1, R3", "S", 198},
		{"rot", "RoT", "R1, R3", "", 106},
		{"got", "GoT", "R1, R3", "", 87},
		{"skot", "SKoT", "R1, R3", "S", 82},
		{"prefix_caching", "Prefix caching", "R1", "V, S", 45},
		{"modular_caching", "Modular caching", "R1", "", 72},
		{"ebnf", "EBNF decoding", "R2", "V, S, L", 225},
		{"beam", "Beam search", "R2", "V, L", 98},
		{"watermarking", "Watermarking", "R2", "", 43},
		{"output_validation", "Output validation", "R2", "", 52},
		{"specdec", "Speculative decoding", "R2", "V", 255},
		{"jacobi", "Jacobi decoding", "R2", "", 88},
		{"attention_sink", "Attention sink", "R1", "StreamingLLM", 60},
		{"windowed_attention", "Windowed attn.", "R1", "", 60},
		{"hierarchical_attention", "Hierarchical attn.", "R1", "", 42},
		{"agent_react", "Agent-ReACT", "All", "", 60},
		{"agent_codeact", "Agent-CodeACT", "All", "", 62},
		{"agent_swarm", "Agent-SWARM", "All", "", 95},
	}
	sizes := map[string]int{}
	for _, p := range apps.All() {
		sizes[p.Name] = p.BinarySize
	}
	var out Table2Result
	for _, m := range meta {
		out.Rows = append(out.Rows, Table2Row{
			Technique: m.tech, Requirements: m.reqs, PaperLoC: m.loc,
			BinaryBytes: sizes[m.name], Supported: m.sup,
		})
	}
	return out
}

// Table renders the inventory.
func (r Table2Result) Table() string {
	t := &metrics.Table{
		Title:  "Table 2: applications implemented as inferlets",
		Header: []string{"technique", "R1-3", "paper LoC", "binary", "also supported by"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Technique, row.Requirements, fmt.Sprintf("%d", row.PaperLoC),
			fmt.Sprintf("%d KB", row.BinaryBytes>>10), row.Supported)
	}
	return t.String()
}

// Table 3: the opportunity cost of the decomposed programming model at
// 8B with 32 concurrent inferlets. Paper: vLLM 64.06 ms → Pie 65.59 ms,
// dominated by the non-pipelined sampling kernel (+1.32 ms).

// Table3Result itemizes the overheads.
type Table3Result struct {
	VLLMTPOT           time.Duration
	PieTPOT            time.Duration
	SamplingGap        time.Duration // lack of pipelined sampling
	EmbedGap           time.Duration // lack of pipelined input embedding
	SchedOverhead      time.Duration
	DistReturnOverhead time.Duration
	IPCBoundary        time.Duration
	AppBoundary        time.Duration
	WasmOverhead       time.Duration
}

const (
	t3Model      = "llama-8b"
	t3ModelLabel = "8B"
	t3Conc       = 32
	t3PromptLen  = 128
)

// tpotGens returns the two generation lengths for slope-based TPOT:
// measuring latency at both and dividing the difference by the extra
// tokens excludes launch, prefill, and ramp-up — the decode-only time per
// output token the paper reports.
func tpotGens(quick bool) (lo, hi int) {
	if quick {
		return 4, 20
	}
	return 8, 48
}

// pieTPOT measures Pie's decode-only time per output token for one
// completion-app variant under 32 concurrent inferlets. paramsFor builds
// the app parameters for a given generation length.
func pieTPOT(seed uint64, app string, paramsFor func(gen int) interface{}, mutate func(*pie.Config), quick bool) time.Duration {
	lo, hi := tpotGens(quick)
	run := func(gen int) time.Duration {
		e := newPieEngine(seed, mutate)
		blob := marshalParams(paramsFor(gen))
		res := runPieLoad(e, app, func(int) string { return blob }, t3Conc, t3Conc)
		return res.Latency.Mean()
	}
	return slopeTPOT(lo, hi, run)
}

func vllmTPOT(seed uint64, label string, quick bool) time.Duration {
	lo, hi := tpotGens(quick)
	run := func(gen int) time.Duration {
		res := runBaselineLoad(baseline.Config{Kind: baseline.VLLM, ModelLabel: label},
			func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
				c.Generate(syntheticTokens(rng, t3PromptLen), gen, nil)
			}, t3Conc, t3Conc, seed)
		return res.Latency.Mean()
	}
	return slopeTPOT(lo, hi, run)
}

// slopeTPOT measures run at both generation lengths (the two legs are
// independent engines, so they run concurrently) and returns the latency
// slope per extra token.
func slopeTPOT(lo, hi int, run func(gen int) time.Duration) time.Duration {
	var loT, hiT time.Duration
	parallelFor(2, func(i int) {
		if i == 0 {
			hiT = run(hi)
		} else {
			loT = run(lo)
		}
	})
	return (hiT - loT) / time.Duration(hi-lo)
}

// Table3 measures the ablation ladder.
func Table3(o Options) Table3Result {
	prompt := f8Prompt[:400] // ≈128 tokens
	std := func(gen int) interface{} {
		return apps.CompletionParams{Common: apps.Common{Model: t3Model}, Prompt: prompt, MaxTokens: gen}
	}
	fusedSample := func(gen int) interface{} {
		return apps.FusedCompletionParams{Common: apps.Common{Model: t3Model}, Prompt: prompt, MaxTokens: gen}
	}
	fullFused := func(gen int) interface{} {
		return apps.FusedCompletionParams{Common: apps.Common{Model: t3Model}, Prompt: prompt, MaxTokens: gen, FuseEmbed: true}
	}

	// The six TPOT measurements (five Pie variants plus the vLLM anchor)
	// are independent ladders; fan them out.
	var tpotStd, tpotFusedSample, tpotFullFused, tpotNoSched, tpotNoDist, tpotVLLM time.Duration
	measurements := []func(){
		func() { tpotStd = pieTPOT(o.seed(), "text_completion", std, nil, o.Quick) },
		func() { tpotFusedSample = pieTPOT(o.seed(), "text_completion_fused", fusedSample, nil, o.Quick) },
		func() { tpotFullFused = pieTPOT(o.seed(), "text_completion_fused", fullFused, nil, o.Quick) },
		func() {
			tpotNoSched = pieTPOT(o.seed(), "text_completion", std, func(c *pie.Config) {
				c.NoSchedOverhead = true
			}, o.Quick)
		},
		func() {
			tpotNoDist = pieTPOT(o.seed(), "text_completion", std, func(c *pie.Config) {
				c.NoDistReturnOverhead = true
			}, o.Quick)
		},
		func() { tpotVLLM = vllmTPOT(o.seed(), t3ModelLabel, o.Quick) },
	}
	parallelFor(len(measurements), func(i int) { measurements[i]() })

	clampPos := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		return d
	}
	return Table3Result{
		VLLMTPOT:           tpotVLLM,
		PieTPOT:            tpotStd,
		SamplingGap:        clampPos(tpotStd - tpotFusedSample),
		EmbedGap:           clampPos(tpotFusedSample - tpotFullFused),
		SchedOverhead:      clampPos(tpotStd - tpotNoSched),
		DistReturnOverhead: clampPos(tpotStd - tpotNoDist),
		IPCBoundary:        6 * time.Microsecond,
		AppBoundary:        time.Microsecond,
		WasmOverhead:       time.Microsecond,
	}
}

// Table renders the itemization.
func (r Table3Result) Table() string {
	t := &metrics.Table{
		Title:  "Table 3: opportunity cost of the programming model (8B, 32 inferlets)",
		Header: []string{"component", "latency"},
	}
	t.AddRow("Text completion TPOT (vLLM sim)", metrics.Ms(r.VLLMTPOT))
	t.AddRow("Lack of pipelined sampling on GPU", "+"+metrics.Ms(r.SamplingGap))
	t.AddRow("Lack of pipelined input embedding", "+"+metrics.Ms(r.EmbedGap))
	t.AddRow("Control layer batch scheduling", "+"+metrics.Ms(r.SchedOverhead))
	t.AddRow("Returning output distribution", "+"+metrics.Ms(r.DistReturnOverhead))
	t.AddRow("Boundary crossing (control-inference)", "+"+metrics.Ms(r.IPCBoundary))
	t.AddRow("Boundary crossing (app-control)", "+"+metrics.Ms(r.AppBoundary))
	t.AddRow("Wasm processing overhead", "+"+metrics.Ms(r.WasmOverhead))
	t.AddRow("Text completion TPOT (Pie)", metrics.Ms(r.PieTPOT))
	return t.String()
}

// Table 4: TPOT and relative overhead across model sizes. Paper:
// 64.06→65.59 ms (8B, 2.39%), 30.30→32.01 (3B, 5.64%), 16.83→18.75
// (1B, 11.41%).

// Table4Row is one model size.
type Table4Row struct {
	Params   string
	VLLM     time.Duration
	Pie      time.Duration
	Overhead time.Duration
	Percent  float64
}

// Table4Result holds all sizes.
type Table4Result struct{ Rows []Table4Row }

// Table4 measures TPOT for 1B/3B/8B; the six (model, system) ladders fan
// out in parallel.
func Table4(o Options) Table4Result {
	models := []struct{ id, label string }{
		{"llama-8b", "8B"}, {"llama-3b", "3B"}, {"llama-1b", "1B"},
	}
	pieT := make([]time.Duration, len(models))
	vllmT := make([]time.Duration, len(models))
	parallelFor(2*len(models), func(i int) {
		m := models[i/2]
		if i%2 == 0 {
			params := func(gen int) interface{} {
				return apps.CompletionParams{Common: apps.Common{Model: m.id}, Prompt: f8Prompt[:400], MaxTokens: gen}
			}
			pieT[i/2] = pieTPOT(o.seed(), "text_completion", params, nil, o.Quick)
		} else {
			vllmT[i/2] = vllmTPOT(o.seed(), m.label, o.Quick)
		}
	})
	var out Table4Result
	for i, m := range models {
		out.Rows = append(out.Rows, Table4Row{
			Params: m.label, VLLM: vllmT[i], Pie: pieT[i],
			Overhead: pieT[i] - vllmT[i],
			Percent:  100 * float64(pieT[i]-vllmT[i]) / float64(vllmT[i]),
		})
	}
	return out
}

// Table renders the comparison.
func (r Table4Result) Table() string {
	t := &metrics.Table{
		Title:  "Table 4: TPOT by model size (32 concurrent inferlets)",
		Header: []string{"params", "vLLM", "Pie", "overhead", "%"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Params, metrics.Ms(row.VLLM), metrics.Ms(row.Pie),
			metrics.Ms(row.Overhead), fmt.Sprintf("%.2f%%", row.Percent))
	}
	return t.String()
}

// Table 5: throughput across batching strategies under a saturated
// scheduler with 128 concurrent inferlets. Paper: Eager 5.61, K-only
// 30.09, T-only 78.11, Adaptive 84.85 requests/s.

// Table5Row is one policy.
type Table5Row struct {
	Policy     string
	Throughput float64 // requests/s
}

// Table5Result holds all four.
type Table5Result struct{ Rows []Table5Row }

// Table5 runs the policy comparison (1B, 40-token completions).
func Table5(o Options) Table5Result {
	conc := o.scale(128, 48)
	total := o.scale(384, 96)
	gen := 40
	params := marshalParams(apps.CompletionParams{Prompt: f8Prompt[:200], MaxTokens: gen})
	policies := []struct {
		name   string
		policy pie.Policy
	}{
		{"Eager", pie.PolicyEager},
		{"K-only", pie.PolicyKOnly},
		{"T-only", pie.PolicyTOnly},
		{"Adaptive", pie.PolicyAdaptive},
	}
	out := Table5Result{Rows: make([]Table5Row, len(policies))}
	parallelFor(len(policies), func(i int) {
		pol := policies[i]
		totalHere := total
		if pol.policy == pie.PolicyEager {
			// Eager is an order of magnitude slower; keep runtime sane
			// while measuring steady-state throughput.
			totalHere = o.scale(128, 48)
		}
		e := newPieEngine(o.seed(), func(c *pie.Config) { c.Policy = pol.policy })
		res := runPieLoad(e, "text_completion", func(int) string { return params }, totalHere, conc)
		out.Rows[i] = Table5Row{Policy: pol.name, Throughput: res.Throughput()}
	})
	return out
}

// Table renders the policy comparison.
func (r Table5Result) Table() string {
	t := &metrics.Table{
		Title:  "Table 5: throughput across batching strategies (128 inferlets, 1B)",
		Header: []string{"policy", "requests/s"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy, fmt.Sprintf("%.2f", row.Throughput))
	}
	return t.String()
}

// Headline is the inventory's gated number.
func (r Table2Result) Headline() map[string]float64 {
	return map[string]float64{"programs": float64(len(r.Rows))}
}

// Headline is the table's gated numbers.
func (r Table3Result) Headline() map[string]float64 {
	return map[string]float64{
		"vllm-tpot-ms":    ms(r.VLLMTPOT),
		"pie-tpot-ms":     ms(r.PieTPOT),
		"sampling-gap-ms": ms(r.SamplingGap),
	}
}

// Headline is the table's gated numbers, per model size.
func (r Table4Result) Headline() map[string]float64 {
	h := map[string]float64{}
	for _, row := range r.Rows {
		h[row.Params+"-pie-ms"] = ms(row.Pie)
		h[row.Params+"-vllm-ms"] = ms(row.VLLM)
		h[row.Params+"-overhead-pct"] = row.Percent
	}
	return h
}

// Headline is the table's gated numbers, per batching policy.
func (r Table5Result) Headline() map[string]float64 {
	h := map[string]float64{}
	for _, row := range r.Rows {
		h[row.Policy+"-req-per-sec"] = row.Throughput
	}
	return h
}

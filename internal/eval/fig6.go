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

// Figure 6: latency and throughput of the three agents (ReACT, CodeACT,
// Swarm) on Pie vs vLLM vs SGLang, 1B model. Paper: Pie latencies
// 4.27/3.18/6.14 s; throughputs 29.94/40.18/5.21 agents/s; up to −15%
// latency and +30% throughput vs baselines.

// Fig6Row is one (workflow, system) cell.
type Fig6Row struct {
	Workflow   string
	System     string
	Latency    time.Duration
	Throughput float64 // agents/s
}

// Fig6Result holds every cell.
type Fig6Result struct {
	Rows []Fig6Row
}

// Agent workload constants (§7.1: 8 external IOs for ReACT/CodeACT, 32
// for Swarm).
const (
	reactSteps  = 8
	reactThink  = 24
	reactObs    = 16
	reactFinal  = 24
	agentPrompt = 64

	// Code actions are compact (the paper's CodeACT finishes faster than
	// ReACT despite the slower tool).
	codeSteps = 8
	codeThink = 20
	codeObs   = 12

	swarmWorkers = 4
	swarmIOs     = 8 // ×4 workers = 32 IOs
	swarmThink   = 16
)

// Figure6 runs the full grid. Every (workflow, system) cell is an
// independent pair of simulations on fresh clocks, so the 9 cells fan out
// across the parallel harness; rows are written by index to keep output
// order (and content) identical to a serial run.
func Figure6(o Options) Fig6Result {
	latencyConc := 4
	thptConc := o.scale(96, 24)
	total := o.scale(192, 36)

	type cell struct{ wf, system string }
	var cells []cell
	for _, wf := range []string{"react", "codeact", "swarm"} {
		for _, system := range []string{"pie", "vllm", "sglang"} {
			cells = append(cells, cell{wf, system})
		}
	}
	rows := make([]Fig6Row, len(cells))
	parallelFor(len(cells), func(i int) {
		c := cells[i]
		lat := runAgent(c.wf, c.system, latencyConc*3, latencyConc, o.seed())
		thp := runAgent(c.wf, c.system, total, thptConc, o.seed())
		rows[i] = Fig6Row{
			Workflow:   c.wf,
			System:     c.system,
			Latency:    lat.Latency.Mean(),
			Throughput: thp.Throughput(),
		}
	})
	return Fig6Result{Rows: rows}
}

// runAgent dispatches one (workflow, system) load. All systems see the
// same agentRTT link; vLLM runs in its v0.6.0 default configuration
// (automatic prefix caching off), SGLang keeps its radix tree.
func runAgent(workflow, system string, total, concurrency int, seed uint64) loadResult {
	if system == "pie" {
		e := newPieEngine(seed, func(c *pie.Config) { c.ClientRTT = agentRTT })
		var app string
		var params string
		switch workflow {
		case "react":
			app = "agent_react"
			params = marshalParams(apps.AgentParams{
				Steps: reactSteps, ThinkTokens: reactThink, ObsTokens: reactObs, FinalTokens: reactFinal,
			})
		case "codeact":
			app = "agent_codeact"
			params = marshalParams(apps.AgentParams{
				Steps: codeSteps, ThinkTokens: codeThink, ObsTokens: codeObs, FinalTokens: reactFinal,
			})
		case "swarm":
			app = "agent_swarm"
			params = marshalParams(apps.SwarmParams{
				Workers: swarmWorkers, IOsPerWorker: swarmIOs, ThinkTokens: swarmThink,
			})
		}
		return runPieLoad(e, app, func(int) string { return params }, total, concurrency)
	}

	cfg := baseline.Config{Kind: baseline.VLLM, ModelLabel: "1B", PrefixCache: "none"}
	if system == "sglang" {
		cfg = baseline.Config{Kind: baseline.SGLang, ModelLabel: "1B"}
	}
	var wf baselineWorkflow
	switch workflow {
	case "react":
		wf = baselineReACT("search.api", reactSteps, reactThink, reactObs, reactFinal)
	case "codeact":
		wf = baselineReACT("code.exec", codeSteps, codeThink, codeObs, reactFinal)
	case "swarm":
		wf = baselineSwarm()
	}
	return runBaselineLoadRTT(cfg, wf, total, concurrency, seed, agentRTT)
}

// baselineReACT is the client-side agent loop: every think step resends
// the full context (prefix cache mitigates the recompute, the round trip
// and request handling remain), and tool calls run at the client.
func baselineReACT(tool string, steps, think, obs, final int) baselineWorkflow {
	return func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
		ctx := syntheticTokens(rng, agentPrompt)
		for s := 0; s < steps; s++ {
			out := c.Generate(ctx, think, syntheticTokens(rng, think))
			ctx = append(ctx, out...)
			resp, _ := w.Call("http://"+tool+"/q", fmt.Sprintf("step %d", s)).Get()
			_ = resp
			ctx = append(ctx, syntheticTokens(rng, obs)...)
		}
		c.Generate(ctx, final, syntheticTokens(rng, final))
	}
}

// baselineSwarm runs the coordinator and its workers as client processes:
// inter-agent messages ride the client, each costing round trips.
func baselineSwarm() baselineWorkflow {
	return func(c *baseline.Client, w *netsim.World, rng *sim.RNG) {
		g := sim.NewGroup(c.Clock)
		results := sim.NewMailbox[[]int](c.Clock)
		for wk := 0; wk < swarmWorkers; wk++ {
			wk := wk
			g.Go("swarm-worker", func() {
				wrng := rng.Fork(uint64(wk))
				ctx := syntheticTokens(wrng, agentPrompt/2)
				for io := 0; io < swarmIOs; io++ {
					out := c.Generate(ctx, swarmThink, syntheticTokens(wrng, swarmThink))
					ctx = append(ctx, out...)
					resp, _ := w.Call("http://search.api/q", "io").Get()
					_ = resp
					ctx = append(ctx, syntheticTokens(wrng, 8)...)
				}
				out := c.Generate(ctx, swarmThink, syntheticTokens(wrng, swarmThink))
				results.Send(out)
			})
		}
		// Coordinator: collect worker outputs, then synthesize.
		var all []int
		for wk := 0; wk < swarmWorkers; wk++ {
			part, _ := results.Recv()
			all = append(all, part...)
		}
		g.Wait()
		c.Generate(all, swarmThink*2, syntheticTokens(rng, swarmThink*2))
	}
}

// Table renders the figure as normalized ratios, paper style.
func (r Fig6Result) Table() string {
	t := &metrics.Table{
		Title:  "Figure 6: agent latency and throughput (1B model)",
		Header: []string{"workflow", "system", "latency", "lat ratio", "agents/s", "thpt ratio"},
	}
	// Normalize within each workflow to the worst latency / best thpt.
	worstLat := map[string]time.Duration{}
	bestThp := map[string]float64{}
	for _, row := range r.Rows {
		if row.Latency > worstLat[row.Workflow] {
			worstLat[row.Workflow] = row.Latency
		}
		if row.Throughput > bestThp[row.Workflow] {
			bestThp[row.Workflow] = row.Throughput
		}
	}
	for _, row := range r.Rows {
		t.AddRow(row.Workflow, row.System, metrics.Sec(row.Latency),
			fmt.Sprintf("%.2f", float64(row.Latency)/float64(worstLat[row.Workflow])),
			fmt.Sprintf("%.2f", row.Throughput),
			fmt.Sprintf("%.2f", row.Throughput/bestThp[row.Workflow]))
	}
	return t.String()
}

// Get returns the cell for (workflow, system).
func (r Fig6Result) Get(workflow, system string) (Fig6Row, bool) {
	for _, row := range r.Rows {
		if row.Workflow == workflow && row.System == system {
			return row, true
		}
	}
	return Fig6Row{}, false
}

// Headline is the figure's gated numbers, per workflow and system.
func (r Fig6Result) Headline() map[string]float64 {
	h := map[string]float64{}
	for _, row := range r.Rows {
		h[row.Workflow+"-"+row.System+"-latency-sec"] = row.Latency.Seconds()
		h[row.Workflow+"-"+row.System+"-agents-per-sec"] = row.Throughput
	}
	return h
}

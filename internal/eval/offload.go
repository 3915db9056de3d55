package eval

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"pie"
	"pie/inferlet"
	"pie/internal/metrics"
)

// Offload experiment (beyond the paper's evaluation; motivated by "Pie:
// Pooling CPU Memory for LLM Inference" — see PAPERS.md): how much
// effective KV capacity does the host-memory tier recover when the device
// page pool is oversubscribed, and what does the PCIe swap traffic cost
// in TTFT and end-to-end latency?
//
// Workload: agent-style inferlets ("kv_hold") that prefill a fixed page
// budget, go idle for a think period (their pages turn cold and become
// offload victims), then decode against the full context (faulting
// offloaded pages back in — the prefetch-on-Forward path). A sweep over
// oversubscription levels N× runs each level twice: device-only (the
// paper's engine; contention resolves by FCFS termination) and with a
// host tier equal to the device capacity (2× effective pages).
//
// Everything runs on virtual clocks: same-seed runs produce byte-identical
// result documents (TestOffloadSweepDeterministic enforces this).

// Offload sweep shape: a small device pool (overriding the GPU memory
// geometry) makes oversubscription cheap to reach.
const (
	offloadDevPages  = 64 // device page capacity per replica (override)
	offloadAgentPgs  = 8  // KV pages each agent holds
	offloadThinkMS   = 60 // idle period between prefill and decode
	offloadDecode    = 8  // decode steps over the full context
	offloadHostRatio = 1.0
)

// offloadOversubs are the swept oversubscription levels: peak concurrent
// page demand as a multiple of the device capacity.
var offloadOversubs = []float64{1, 1.5, 2, 3}

// kvHoldParams configures the kv_hold workload inferlet.
type kvHoldParams struct {
	Pages   int `json:"pages"`
	ThinkMS int `json:"think_ms"`
	Decode  int `json:"decode"`
	Pri     int `json:"priority"`
}

// kvHoldProgram is the offload workload: prefill a page budget, think,
// then decode reading every page. The think window is where cold pages
// get offloaded by other agents' allocations.
func kvHoldProgram() pie.Program {
	return pie.Program{
		Name:       "kv_hold",
		BinarySize: 64 << 10,
		Run: func(s pie.Session) error {
			var p kvHoldParams
			if err := unmarshalArg(s, &p); err != nil {
				return err
			}
			q, err := s.Open("llama-1b", inferlet.WithPriority(p.Pri))
			if err != nil {
				return err
			}
			al, err := q.Alloc()
			if err != nil {
				return err
			}
			fz, err := q.Fused()
			if err != nil {
				return err
			}
			ps := q.Model().PageSize
			pages, err := al.Pages(p.Pages)
			if err != nil {
				return err
			}
			outs, err := al.Embeds(1)
			if err != nil {
				return err
			}
			fill := p.Pages*ps - p.Decode // leave room for decode appends
			if fill < 1 {
				fill = 1
			}
			tokens := make([]int, fill)
			positions := make([]int, fill)
			for i := range tokens {
				tokens[i] = 4 + (i*7)%1800
				positions[i] = i
			}
			f, err := fz.Run(
				inferlet.InlineTokens(tokens, positions),
				inferlet.AppendKv(pages...),
				inferlet.Output(outs...),
			)
			if err != nil {
				return err
			}
			toks, err := f.Get()
			if err != nil {
				return err
			}
			s.Send("first-token")
			s.ReportOutputTokens(1)

			// Think: the context sits idle and may be offloaded to host.
			s.Sleep(time.Duration(p.ThinkMS) * time.Millisecond)

			last, pos := toks[0], fill
			for i := 0; i < p.Decode; i++ {
				f, err := fz.Run(
					inferlet.ReadKv(pages...), // faults offloaded pages back in
					inferlet.InlineTokens([]int{last}, []int{pos}),
					inferlet.AppendKv(pages...),
					inferlet.Output(outs...),
				)
				if err != nil {
					return err
				}
				toks, err := f.Get()
				if err != nil {
					return err
				}
				last, pos = toks[0], pos+1
				s.ReportOutputTokens(1)
			}
			s.Send("done")
			return q.Close()
		},
	}
}

// unmarshalArg decodes the first launch argument into v.
func unmarshalArg(s pie.Session, v interface{}) error {
	args := s.GetArg()
	if len(args) == 0 || args[0] == "" {
		return fmt.Errorf("kv_hold: missing params")
	}
	return json.Unmarshal([]byte(args[0]), v)
}

// OffloadPoint is one measured (oversubscription, host-ratio) leg.
type OffloadPoint struct {
	Oversub      float64
	HostRatio    float64
	Agents       int // concurrent agents (peak page demand / pages per agent)
	Done         int
	Failures     int
	Terminations int
	TTFT         time.Duration // launch -> first token, mean
	MeanLatency  time.Duration // launch -> completion, mean
	Makespan     time.Duration
	SwapInPages  int
	SwapOutPages int
	SwapTime     time.Duration
	PeakPages    int     // high-water mark of live pages, both tiers
	EffCapacity  float64 // PeakPages / device capacity
	LeakedPages  int     // pages still allocated once every agent finished; must be 0
}

// OffloadResult holds the full sweep.
type OffloadResult struct {
	DevicePages   int
	PagesPerAgent int
	Points        []OffloadPoint // oversub-major, device-only leg before offload leg
}

// Get returns the point for an oversubscription level and host ratio.
func (r OffloadResult) Get(oversub, ratio float64) (OffloadPoint, bool) {
	for _, p := range r.Points {
		if p.Oversub == oversub && p.HostRatio == ratio {
			return p, true
		}
	}
	return OffloadPoint{}, false
}

// OffloadSweep runs the tiered-KV experiment. Every leg builds an
// independent single-replica engine on a fresh virtual clock, so legs fan
// out across workers with results in index-addressed slots.
func OffloadSweep(o Options) OffloadResult {
	out := OffloadResult{DevicePages: offloadDevPages, PagesPerAgent: offloadAgentPgs}
	ratios := []float64{0, offloadHostRatio}
	out.Points = make([]OffloadPoint, len(offloadOversubs)*len(ratios))
	rounds := o.scale(4, 2)
	parallelFor(len(out.Points), func(i int) {
		ov := offloadOversubs[i/len(ratios)]
		ratio := ratios[i%len(ratios)]
		out.Points[i] = runOffloadLeg(o, ov, ratio, rounds)
	})
	return out
}

// runOffloadLeg drives one closed-loop leg: `agents` concurrent kv_hold
// instances, rounds tasks each, with termination-retry accounting.
func runOffloadLeg(o Options, oversub, ratio float64, rounds int) OffloadPoint {
	agents := int(oversub * float64(offloadDevPages) / float64(offloadAgentPgs))
	total := agents * rounds
	e := newPieEngine(o.seed(), func(c *pie.Config) {
		c.KVPagesOverride = offloadDevPages
		c.HostKVRatio = ratio
	})
	e.MustRegister(kvHoldProgram())
	params := marshalParams(kvHoldParams{Pages: offloadAgentPgs, ThinkMS: offloadThinkMS, Decode: offloadDecode})
	p := OffloadPoint{Oversub: oversub, HostRatio: ratio, Agents: agents}
	var ttft, lat metrics.Series
	spec := pie.Spec("kv_hold", params)
	_, p.Makespan = runLoad(e, "offload leg", spec, 0, loadClass{
		// A terminated agent (FCFS reclamation) is relaunched and counted.
		name: "agent", clients: agents, tasks: total, attempts: 4, ack: true,
		spec: func(int) pie.LaunchSpec { return spec },
		done: func(o outcome) {
			if o.Err != nil {
				p.Failures++
				return
			}
			if o.First > 0 {
				ttft.Add(o.First - o.T0)
			}
			lat.Add(o.End - o.T0)
			p.Done++
		},
	})
	st := e.Stats()
	p.Terminations = st.Terminations
	p.SwapInPages = st.SwapInPages
	p.SwapOutPages = st.SwapOutPages
	p.SwapTime = st.SwapTime
	p.PeakPages = st.KVPeakPages
	p.EffCapacity = float64(p.PeakPages) / float64(offloadDevPages)
	p.LeakedPages, _ = e.PoolStats("llama-1b")
	p.TTFT, p.MeanLatency = ttft.Mean(), lat.Mean()
	return p
}

// Table renders the experiment in paper style.
func (r OffloadResult) Table() string {
	var b strings.Builder
	t := &metrics.Table{
		Title: fmt.Sprintf("Tiered KV cache: host-memory offload under oversubscription "+
			"(device pool %d pages, %d pages/agent, host ratio %.1f)",
			r.DevicePages, r.PagesPerAgent, offloadHostRatio),
		Header: []string{"oversub", "host", "agents", "done", "fail", "terms",
			"peak pages", "eff cap", "ttft", "mean lat", "swaps in/out", "swap time"},
	}
	for _, p := range r.Points {
		host := "off"
		if p.HostRatio > 0 {
			host = fmt.Sprintf("%.1fx", p.HostRatio)
		}
		t.AddRow(fmt.Sprintf("%.1fx", p.Oversub), host, fmt.Sprint(p.Agents),
			fmt.Sprint(p.Done), fmt.Sprint(p.Failures), fmt.Sprint(p.Terminations),
			fmt.Sprint(p.PeakPages), fmt.Sprintf("%.2fx", p.EffCapacity),
			metrics.Ms(p.TTFT), metrics.Ms(p.MeanLatency),
			fmt.Sprintf("%d/%d", p.SwapInPages, p.SwapOutPages), metrics.Ms(p.SwapTime))
	}
	b.WriteString(t.String())
	return b.String()
}

// Headline is the experiment's gated numbers: the 2x-oversubscribed level
// with and without the host tier, and the uncontended TTFT.
func (r OffloadResult) Headline() map[string]float64 {
	h := map[string]float64{}
	if p, ok := r.Get(2, 1.0); ok {
		h["effcap-2x-offload-x"] = p.EffCapacity
		h["ttft-2x-offload-ms"] = ms(p.TTFT)
		h["swapout-2x-offload-pages"] = float64(p.SwapOutPages)
		h["failures-2x-offload"] = float64(p.Failures)
	}
	if p, ok := r.Get(2, 0); ok {
		h["terms-2x-none"] = float64(p.Terminations)
	}
	if p, ok := r.Get(1, 0); ok {
		h["ttft-1x-none-ms"] = ms(p.TTFT)
	}
	return h
}

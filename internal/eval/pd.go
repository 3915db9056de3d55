package eval

import (
	"fmt"
	"strings"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/metrics"
	"pie/internal/sim"
)

// Prefill/decode disaggregation experiment (beyond the paper): the same
// mixed interactive + batch workload replayed on identical hardware under
// two pool layouts:
//
//   - unified: every replica serves prefill and decode (the classic
//     colocated pool);
//   - disagg: a prefill tier takes every new launch, and after each
//     session's first token its KV pages migrate over the modeled PCIe
//     interconnect to the decode replica whose next forward after they
//     land completes first, load counted in.
//
// The claims under test: at mixes where long-prompt batch prefills
// contend with interactive arrivals, disaggregation shields interactive
// TTFT (new prompts never queue behind deep decode batches) without
// giving up aggregate goodput; the transfer budget bounds concurrent
// wire occupancy, so handoff storms queue instead of multiplying PCIe
// bandwidth; and every migrated page is conserved — after the idle tail,
// zero KV pages remain live on any replica in either leg.

// Pool shape: both legs run the same replica count; the disaggregated
// leg carves out a fixed prefill tier.
const (
	pdReplicas = 6
	pdPrefill  = 2
	// pdIdleTail runs the engine past the last completion so late handoff
	// releases and pool frees land inside the measured window, making the
	// conservation check honest.
	pdIdleTail = 100 * time.Millisecond
	// Interactive sessions: short prompt, short completion, TTFT-bound.
	// Batch sessions: long prompt, long completion, throughput-bound.
	pdIntTokens   = 8
	pdBatchTokens = 48
	// SLO targets: a session is good when it meets its class target —
	// interactive sessions must deliver the first token within pdTTFTSLO,
	// batch sessions must finish end-to-end within pdBatchSLO. Goodput
	// counts only good sessions per second (the disaggregation
	// literature's definition); raw throughput counts every completion.
	pdTTFTSLO  = 25 * time.Millisecond
	pdBatchSLO = 900 * time.Millisecond
)

// PDMixSpec shapes one load mix: closed-loop client counts per class.
type PDMixSpec struct {
	Name               string
	IntConc, BatchConc int
}

func pdMixes() []PDMixSpec {
	return []PDMixSpec{
		{Name: "interactive", IntConc: 8, BatchConc: 2},
		{Name: "mixed", IntConc: 6, BatchConc: 4},
		{Name: "batch-heavy", IntConc: 3, BatchConc: 6},
	}
}

// PDLeg is one measured run of the mixed workload under one pool layout.
type PDLeg struct {
	IntDone, BatchDone int
	IntGood, BatchGood int           // sessions that met their class SLO
	IntTTFTP50         time.Duration // client-observed launch -> first token
	IntTTFTP95         time.Duration
	IntTPOT            time.Duration // mean decode interval after first token
	BatchP95           time.Duration // batch end-to-end latency
	Throughput         float64       // completed sessions (both classes) per second
	Goodput            float64       // SLO-attaining sessions per second
	Makespan           time.Duration
	Handoffs           int
	HandoffPages       int
	HandoffQueued      int
	HandoffDenied      int
	HandoffTime        time.Duration
	Prefill, Decode    int // the role split at the end of the leg
	RoleFlips          int // role-balancer flips that made it
}

// PDMix pairs the two legs of one load mix.
type PDMix struct {
	Spec               PDMixSpec
	IntTotal, BatchTot int
	Unified, Disagg    PDLeg
}

// PDResult is the full sweep.
type PDResult struct {
	Replicas, Prefill int
	Mixes             []PDMix
}

// PDSweep runs every load mix under both layouts, each leg on an
// independent engine with the same seed, fanned out across workers.
func PDSweep(o Options) PDResult {
	specs := pdMixes()
	out := PDResult{Replicas: pdReplicas, Prefill: pdPrefill, Mixes: make([]PDMix, len(specs))}
	parallelFor(2*len(specs), func(i int) {
		mix := &out.Mixes[i/2]
		spec := specs[i/2]
		leg := runPDLeg(o, spec, i%2 == 1, nil)
		if i%2 == 0 {
			mix.Spec = spec
			mix.IntTotal = spec.IntConc * o.scale(12, 5)
			mix.BatchTot = spec.BatchConc * o.scale(12, 5)
			mix.Unified = leg
		} else {
			mix.Disagg = leg
		}
	})
	return out
}

// pdEngine builds one engine for a leg: identical hardware on both; only
// the role layout differs.
func pdEngine(seed uint64, disagg bool) *pie.Engine {
	return newPieEngine(seed, func(c *pie.Config) {
		c.Replicas = pdReplicas
		c.Placement = pie.PlaceLeastLoaded
		if disagg {
			c.Roles = []pie.RoleSpec{
				{Role: pie.RolePrefill, Count: pdPrefill},
				{Role: pie.RoleDecode},
			}
			c.HandoffBudget = 4
		}
	})
}

// runPDLeg drives the mixed workload once, seen by tap.
func runPDLeg(o Options, spec PDMixSpec, disagg bool, tap legTap) PDLeg {
	perWorker := o.scale(12, 5)
	e := pdEngine(o.seed(), disagg)
	see := tap.start(e)
	// Seed-sensitive prompts: interactive prompts stay short; batch
	// prompts are long enough that their prefills dominate a unified
	// replica's batch slots.
	promptRNG := sim.NewRNG(o.seed() ^ 0x9D9D9D9D)
	intPrompts := make([]string, 32)
	batchPrompts := make([]string, 32)
	for i := range intPrompts {
		intPrompts[i] = strings.Repeat("disaggregation probe ", 3+promptRNG.Intn(5))
		batchPrompts[i] = strings.Repeat("batch analytics context window filler ", 8+promptRNG.Intn(6))
	}
	var leg PDLeg
	ttft := &metrics.Series{Name: "client-ttft"}
	tpot := &metrics.Series{Name: "client-tpot"}
	bLat := &metrics.Series{Name: "batch-latency"}
	// Steady state starts after every interactive client has completed a
	// couple of tasks: the t=0 thundering herd hits both layouts, but it
	// hits the (smaller) prefill tier harder, and it says nothing about
	// sustained serving — which is what the layouts differ on.
	warmCut := spec.IntConc * o.scale(2, 1)
	// Per-client think time decorrelates arrivals: real interactive clients
	// do not fire in lockstep, and a synchronized herd would measure burst
	// absorption instead of sustained serving.
	think := func(salt int) func(int) *sim.RNG {
		return func(w int) *sim.RNG { return sim.NewRNG(o.seed() ^ uint64(salt+w)) }
	}
	completion := func(prompt string, maxTokens int, ack bool) pie.LaunchSpec {
		return pie.Spec("text_completion", marshalParams(apps.CompletionParams{
			Prompt: prompt, MaxTokens: maxTokens, FirstTokenAck: ack,
		}))
	}
	// The warm-up populates the artifact caches on every replica path.
	_, leg.Makespan = runLoad(e, "pd leg", completion(intPrompts[0], 2, false), pdIdleTail,
		loadClass{
			name: "interactive", clients: spec.IntConc, tasks: spec.IntConc * perWorker,
			think: think(0x17), thinkMS: 12, ack: true,
			spec: func(task int) pie.LaunchSpec {
				return completion(intPrompts[task%len(intPrompts)], pdIntTokens, true)
			},
			done: func(o outcome) {
				see(o)
				var first time.Duration
				if o.Msg == "first-token" {
					first = o.First - o.T0
					if o.Task >= warmCut {
						ttft.Add(first)
					}
				}
				if o.Err != nil {
					return
				}
				leg.IntDone++
				if first > 0 {
					if first <= pdTTFTSLO {
						leg.IntGood++
					}
					tpot.Add((o.End - o.First) / (pdIntTokens - 1))
				}
			},
		},
		loadClass{
			name: "batch", clients: spec.BatchConc, tasks: spec.BatchConc * perWorker,
			think: think(0x8100), thinkMS: 24,
			spec: func(task int) pie.LaunchSpec {
				return completion(batchPrompts[(task*5)%len(batchPrompts)], pdBatchTokens, false)
			},
			done: func(o outcome) {
				see(o)
				if o.Err != nil {
					return
				}
				leg.BatchDone++
				lat := o.End - o.T0
				bLat.Add(lat)
				if lat <= pdBatchSLO {
					leg.BatchGood++
				}
			},
		})
	st := e.Stats()
	leg.IntTTFTP50 = ttft.Percentile(50)
	leg.IntTTFTP95 = ttft.Percentile(95)
	leg.IntTPOT = tpot.Mean()
	leg.BatchP95 = bLat.Percentile(95)
	leg.Throughput = metrics.Throughput(leg.IntDone+leg.BatchDone, leg.Makespan)
	leg.Goodput = metrics.Throughput(leg.IntGood+leg.BatchGood, leg.Makespan)
	leg.Handoffs = st.Handoffs
	leg.HandoffPages = st.HandoffPages
	leg.HandoffQueued = st.HandoffQueued
	leg.HandoffDenied = st.HandoffDenied
	leg.HandoffTime = st.HandoffTime
	for _, r := range e.Cluster().Replicas() {
		switch r.Role {
		case pie.RolePrefill:
			leg.Prefill++
		case pie.RoleDecode:
			leg.Decode++
		}
	}
	leg.RoleFlips = e.Cluster().RoleFlips
	return leg
}

// Table renders the experiment in paper style.
func (r PDResult) Table() string {
	var b strings.Builder
	t := &metrics.Table{
		Title: fmt.Sprintf("Prefill/decode disaggregation: %d replicas unified vs a split starting at %d prefill + %d decode, with KV handoff",
			r.Replicas, r.Prefill, r.Replicas-r.Prefill),
		Header: []string{"mix", "pool", "split", "flips", "int done", "ttft p50", "ttft p95", "tpot", "batch p95", "thru/s", "goodput/s", "makespan", "handoffs", "pages", "queued"},
	}
	for _, mix := range r.Mixes {
		row := func(name string, l PDLeg) {
			split, flips := "-", "-"
			if l.Prefill+l.Decode > 0 {
				split, flips = fmt.Sprintf("%dP:%dD", l.Prefill, l.Decode), fmt.Sprint(l.RoleFlips)
			}
			t.AddRow(mix.Spec.Name, name, split, flips,
				fmt.Sprint(l.IntDone),
				metrics.Ms(l.IntTTFTP50),
				metrics.Ms(l.IntTTFTP95),
				metrics.Ms(l.IntTPOT),
				metrics.Ms(l.BatchP95),
				fmt.Sprintf("%.1f", l.Throughput),
				fmt.Sprintf("%.1f", l.Goodput),
				metrics.Ms(l.Makespan),
				fmt.Sprint(l.Handoffs),
				fmt.Sprint(l.HandoffPages),
				fmt.Sprint(l.HandoffQueued))
		}
		row("unified", mix.Unified)
		row("disagg", mix.Disagg)
	}
	b.WriteString(t.String())
	best := r.BestMix()
	fmt.Fprintf(&b, "\nPD: %s mix interactive TTFT p95 %v disaggregated vs %v unified (%.2fx), "+
		"SLO goodput %.1f vs %.1f /s (raw %.1f vs %.1f), %d handoffs moved %d pages in %v\n",
		best.Spec.Name, best.Disagg.IntTTFTP95, best.Unified.IntTTFTP95, best.TTFTSpeedup(),
		best.Disagg.Goodput, best.Unified.Goodput,
		best.Disagg.Throughput, best.Unified.Throughput,
		best.Disagg.Handoffs, best.Disagg.HandoffPages, best.Disagg.HandoffTime)
	return b.String()
}

// TTFTSpeedup is unified p95 TTFT over disaggregated p95 TTFT: above 1,
// disaggregation wins interactive latency at this mix.
func (m PDMix) TTFTSpeedup() float64 {
	if m.Disagg.IntTTFTP95 == 0 {
		return 0
	}
	return float64(m.Unified.IntTTFTP95) / float64(m.Disagg.IntTTFTP95)
}

// BestMix returns the headline comparison point: the mix with the
// largest p95 TTFT advantage among those where disaggregation gives up
// no goodput, falling back to the largest advantage outright.
func (r PDResult) BestMix() PDMix {
	pick := func(mixes []PDMix) (PDMix, bool) {
		var best PDMix
		found := false
		for _, m := range mixes {
			if !found || m.TTFTSpeedup() > best.TTFTSpeedup() {
				best, found = m, true
			}
		}
		return best, found
	}
	var holds []PDMix
	for _, m := range r.Mixes {
		if m.Disagg.Goodput >= m.Unified.Goodput {
			holds = append(holds, m)
		}
	}
	if best, ok := pick(holds); ok {
		return best
	}
	best, _ := pick(r.Mixes)
	return best
}

// Headline is the experiment's gated numbers, all from the best mix.
func (r PDResult) Headline() map[string]float64 {
	best := r.BestMix()
	return map[string]float64{
		"disagg-ttft-p95-ms":  ms(best.Disagg.IntTTFTP95),
		"unified-ttft-p95-ms": ms(best.Unified.IntTTFTP95),
		"ttft-speedup-x":      best.TTFTSpeedup(),
		"disagg-goodput":      best.Disagg.Goodput,
		"unified-goodput":     best.Unified.Goodput,
		"disagg-thru":         best.Disagg.Throughput,
		"unified-thru":        best.Unified.Throughput,
		"handoffs":            float64(best.Disagg.Handoffs),
		"handoff-pages":       float64(best.Disagg.HandoffPages),
		"handoff-queued":      float64(best.Disagg.HandoffQueued),
		"handoff-denied":      float64(best.Disagg.HandoffDenied),
	}
}

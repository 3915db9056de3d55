package eval

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/metrics"
	"pie/internal/sim"
	"pie/internal/trace"
)

// SLO-aware serving experiment (beyond the paper): mixed-class traffic —
// interactive (tight TTFT/ITL targets, high priority), batch (degradable,
// larger model), and best-effort (negative priority, unclassed) — replayed
// at three load levels against the same heterogeneous 8-replica pool,
// twice per level:
//
//   - baseline: the queue-depth comparator (queuedepth.go: mean
//     outstanding calls per replica against a fixed threshold), blind to
//     classes and cost;
//   - slo: the saturation-guarded, cost-aware scaler driven by live
//     per-class attainment, with graceful degradation and scale-to-zero.
//
// The claims under test: at high load the SLO scaler holds interactive
// TTFT attainment at or above the target where the queue-depth baseline
// misses it; it does so at a lower cost than a naive always-on fleet; the
// batch class absorbs saturation through degradation (output caps +
// cheaper-model substitution) instead of interactive misses; and the whole
// decision log is byte-identical under the same seed.

// Workload shape. The pool is 4 reference replicas plus 4 economy
// replicas (cheaper, slower kernels); both legs of every level see the
// identical hardware and start from the same active count.
const (
	sloReplicas    = 8
	sloStartActive = 2
	sloMaxTokens   = 12
	sloBatchTokens = 24
	// sloIdleTail extends the run past the last completion so the SLO
	// leg's scale-to-zero (and the baseline's drain-back) is observable
	// inside the measured window.
	sloIdleTail = 400 * time.Millisecond
)

// sloTargets are the interactive-class latency objectives. TTFT includes
// launch admission, instantiation, queueing, and prefill on the virtual
// clock; ITL is the decode interval under batching.
const (
	sloTTFTTarget = 120 * time.Millisecond
	sloITLTarget  = 60 * time.Millisecond
)

// sloVariants is the heterogeneous pool: replicas 0-3 reference ("l4"),
// replicas 4-7 economy ("l4e") at 60% of the price and ~35% slower
// kernels.
func sloVariants() []pie.ReplicaVariant {
	return []pie.ReplicaVariant{
		{Name: "l4", CostRate: 1.0, Count: 4},
		{Name: "l4e", CostRate: 0.6, Slowdown: 1.35},
	}
}

// sloClasses is the service-class registry both legs run under.
func sloClasses() []pie.ServiceClass {
	return []pie.ServiceClass{
		{Name: "interactive", TTFTTarget: sloTTFTTarget, ITLTarget: sloITLTarget, Priority: 10},
		{Name: "batch", MinTokensPerSec: 40, Degradable: true},
	}
}

// SLOLevelSpec shapes one load level of the mixed workload.
type SLOLevelSpec struct {
	Name                       string
	IntConc, BatchConc, BEConc int // closed-loop clients per class
}

func sloLevels() []SLOLevelSpec {
	return []SLOLevelSpec{
		{Name: "low", IntConc: 4, BatchConc: 2, BEConc: 2},
		{Name: "mid", IntConc: 12, BatchConc: 6, BEConc: 4},
		{Name: "high", IntConc: 44, BatchConc: 14, BEConc: 10},
	}
}

// SLOLeg is one measured run of the mixed workload under one scaler.
type SLOLeg struct {
	IntDone, IntFailed int
	IntTTFTAttain      float64 // engine-side cumulative attainment vs TTFTTarget
	IntITLAttain       float64
	// SteadyTTFTAttain is client-observed TTFT attainment excluding the
	// first two closed-loop rounds: the cold ramp hits every scaler the
	// same way, so steady state is where the policies separate.
	SteadyTTFTAttain  float64
	SteadyN           int
	ClientTTFTP95     time.Duration // client-observed launch -> first token
	BatchDone         int
	BatchDegraded     int // launches admitted with a degraded output cap
	ModelDowngrades   int // queues opened on a substituted cheaper model
	BEDone, BEShed    int
	Makespan          time.Duration
	CostUnits         float64 // Σ replica cost-rate x active seconds
	NaiveCost         float64 // always-on full fleet over the same makespan
	ScaleUps          int
	ScaleToZeroEvents int
	FinalActive       int
	// DecisionLog is every cluster decision of the leg, the determinism
	// contract's unit of comparison. Excluded from the JSON document so
	// benchmark artifacts stay compact.
	DecisionLog []trace.Decision `json:"-"`
}

// SLOLevel pairs the two legs of one load level.
type SLOLevel struct {
	Spec              SLOLevelSpec
	IntTotal, BETotal int
	BatchTotal        int
	Baseline, SLO     SLOLeg
}

// SLOResult is the full sweep.
type SLOResult struct {
	Replicas int
	Levels   []SLOLevel
}

// SLOSweep runs every load level under both scalers, each leg on an
// independent engine with the same seed, fanned out across workers.
func SLOSweep(o Options) SLOResult {
	specs := sloLevels()
	out := SLOResult{Replicas: sloReplicas, Levels: make([]SLOLevel, len(specs))}
	parallelFor(2*len(specs), func(i int) {
		lvl := &out.Levels[i/2]
		spec := specs[i/2]
		leg := runSLOLeg(o, spec, i%2 == 1)
		if i%2 == 0 {
			lvl.Spec = spec
			lvl.IntTotal = spec.IntConc * o.scale(12, 4)
			lvl.BatchTotal = spec.BatchConc * o.scale(12, 4)
			lvl.BETotal = spec.BEConc * o.scale(12, 4)
			lvl.Baseline = leg
		} else {
			lvl.SLO = leg
		}
	})
	return out
}

// sloEngine builds one engine for a leg: identical hardware, classes, and
// shedding on both; only the scaling loop differs.
func sloEngine(seed uint64, slo bool) (*pie.Engine, *queueDepthScaler) {
	e := newPieEngine(seed, func(c *pie.Config) {
		c.Replicas = sloStartActive
		c.Placement = pie.PlaceLeastLoaded
		c.Classes = sloClasses()
		c.Variants = sloVariants()
		// Degradation watermarks sit below the shed watermarks: batch
		// launches shorten before best-effort launches drop.
		c.Shed = pie.ShedConfig{Enabled: true, KVWatermark: 0.9, QueueDepth: 24}
		if slo {
			c.Scaler = pie.ScalerConfig{
				Enabled: true, Min: 1, Max: sloReplicas,
				ScaleToZero: true, IdleAfter: 150 * time.Millisecond,
			}
		} else {
			c.Replicas = sloReplicas
		}
	})
	if slo {
		return e, nil
	}
	return e, startQueueDepthScaler(e, sloStartActive, 48, 4)
}

// runSLOLeg drives the mixed-class workload once.
func runSLOLeg(o Options, spec SLOLevelSpec, slo bool) SLOLeg {
	perWorker := o.scale(12, 4)
	e, baseline := sloEngine(o.seed(), slo)
	var leg SLOLeg
	e.Cluster().OnDecision = func(d trace.Decision) { leg.DecisionLog = append(leg.DecisionLog, d) }
	// Seed-sensitive prompts: prefill sizes (and so every downstream
	// timing and scaling decision) vary with the seed.
	promptRNG := sim.NewRNG(o.seed() ^ 0x51095109)
	prompts := make([]string, 64)
	for i := range prompts {
		prompts[i] = strings.Repeat("service level objective probe ", 1+promptRNG.Intn(8))
	}
	ttft := &metrics.Series{Name: "client-ttft"}
	// Steady state starts after every interactive client has completed two
	// tasks — past the cold ramp both scalers pay equally.
	warmCut := 2 * spec.IntConc
	steadyGood := 0
	launch := func(params apps.CompletionParams, class string, priority int) pie.LaunchSpec {
		sp := pie.Spec("text_completion", marshalParams(params))
		sp.Class, sp.Priority = class, priority
		return sp
	}
	// The warm-up populates every artifact cache path before measurement.
	// The idle tail is long enough for the SLO leg to drain to zero and the
	// baseline to drain back toward Min, so the cost gap is honest about
	// idle fleets too.
	_, leg.Makespan = runLoad(e, "slo leg", launch(apps.CompletionParams{Prompt: prompts[0], MaxTokens: 2}, "", 0), sloIdleTail,
		loadClass{
			name: "interactive", clients: spec.IntConc, tasks: spec.IntConc * perWorker, ack: true,
			spec: func(task int) pie.LaunchSpec {
				return launch(apps.CompletionParams{
					Prompt:        prompts[task%len(prompts)],
					MaxTokens:     sloMaxTokens,
					FirstTokenAck: true,
				}, "interactive", 0)
			},
			done: func(o outcome) {
				if o.Msg == "first-token" {
					d := o.First - o.T0
					ttft.Add(d)
					if o.Task >= warmCut {
						leg.SteadyN++
						if d <= sloTTFTTarget {
							steadyGood++
						}
					}
				}
				if o.Err != nil {
					leg.IntFailed++
					return
				}
				leg.IntDone++
			},
		},
		loadClass{
			name: "batch", clients: spec.BatchConc, tasks: spec.BatchConc * perWorker,
			spec: func(task int) pie.LaunchSpec {
				return launch(apps.CompletionParams{
					Common: apps.Common{Model: "llama-3b"},
					Prompt: prompts[(task*7)%len(prompts)],
					// Degraded admissions rewrite this cap downward.
					MaxTokens: sloBatchTokens,
				}, "batch", 0)
			},
			done: func(o outcome) {
				if o.H != nil && o.H.Degraded() {
					leg.BatchDegraded++
				}
				if o.Err == nil {
					leg.BatchDone++
				}
			},
		},
		loadClass{
			name: "best-effort", clients: spec.BEConc, tasks: spec.BEConc * perWorker,
			spec: func(task int) pie.LaunchSpec {
				return launch(apps.CompletionParams{
					Prompt:    prompts[(task*3)%len(prompts)],
					MaxTokens: sloMaxTokens,
				}, "", -1)
			},
			done: func(o outcome) {
				switch {
				case o.Err == nil:
					leg.BEDone++
				case o.H == nil && errors.Is(o.Err, pie.ErrOverloaded):
					leg.BEShed++
				}
			},
		})
	st := e.Stats()
	for _, cs := range st.Classes {
		if cs.Class == "interactive" {
			leg.IntTTFTAttain = cs.TTFTAttainment
			leg.IntITLAttain = cs.ITLAttainment
		}
	}
	leg.SteadyTTFTAttain = 1
	if leg.SteadyN > 0 {
		leg.SteadyTTFTAttain = float64(steadyGood) / float64(leg.SteadyN)
	}
	leg.ClientTTFTP95 = ttft.Percentile(95)
	leg.ModelDowngrades = st.ModelDowngrades
	leg.CostUnits = st.CostUnits
	leg.ScaleToZeroEvents = st.ScaleToZeroEvents
	leg.FinalActive = st.ActiveReplicas
	leg.ScaleUps = e.Cluster().ScaleUps
	if baseline != nil {
		leg.ScaleUps = baseline.ups
	}
	// The naive comparator keeps the whole fleet active for the leg's
	// entire run (makespan + idle tail): what the cost-aware scaler is up
	// against.
	var rate float64
	for _, r := range e.ReplicaStats() {
		rate += r.CostRate
	}
	leg.NaiveCost = rate * (leg.Makespan + sloIdleTail).Seconds()
	return leg
}

// Table renders the experiment in paper style.
func (r SLOResult) Table() string {
	var b strings.Builder
	t := &metrics.Table{
		Title: fmt.Sprintf("SLO serving: mixed classes on %d heterogeneous replicas (interactive ttft<=%v itl<=%v; batch degradable; best-effort sheddable)",
			r.Replicas, sloTTFTTarget, sloITLTarget),
		Header: []string{"level", "scaler", "int done", "ttft attain", "steady attain", "itl attain", "client p95", "batch done/degr/downg", "be done/shed", "makespan", "cost", "naive cost", "ups", "to-zero"},
	}
	for _, lvl := range r.Levels {
		row := func(name string, l SLOLeg) {
			t.AddRow(lvl.Spec.Name, name,
				fmt.Sprint(l.IntDone),
				fmt.Sprintf("%.1f%%", l.IntTTFTAttain*100),
				fmt.Sprintf("%.1f%%", l.SteadyTTFTAttain*100),
				fmt.Sprintf("%.1f%%", l.IntITLAttain*100),
				metrics.Ms(l.ClientTTFTP95),
				fmt.Sprintf("%d/%d/%d", l.BatchDone, l.BatchDegraded, l.ModelDowngrades),
				fmt.Sprintf("%d/%d", l.BEDone, l.BEShed),
				metrics.Ms(l.Makespan),
				fmt.Sprintf("%.2f", l.CostUnits),
				fmt.Sprintf("%.2f", l.NaiveCost),
				fmt.Sprint(l.ScaleUps),
				fmt.Sprint(l.ScaleToZeroEvents))
		}
		row("queue-depth", lvl.Baseline)
		row("slo", lvl.SLO)
	}
	b.WriteString(t.String())
	high := r.Levels[len(r.Levels)-1]
	fmt.Fprintf(&b, "\nSLO: high load steady-state interactive TTFT attainment %.1f%% (queue-depth baseline %.1f%%), "+
		"cost %.2f vs %.2f baseline vs %.2f naive, %d degradations, %d model downgrades, %d scale-to-zero drains\n",
		high.SLO.SteadyTTFTAttain*100, high.Baseline.SteadyTTFTAttain*100,
		high.SLO.CostUnits, high.Baseline.CostUnits, high.SLO.NaiveCost,
		high.SLO.BatchDegraded, high.SLO.ModelDowngrades, high.SLO.ScaleToZeroEvents)
	return b.String()
}

// Headline is the experiment's gated numbers. They come from the high-load
// level, where the contrast between the saturation-guarded scaler and the
// queue-depth baseline lives; the low-load level contributes the
// scale-to-zero cost number.
func (r SLOResult) Headline() map[string]float64 {
	high := r.Levels[len(r.Levels)-1]
	low := r.Levels[0]
	return map[string]float64{
		"slo-steady-ttft-attain":  high.SLO.SteadyTTFTAttain,
		"base-steady-ttft-attain": high.Baseline.SteadyTTFTAttain,
		"slo-cost-units":          high.SLO.CostUnits,
		"base-cost-units":         high.Baseline.CostUnits,
		"naive-cost-units":        high.SLO.NaiveCost,
		"degradations":            float64(high.SLO.BatchDegraded),
		"model-downgrades":        float64(high.SLO.ModelDowngrades),
		"base-be-sheds":           float64(high.Baseline.BEShed),
		"slo-be-done":             float64(high.SLO.BEDone),
		"scale-ups":               float64(high.SLO.ScaleUps),
		"low-slo-cost-units":      low.SLO.CostUnits,
	}
}

package eval

import (
	"fmt"
	"strings"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/fleet"
	"pie/internal/metrics"
	"pie/internal/sim"
	"pie/internal/trace"
)

// Fleet-manifest experiment (beyond the paper): a declarative manifest
// boots the serving fleet — one pool with headroom, a service class, and
// text_completion pinned to 1.0.0 even though 2.0.0 is registered — and
// the reconciling controller carries two live operations under sustained
// interactive load:
//
//   - a rolling program upgrade: the manifest repins text_completion to
//     2.0.0 mid-run; the controller prewarms the new artifact on every
//     serving replica before the cutover, then drains old-version
//     instances in bounded batches, abort-and-requeueing stragglers past
//     the drain deadline. The naive comparator (one unbounded batch, no
//     grace, no prewarm — a restart) runs under identical load.
//   - a pool-count hot reload: grow 2 -> 5, then shrink 5 -> 3, with the
//     shrink a two-phase drain that migrates KV exports before retiring.
//
// Claims under test: the rolling upgrade completes with zero failed
// launches and upgrade-window TTFT p95 within 1.5x the steady-state leg,
// where the naive restart violates that bound; the hot reload converges
// to the desired count without dropping an in-flight session; and the
// rolling leg's full trace — every decision record, every TTFT sample,
// makespan — is byte-identical across same-seed runs.

const (
	// fleetPoolBuilt/fleetPoolCount: the upgrade legs' pool, 4 serving
	// replicas of 6 built.
	fleetPoolBuilt = 6
	fleetPoolCount = 4
	fleetIntConc   = 8
	fleetMaxTokens = 12
	fleetTTFT      = 250 * time.Millisecond
	// fleetV2Size makes the upgrade expensive enough to matter: a 1 MiB
	// v2 binary costs ~210 ms of upload+JIT per cold replica, so skipping
	// the prewarm is visible in client TTFT.
	fleetV2Size = 1 << 20
	// fleetIdleTail lets drains retire and the rollout finish inside the
	// measured run.
	fleetIdleTail = 300 * time.Millisecond
)

// fleetLegModes name the three upgrade legs.
const (
	fleetSteady  = "steady"
	fleetRolling = "rolling"
	fleetNaive   = "naive"
)

// fleetBootManifest is the declarative boot document shared by the legs.
func fleetBootManifest(rc fleet.Reconcile) *fleet.Manifest {
	return &fleet.Manifest{
		Schema:    fleet.CurrentSchema,
		Placement: "least-loaded",
		Pools:     []fleet.Pool{{Name: "main", Count: fleetPoolCount, Max: fleetPoolBuilt}},
		Classes:   []fleet.Class{{Name: "interactive", TTFT: fleet.Duration(fleetTTFT), Priority: 10}},
		Programs:  []fleet.Pin{{Name: "text_completion", Version: "1.0.0", Class: "interactive"}},
		Reconcile: rc,
	}
}

// fleetEngine boots an engine from the manifest and registers
// text_completion 2.0.0 alongside — without the manifest's pin, bare-name
// launches would float to 2.0.0 immediately; with it, the cutover belongs
// to the controller.
func fleetEngine(seed uint64, m *fleet.Manifest) *pie.Engine {
	e := newPieEngine(seed, func(c *pie.Config) {
		fc, err := pie.ConfigFromManifest(m)
		if err != nil {
			panic(fmt.Sprintf("eval: fleet manifest: %v", err))
		}
		fc.Seed = c.Seed
		fc.Mode = c.Mode
		fc.ClientRTT = c.ClientRTT
		*c = fc
	})
	v2 := apps.TextCompletion()
	v2.Manifest.Version = "2.0.0"
	v2.BinarySize = fleetV2Size
	e.MustRegister(v2)
	return e
}

// fleetWarmup is both legs' warm-up launch, by explicit version.
func fleetWarmup(prompt string) pie.LaunchSpec {
	return pie.Spec("text_completion@1.0.0", marshalParams(apps.CompletionParams{Prompt: prompt, MaxTokens: 2}))
}

// fleetSpec is one interactive-class launch of the pinned program.
func fleetSpec(prompt string, ack bool) pie.LaunchSpec {
	sp := pie.Spec("text_completion", marshalParams(apps.CompletionParams{
		Prompt: prompt, MaxTokens: fleetMaxTokens, FirstTokenAck: ack,
	}))
	sp.Class = "interactive"
	return sp
}

// FleetLeg is one measured upgrade leg.
type FleetLeg struct {
	Done, Failed    int
	TTFTP95         time.Duration // whole-run client TTFT p95
	WindowP95       time.Duration // TTFT p95 of launches at/after the manifest apply
	WindowN         int
	Makespan        time.Duration
	UpgradeRequeues int
	Prewarms        int
	Generation      int
	Converged       bool
	FinalPin        string
	// Fingerprint folds every decision record, every TTFT sample,
	// and the makespan — the determinism probe compares it across two
	// same-seed rolling runs. Excluded from JSON artifacts.
	Fingerprint string `json:"-"`
}

// FleetReloadLeg is the pool-count hot-reload run.
type FleetReloadLeg struct {
	Done, Dropped int
	Applies       int // manifest generations applied (grow + shrink)
	Activations   int
	Drains        int
	FinalServing  int
	Converged     bool
	Makespan      time.Duration
}

// FleetResult is the full experiment.
type FleetResult struct {
	Built, Desired int
	Tasks          int
	Steady         FleetLeg
	Rolling        FleetLeg
	Naive          FleetLeg
	// RollingRatio/NaiveRatio compare each upgrade leg's window p95 to the
	// steady leg's over the same task window (the acceptance bound is 1.5x).
	RollingRatio, NaiveRatio float64
	Deterministic            bool
	Reload                   FleetReloadLeg
}

// FleetSweep runs the three upgrade legs, a same-seed replay of the
// rolling leg (the determinism probe), and the hot-reload leg, each on an
// independent engine.
func FleetSweep(o Options) FleetResult {
	out := FleetResult{
		Built:   fleetPoolBuilt,
		Desired: fleetPoolCount,
		Tasks:   fleetIntConc * o.scale(14, 9),
	}
	legs := make([]FleetLeg, 4)
	parallelFor(5, func(i int) {
		switch i {
		case 0:
			legs[0] = runFleetLeg(o, fleetSteady, nil)
		case 1:
			legs[1] = runFleetLeg(o, fleetRolling, nil)
		case 2:
			legs[2] = runFleetLeg(o, fleetNaive, nil)
		case 3:
			// Same seed, same leg: the replay the determinism claim is
			// judged on.
			legs[3] = runFleetLeg(o, fleetRolling, nil)
		case 4:
			out.Reload = runFleetReload(o)
		}
	})
	out.Steady, out.Rolling, out.Naive = legs[0], legs[1], legs[2]
	out.Deterministic = legs[1].Fingerprint != "" && legs[1].Fingerprint == legs[3].Fingerprint
	if out.Steady.WindowP95 > 0 {
		out.RollingRatio = float64(out.Rolling.WindowP95) / float64(out.Steady.WindowP95)
		out.NaiveRatio = float64(out.Naive.WindowP95) / float64(out.Steady.WindowP95)
	}
	return out
}

// runFleetLeg drives one upgrade leg: closed-loop interactive clients on
// the pinned program, with the repin (if any) applied by the client that
// draws the trigger task — one third of the way through the workload —
// seen by tap.
func runFleetLeg(o Options, mode string, tap legTap) FleetLeg {
	perWorker := o.scale(14, 9)
	total := fleetIntConc * perWorker
	triggerTask := total / 3

	rc := fleet.Reconcile{
		Interval:      fleet.Duration(5 * time.Millisecond),
		DrainDeadline: fleet.Duration(60 * time.Millisecond),
	}
	if mode == fleetNaive {
		// The restart baseline: the whole old fleet in one batch, no
		// grace, no prewarm.
		off := false
		rc = fleet.Reconcile{
			Interval:      fleet.Duration(5 * time.Millisecond),
			DrainDeadline: fleet.Duration(-time.Millisecond),
			UpgradeBatch:  -1,
			Prewarm:       &off,
		}
	}
	boot := fleetBootManifest(rc)
	var upgradeTo *fleet.Manifest
	if mode != fleetSteady {
		upgradeTo = boot.Clone()
		upgradeTo.Programs[0].Version = "2.0.0"
	}
	e := fleetEngine(o.seed(), boot)
	var decisions []trace.Decision
	e.Cluster().OnDecision = func(d trace.Decision) { decisions = append(decisions, d) }
	see := tap.start(e)

	promptRNG := sim.NewRNG(o.seed() ^ 0xf1ee70)
	prompts := make([]string, 64)
	for i := range prompts {
		prompts[i] = strings.Repeat("fleet manifest upgrade probe ", 1+promptRNG.Intn(8))
	}

	var leg FleetLeg
	type sample struct{ t0, d time.Duration }
	var samples []sample
	applyAt := time.Duration(-1)
	// The warm-up populates the v1 artifact path before measurement; the
	// explicit version ref keeps it off 2.0.0 while the boot pin is still one
	// controller tick away. The idle tail lets the rollout's last batches and
	// the drain bookkeeping finish inside the run.
	start, makespan := runLoad(e, "fleet leg", fleetWarmup(prompts[0]), fleetIdleTail, loadClass{
		name: "client", clients: fleetIntConc, tasks: total, ack: true,
		spec: func(task int) pie.LaunchSpec {
			if task == triggerTask {
				// The steady leg marks the window without applying anything,
				// so all three legs window identically.
				applyAt = e.Now()
				if upgradeTo != nil {
					if err := e.ApplyFleet(upgradeTo); err != nil {
						panic(fmt.Sprintf("eval: fleet apply: %v", err))
					}
				}
			}
			return fleetSpec(prompts[task%len(prompts)], true)
		},
		done: func(o outcome) {
			see(o)
			if o.Msg == "first-token" {
				samples = append(samples, sample{o.T0, o.First - o.T0})
			}
			if o.Err != nil {
				leg.Failed++
				return
			}
			leg.Done++
		},
	})
	leg.Makespan = makespan

	all := &metrics.Series{Name: "client-ttft"}
	win := &metrics.Series{Name: "client-ttft-window"}
	for _, s := range samples {
		all.Add(s.d)
		if applyAt >= 0 && s.t0 >= applyAt {
			win.Add(s.d)
			leg.WindowN++
		}
	}
	leg.TTFTP95, leg.WindowP95 = all.Percentile(95), win.Percentile(95)
	leg.UpgradeRequeues = e.Stats().UpgradeRequeues
	ctl := e.FleetController()
	fst := ctl.Status()
	leg.Prewarms = fst.Prewarms
	leg.Generation = fst.Generation
	leg.Converged = fst.Converged
	for _, p := range fst.Programs {
		leg.FinalPin = p.Version
	}
	var fb strings.Builder
	fmt.Fprintf(&fb, "mode=%s makespan=%v done=%d failed=%d requeues=%d prewarms=%d\n",
		mode, leg.Makespan, leg.Done, leg.Failed, leg.UpgradeRequeues, leg.Prewarms)
	for _, s := range samples {
		fmt.Fprintf(&fb, "%v %v\n", s.t0-start, s.d)
	}
	for _, d := range decisions {
		fmt.Fprintf(&fb, "%+v\n", d)
	}
	leg.Fingerprint = fb.String()
	return leg
}

// runFleetReload drives the pool-count hot reload: boot at 2 serving, grow
// to 5 a quarter of the way through, shrink to 3 at the halfway mark, and
// verify every in-flight session survives the churn.
func runFleetReload(o Options) FleetReloadLeg {
	conc := 6
	perWorker := o.scale(12, 8)
	total := conc * perWorker
	boot := fleetBootManifest(fleet.Reconcile{Interval: fleet.Duration(2 * time.Millisecond)})
	boot.Pools[0].Count = 2
	grow := boot.Clone()
	grow.Pools[0].Count = 5
	shrink := boot.Clone()
	shrink.Pools[0].Count = 3
	e := fleetEngine(o.seed(), boot)

	promptRNG := sim.NewRNG(o.seed() ^ 0x9e10ad)
	prompts := make([]string, 32)
	for i := range prompts {
		prompts[i] = strings.Repeat("fleet pool reload probe ", 1+promptRNG.Intn(6))
	}

	var leg FleetReloadLeg
	// The idle tail is for the shrink's two-phase drains, which need idle
	// replicas to retire (KV exports migrate, then the replica deactivates).
	_, leg.Makespan = runLoad(e, "fleet reload", fleetWarmup(prompts[0]), fleetIdleTail, loadClass{
		name: "client", clients: conc, tasks: total,
		spec: func(task int) pie.LaunchSpec {
			switch task {
			case total / 4:
				if err := e.ApplyFleet(grow); err != nil {
					panic(fmt.Sprintf("eval: fleet grow: %v", err))
				}
			case total / 2:
				if err := e.ApplyFleet(shrink); err != nil {
					panic(fmt.Sprintf("eval: fleet shrink: %v", err))
				}
			}
			return fleetSpec(prompts[task%len(prompts)], false)
		},
		done: func(o outcome) {
			if o.Err != nil {
				leg.Dropped++
				return
			}
			leg.Done++
		},
	})
	fst := e.FleetController().Status()
	leg.Applies = fst.Generation
	leg.Activations = fst.Activations
	leg.Drains = fst.Drains
	leg.Converged = fst.Converged
	if len(fst.Pools) > 0 {
		leg.FinalServing = fst.Pools[0].Serving
	}
	return leg
}

// Table renders the experiment in paper style.
func (r FleetResult) Table() string {
	var b strings.Builder
	t := &metrics.Table{
		Title: fmt.Sprintf("Fleet manifests: rolling upgrade of text_completion 1.0.0 -> 2.0.0 under load (%d/%d replicas serving, %d tasks, repin at 1/3)",
			r.Desired, r.Built, r.Tasks),
		Header: []string{"leg", "done", "failed", "ttft p95", "window p95", "vs steady", "requeues", "prewarms", "gen", "converged", "final pin"},
	}
	row := func(name string, l FleetLeg, ratio float64) {
		vs := "-"
		if ratio > 0 {
			vs = fmt.Sprintf("%.2fx", ratio)
		}
		t.AddRow(name,
			fmt.Sprint(l.Done),
			fmt.Sprint(l.Failed),
			metrics.Ms(l.TTFTP95),
			metrics.Ms(l.WindowP95),
			vs,
			fmt.Sprint(l.UpgradeRequeues),
			fmt.Sprint(l.Prewarms),
			fmt.Sprint(l.Generation),
			fmt.Sprint(l.Converged),
			l.FinalPin)
	}
	row("steady (pin 1.0.0)", r.Steady, 0)
	row("rolling upgrade", r.Rolling, r.RollingRatio)
	row("naive restart", r.Naive, r.NaiveRatio)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nfleet: rolling window p95 %.2fx steady (bound 1.5x), naive %.2fx; %d/%d rolling sessions done with %d requeues; replay byte-identical: %v\n",
		r.RollingRatio, r.NaiveRatio, r.Rolling.Done, r.Tasks, r.Rolling.UpgradeRequeues, r.Deterministic)
	fmt.Fprintf(&b, "fleet: hot reload 2 -> 5 -> 3 converged=%v final serving=%d (%d activations, %d drains), %d/%d sessions done, %d dropped\n",
		r.Reload.Converged, r.Reload.FinalServing, r.Reload.Activations, r.Reload.Drains, r.Reload.Done, r.Reload.Done+r.Reload.Dropped, r.Reload.Dropped)
	return b.String()
}

// Headline is the experiment's gated numbers.
func (r FleetResult) Headline() map[string]float64 {
	h := map[string]float64{
		"steady-window-p95-ms":  ms(r.Steady.WindowP95),
		"rolling-window-p95-ms": ms(r.Rolling.WindowP95),
		"naive-window-p95-ms":   ms(r.Naive.WindowP95),
		"rolling-vs-steady-x":   r.RollingRatio,
		"naive-vs-steady-x":     r.NaiveRatio,
		"rolling-done":          float64(r.Rolling.Done),
		"rolling-failed":        float64(r.Rolling.Failed),
		"rolling-requeues":      float64(r.Rolling.UpgradeRequeues),
		"naive-requeues":        float64(r.Naive.UpgradeRequeues),
		"rolling-prewarms":      float64(r.Rolling.Prewarms),
		"reload-final-serving":  float64(r.Reload.FinalServing),
		"reload-dropped":        float64(r.Reload.Dropped),
		"reload-done":           float64(r.Reload.Done),
	}
	if r.Deterministic {
		h["deterministic"] = 1
	}
	if r.Rolling.Converged && r.Naive.Converged && r.Reload.Converged {
		h["converged"] = 1
	}
	return h
}

package eval

import (
	"fmt"
	"strings"
	"time"

	"pie"
	"pie/inferlet"
	"pie/internal/metrics"
)

// Coldstart experiment (deployment API v2; reproduces Fig. 9's economics
// at the cluster level): what does the upload + JIT pipeline cost a cold
// launch, how much does a replica's warm-artifact cache recover, and does
// program-affinity placement keep a multi-replica cluster warm?
//
// Three questions:
//
//  1. Gap: on one replica, the first launch of a program pays upload +
//     JIT sized by its binary; every later launch hits the artifact cache.
//     The cold/warm launch-latency ratio is the headline (the acceptance
//     bar is warm >= 3x cheaper).
//  2. Placement: a 4-replica cluster serving a rotating set of programs,
//     round-robin versus program-affinity. Round-robin re-pays the JIT
//     once per (program, replica) pair; affinity pays once per program
//     and routes launches to the warm holder.
//  3. Determinism: same-seed sweeps produce byte-identical documents
//     (TestColdstartSweepDeterministic enforces this).
//
// The probe inferlet acks and exits — pure launch-path latency, the
// paper's Fig. 9 methodology with generation stripped out.

// Coldstart workload shape.
const (
	coldstartProbeKB   = 256 // probe binary for the single-replica gap leg
	coldstartWarmN     = 16  // warm launches averaged in the gap leg
	coldstartReplicas  = 4
	coldstartPrograms  = 6
	coldstartConc      = 8
	coldstartBaseKB    = 128 // program i ships (base + 48*i) KB
	coldstartPerProgKB = 48
)

// ColdstartLeg is one cluster run under a placement policy.
type ColdstartLeg struct {
	Policy       string
	Done         int
	ColdLaunches int
	MeanLaunch   time.Duration // mean launch->ack latency
	Makespan     time.Duration
	ReqPerSec    float64
}

// ColdstartResult holds the full experiment.
type ColdstartResult struct {
	Cold  time.Duration // first launch on a cold replica (upload + JIT)
	Warm  time.Duration // mean warm launch (artifact cache hit)
	Ratio float64       // Cold / Warm

	RR ColdstartLeg // round-robin
	PA ColdstartLeg // program-affinity
}

// coldstartProbe is the launch-latency probe: ack the client and exit.
func coldstartProbe(name string, sizeKB int) inferlet.Program {
	return inferlet.Program{
		Name:       name,
		BinarySize: sizeKB << 10,
		Manifest:   inferlet.Manifest{Version: "1.0.0"},
		Run: func(s inferlet.Session) error {
			s.Send("ack")
			return nil
		},
	}
}

// ColdstartSweep runs the full experiment. Each leg builds an independent
// engine on a fresh virtual clock; legs fan out across workers.
func ColdstartSweep(o Options) ColdstartResult {
	var out ColdstartResult
	total := o.scale(96, 48)
	parallelFor(3, func(i int) {
		switch i {
		case 0:
			out.Cold, out.Warm = coldstartGap(o.seed())
		case 1:
			out.RR = coldstartCluster(o.seed(), pie.PlaceRoundRobin, total)
		default:
			out.PA = coldstartCluster(o.seed(), pie.PlaceProgramAffinity, total)
		}
	})
	if out.Warm > 0 {
		out.Ratio = float64(out.Cold) / float64(out.Warm)
	}
	return out
}

// coldstartGap measures the single-replica cold/warm launch gap with one
// sequential prober (not a load: no warm-up, no fan-out), whose first
// launch is the cold one.
func coldstartGap(seed uint64) (cold, warm time.Duration) {
	e := newPieEngine(seed, nil)
	e.MustRegister(coldstartProbe("coldstart_probe", coldstartProbeKB))
	warmSum := time.Duration(0)
	e.Go("driver", func() {
		for i := 0; i <= coldstartWarmN; i++ {
			out := attempt(e, i, pie.Spec("coldstart_probe"), true)
			lat, ok := out.ackLatency(e)
			if !ok {
				panic(fmt.Sprintf("eval: coldstart probe %d: %v", i, out.Err))
			}
			if i == 0 {
				cold = lat
			} else {
				warmSum += lat
			}
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return cold, warmSum / coldstartWarmN
}

// coldstartCluster drives the repeated-program workload against one
// placement policy and reports launch-latency and cold-launch totals.
func coldstartCluster(seed uint64, placement pie.PlacementPolicy, total int) ColdstartLeg {
	e := newPieEngine(seed, func(c *pie.Config) {
		c.Replicas = coldstartReplicas
		c.Placement = placement
	})
	for i := 0; i < coldstartPrograms; i++ {
		e.MustRegister(coldstartProbe(
			fmt.Sprintf("coldstart_probe_%d", i),
			coldstartBaseKB+coldstartPerProgKB*i))
	}
	leg := ColdstartLeg{Policy: placement.String()}
	lat := &metrics.Series{}
	// No warm-up: the cold launches are what this leg counts.
	_, leg.Makespan = runLoad(e, "coldstart cluster", pie.LaunchSpec{}, 0, loadClass{
		name: "client", clients: coldstartConc, tasks: total, ack: true,
		spec: func(task int) pie.LaunchSpec {
			// Hash the task index so the program sequence does not alias
			// with round-robin's placement cycle.
			return pie.Spec(fmt.Sprintf("coldstart_probe_%d",
				int((uint64(task)*2654435761)>>16)%coldstartPrograms))
		},
		done: func(o outcome) {
			if l, ok := o.ackLatency(e); ok {
				lat.Add(l)
				leg.Done++
			}
		},
	})
	leg.MeanLaunch = lat.Mean()
	leg.ColdLaunches = e.Stats().ColdLaunches
	leg.ReqPerSec = metrics.Throughput(leg.Done, leg.Makespan)
	return leg
}

// Table renders the experiment in paper style.
func (r ColdstartResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Coldstart: deployable-artifact launch economics (probe binary %d KB)\n",
		coldstartProbeKB)
	fmt.Fprintf(&b, "  cold launch (upload + JIT): %s   warm launch (artifact cache): %s   gap: %.2fx\n",
		metrics.Ms(r.Cold), metrics.Ms(r.Warm), r.Ratio)
	t := &metrics.Table{
		Title: fmt.Sprintf("\nColdstart: placement on a repeated-program workload (%d replicas, %d programs)",
			coldstartReplicas, coldstartPrograms),
		Header: []string{"placement", "done", "cold", "mean launch", "req/s"},
	}
	for _, leg := range []ColdstartLeg{r.RR, r.PA} {
		t.AddRow(leg.Policy, fmt.Sprint(leg.Done), fmt.Sprint(leg.ColdLaunches),
			metrics.Ms(leg.MeanLaunch), fmt.Sprintf("%.2f", leg.ReqPerSec))
	}
	b.WriteString(t.String())
	return b.String()
}

// Headline is the experiment's gated numbers.
func (r ColdstartResult) Headline() map[string]float64 {
	return map[string]float64{
		"cold-launch-ms":     ms(r.Cold),
		"warm-launch-ms":     ms(r.Warm),
		"cold-warm-gap-x":    r.Ratio,
		"rr-cold-launches":   float64(r.RR.ColdLaunches),
		"pa-cold-launches":   float64(r.PA.ColdLaunches),
		"rr-mean-launch-ms":  ms(r.RR.MeanLaunch),
		"pa-mean-launch-ms":  ms(r.PA.MeanLaunch),
		"pa-vs-rr-speedup-x": r.PA.ReqPerSec / r.RR.ReqPerSec,
	}
}

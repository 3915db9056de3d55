package eval

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/metrics"
)

// Fault-tolerance chaos experiment (beyond the paper): a mixed-priority
// closed-loop workload runs twice on an 8-replica cluster — once
// undisturbed, once with faultKills replicas crash-stopped mid-workload
// while the health monitor, launch retry, and saturation shedding are
// armed. The claims under test:
//
//  1. Recovery: both crashes are detected and the stranded in-flight
//     launches are requeued onto survivors (or fail typed) — nothing
//     hangs, and no KV pages leak on the survivors.
//  2. Graceful degradation: high-priority goodput holds (>= 80% of the
//     no-fault leg) while best-effort launches absorb the capacity loss
//     through shedding.
//  3. Determinism: the faulted run is byte-identical under the same seed,
//     crashes included.

// Chaos workload shape.
const (
	faultReplicas  = 8
	faultKills     = 2
	faultHPConc    = 24 // high-priority closed-loop clients
	faultBEConc    = 8  // best-effort closed-loop clients
	faultMaxTokens = 16
)

// faultRetry is the high-priority launch retry policy: survive replica
// death with capped, jittered backoff inside a hard budget.
var faultRetry = pie.RetryPolicy{
	MaxAttempts: 4,
	BaseBackoff: 2 * time.Millisecond,
	MaxBackoff:  20 * time.Millisecond,
	Budget:      200 * time.Millisecond,
}

// FaultLeg is one measured run of the chaos workload.
type FaultLeg struct {
	HPDone    int // high-priority launches completed
	HPFailed  int // high-priority launches that failed typed
	BEDone    int // best-effort launches completed
	BEShed    int // best-effort launches rejected with ErrOverloaded
	BEFailed  int // best-effort launches that failed typed (replica loss)
	Tokens    int
	Makespan  time.Duration
	HPGoodput float64 // completed high-priority launches per second

	// Engine fault counters (all zero on the baseline leg).
	ReplicasLost int
	Replacements int
	Requeues     int
	Retries      int
	Sheds        int
	DetectTime   time.Duration // cumulative crash -> declared-dead latency

	PerReplica []metrics.ReplicaStats
}

// FaultsResult holds both legs plus the headline degradation ratio.
type FaultsResult struct {
	Replicas int
	Killed   int
	Baseline FaultLeg
	Faulted  FaultLeg
	// GoodputRetained is faulted HP goodput over baseline HP goodput.
	GoodputRetained float64
}

// FaultsSweep runs the chaos experiment: baseline and faulted legs on
// independent engines (same seed), fanned out across workers.
func FaultsSweep(o Options) FaultsResult {
	out := FaultsResult{Replicas: faultReplicas, Killed: faultKills}
	parallelFor(2, func(i int) {
		if i == 0 {
			out.Baseline = runFaultLeg(o, false)
		} else {
			out.Faulted = runFaultLeg(o, true)
		}
	})
	if out.Baseline.HPGoodput > 0 {
		out.GoodputRetained = out.Faulted.HPGoodput / out.Baseline.HPGoodput
	}
	return out
}

// faultPlan schedules the crash-stops mid-workload: the quick workload
// runs a few hundred virtual milliseconds, the full one several times
// that, so the kill times scale with the load.
func faultPlan(o Options) pie.FaultPlan {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	first := at(o.scale(800, 400))
	gap := at(o.scale(250, 150))
	var plan pie.FaultPlan
	for k := 0; k < faultKills; k++ {
		plan.Events = append(plan.Events, pie.FaultEvent{
			At:      first + time.Duration(k)*gap,
			Replica: k + 1, // replica 0 stays up: the cluster keeps a quorum
			Kind:    pie.FaultCrash,
		})
	}
	return plan
}

// runFaultLeg drives the mixed-priority workload once.
func runFaultLeg(o Options, faulted bool) FaultLeg {
	hpTotal := o.scale(240, 96)
	beTotal := o.scale(120, 48)
	e := newPieEngine(o.seed(), func(c *pie.Config) {
		c.Replicas = faultReplicas
		c.Placement = pie.PlaceLeastLoaded
		if faulted {
			c.Health = pie.HealthConfig{
				Enabled:      true,
				Interval:     2 * time.Millisecond,
				SuspectAfter: 6 * time.Millisecond,
				DeadAfter:    15 * time.Millisecond,
				HangTimeout:  50 * time.Millisecond,
			}
			// QueueDepth sits just above the healthy-cluster steady state
			// (~4 outstanding calls per replica with 32 clients on 8
			// replicas), so shedding engages only while the cluster is
			// degraded to 6 survivors.
			c.Shed = pie.ShedConfig{Enabled: true, KVWatermark: 0.9, QueueDepth: 4.5}
			c.Faults = faultPlan(o)
		}
	})
	params := marshalParams(apps.CompletionParams{
		Prompt:    "fault tolerance probe request",
		MaxTokens: faultMaxTokens,
	})
	var leg FaultLeg
	completed := func(o outcome, done *int) {
		_, _, tok := o.H.Stats()
		leg.Tokens += tok
		*done++
	}
	hp := pie.Spec("text_completion", params)
	hp.Retry = faultRetry
	be := pie.Spec("text_completion", params)
	be.Priority = -1
	// The warm-up populates the binary cache before any fault fires.
	_, leg.Makespan = runLoad(e, "fault leg", pie.Spec("text_completion", params), 0,
		loadClass{
			name: "hp-client", clients: faultHPConc, tasks: hpTotal,
			spec: func(int) pie.LaunchSpec { return hp },
			done: func(o outcome) {
				if o.Err != nil {
					leg.HPFailed++
					return
				}
				completed(o, &leg.HPDone)
			},
		},
		loadClass{
			name: "be-client", clients: faultBEConc, tasks: beTotal,
			spec: func(int) pie.LaunchSpec { return be },
			done: func(o outcome) {
				switch {
				case o.Err == nil:
					completed(o, &leg.BEDone)
				case o.H == nil && errors.Is(o.Err, pie.ErrOverloaded):
					leg.BEShed++
				default:
					leg.BEFailed++
				}
			},
		})
	leg.HPGoodput = metrics.Throughput(leg.HPDone, leg.Makespan)
	st := e.Stats()
	leg.ReplicasLost = st.ReplicasLost
	leg.Replacements = st.Replacements
	leg.Requeues = st.Requeues
	leg.Retries = st.Retries
	leg.Sheds = st.Sheds
	leg.DetectTime = st.DetectTime
	leg.PerReplica = e.ReplicaStats()
	return leg
}

// Table renders the experiment in paper style.
func (r FaultsResult) Table() string {
	var b strings.Builder
	t := &metrics.Table{
		Title: fmt.Sprintf("Faults: chaos workload, %d replicas, %d crash-stopped mid-run (high-priority retries, best-effort shedding)",
			r.Replicas, r.Killed),
		Header: []string{"leg", "hp done/failed", "hp goodput", "be done/shed/failed", "makespan", "requeues", "retries"},
	}
	row := func(name string, l FaultLeg) {
		t.AddRow(name,
			fmt.Sprintf("%d/%d", l.HPDone, l.HPFailed),
			fmt.Sprintf("%.1f/s", l.HPGoodput),
			fmt.Sprintf("%d/%d/%d", l.BEDone, l.BEShed, l.BEFailed),
			metrics.Ms(l.Makespan),
			fmt.Sprint(l.Requeues), fmt.Sprint(l.Retries))
	}
	row("baseline", r.Baseline)
	row("faulted", r.Faulted)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nFaults: %d replicas lost (detected in %v total), %d spares activated, "+
		"goodput retained %.0f%%\n",
		r.Faulted.ReplicasLost, r.Faulted.DetectTime.Round(time.Microsecond),
		r.Faulted.Replacements, r.GoodputRetained*100)
	b.WriteString(metrics.ReplicaTable(r.Faulted.PerReplica).String())
	return b.String()
}

// Headline is the experiment's gated numbers.
func (r FaultsResult) Headline() map[string]float64 {
	return map[string]float64{
		"replicas-lost":       float64(r.Faulted.ReplicasLost),
		"detect-ms":           ms(r.Faulted.DetectTime),
		"requeues":            float64(r.Faulted.Requeues),
		"sheds":               float64(r.Faulted.Sheds),
		"hp-goodput-retained": r.GoodputRetained,
		"baseline-hp-per-sec": r.Baseline.HPGoodput,
		"faulted-hp-per-sec":  r.Faulted.HPGoodput,
		"faulted-hp-failed":   float64(r.Faulted.HPFailed),
		"faulted-be-failed":   float64(r.Faulted.BEFailed),
	}
}

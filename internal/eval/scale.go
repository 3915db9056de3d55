package eval

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"pie"
	"pie/internal/sim"
	"pie/internal/trace"
)

// Fleet-size sweep (beyond the paper): the same seeded closed-loop
// completion workload — N clients on N unified replicas — replayed on
// fleets of growing size, up to 128 replicas at -quick and 512 at full
// scale, on the one cluster engine: every replica's stack on one shared
// virtual clock, least-loaded placement, the default health monitor
// on. Two claims under test:
//
//   - capability: a 100+ replica fleet simulates to completion with every
//     session accounted for;
//   - determinism: the largest leg replayed at GOMAXPROCS=1 produces a
//     byte-identical transcript. The two runs' events/sec are printed
//     beside it (wall-clock only — never part of the gated headline).

// ScalePoint is one fleet size's outcome.
type ScalePoint struct {
	Replicas    int
	Sessions    int
	Completions int
	Failures    int
	AvgLatency  time.Duration
	Makespan    time.Duration // virtual
	Events      uint64
	EventsPS    float64 // wall-clock
}

// ScaleResult is the sweep outcome plus the GOMAXPROCS probe at the
// largest leg.
type ScaleResult struct {
	Sweep []ScalePoint

	// GOMAXPROCS probe at the largest leg: the rerun on one core must match
	// the first run's transcript byte for byte.
	MaxReplicas   int
	Deterministic bool
	GoMaxProcs    int     // of the sweep's own runs
	EventsPS1     float64 // the largest leg's events/sec at GOMAXPROCS=1 (wall-clock)

	transcripts []string // per-leg, deterministic (no wall-clock content)
}

// Summary concatenates every leg's deterministic transcript — the
// byte-identity witness used by the GOMAXPROCS determinism tests.
func (r *ScaleResult) Summary() string { return strings.Join(r.transcripts, "\n====\n") }

// runScaleLeg replays the workload on a fleet of n replicas and returns the
// deterministic transcript plus the measured point.
func runScaleLeg(seed uint64, n, perClient int) (string, ScalePoint) {
	e := newPieEngine(seed, func(c *pie.Config) {
		c.Replicas = n
		c.Placement = pie.PlaceLeastLoaded
		c.Health = pie.HealthConfig{Enabled: true}
	})
	placed := map[uint64]int{} // by session
	e.Cluster().OnDecision = func(d trace.Decision) {
		if d.Kind == trace.Place {
			placed[d.Session] = d.Replica
		}
	}
	p := ScalePoint{Replicas: n}
	var lines []string
	var latSum time.Duration
	for c := 0; c < n; c++ {
		e.Go(fmt.Sprintf("client-%d", c), func() {
			rng := sim.NewRNG(seed ^ (uint64(c+1) * 0x5851F42D4C957F2D))
			for i := 0; i < perClient; i++ {
				e.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
				params := fmt.Sprintf(`{"prompt":%q,"max_tokens":%d}`,
					strings.Repeat("fleet scaling probe ", 1+rng.Intn(4)), 4+rng.Intn(8))
				p.Sessions++
				o := attempt(e, c*perClient+i, pie.Spec("text_completion", params), false)
				err, tok, rep := o.Err, 0, -1
				if o.H != nil {
					_, _, tok = o.H.Stats()
					rep = placed[o.H.Session()]
				}
				lat := o.End - o.T0
				if err == nil {
					p.Completions++
					latSum += lat
				} else {
					p.Failures++
				}
				lines = append(lines, fmt.Sprintf("c%d#%d err=%v rep=%d tok=%d lat=%v",
					c, i, err, rep, tok, lat))
			}
		})
	}
	wall := runEngine(e, fmt.Sprintf("scale sweep run (%d replicas)", n))
	p.Makespan = e.Now()
	p.Events = e.Clock().Events()
	p.EventsPS = float64(p.Events) / wall.Seconds()
	if p.Completions > 0 {
		p.AvgLatency = latSum / time.Duration(p.Completions)
	}
	transcript := strings.Join(lines, "\n") +
		fmt.Sprintf("\nreplicas=%d sessions=%d done=%d fail=%d lost=%d events=%d makespan=%v",
			p.Replicas, p.Sessions, p.Completions, p.Failures, e.Stats().ReplicasLost, p.Events, p.Makespan)
	return transcript, p
}

// ScaleSweep runs the fleet-size legs, then replays the largest leg at
// GOMAXPROCS=1 for the determinism probe.
func ScaleSweep(o Options) *ScaleResult {
	legs := []int{1, 4, 16, 64, 128, 512}
	if o.Quick {
		legs = []int{1, 8, 32, 128}
	}
	return scaleSweep(o, legs)
}

func scaleSweep(o Options, legs []int) *ScaleResult {
	perClient := o.scale(4, 2)
	r := &ScaleResult{GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, n := range legs {
		tr, p := runScaleLeg(o.seed(), n, perClient)
		r.Sweep = append(r.Sweep, p)
		r.transcripts = append(r.transcripts, tr)
	}
	last := r.Sweep[len(r.Sweep)-1]
	r.MaxReplicas = last.Replicas

	prev := runtime.GOMAXPROCS(1)
	tr1, p1 := runScaleLeg(o.seed(), last.Replicas, perClient)
	runtime.GOMAXPROCS(prev)
	r.EventsPS1 = p1.EventsPS
	r.Deterministic = tr1 == r.transcripts[len(r.transcripts)-1]
	return r
}

// Table renders the sweep in pie-bench style.
func (r *ScaleResult) Table() string {
	var b strings.Builder
	b.WriteString("Fleet-size sweep (N clients on N unified replicas, one shared clock, health monitor on)\n")
	fmt.Fprintf(&b, "%-9s %9s %6s %5s %11s %11s %11s %13s\n",
		"replicas", "sessions", "done", "fail", "avg-lat", "makespan", "events", "events/sec")
	for _, p := range r.Sweep {
		fmt.Fprintf(&b, "%-9d %9d %6d %5d %11v %11v %11d %13.0f\n",
			p.Replicas, p.Sessions, p.Completions, p.Failures,
			p.AvgLatency.Round(time.Microsecond), p.Makespan.Round(time.Microsecond),
			p.Events, p.EventsPS)
	}
	det := "BYTE-IDENTICAL"
	if !r.Deterministic {
		det = "DIVERGED (bug!)"
	}
	fmt.Fprintf(&b, "gomaxprocs probe @%d replicas: %.0f ev/s at gomaxprocs=%d, %.0f ev/s at gomaxprocs=1 — transcripts %s\n",
		r.MaxReplicas, r.Sweep[len(r.Sweep)-1].EventsPS, r.GoMaxProcs, r.EventsPS1, det)
	return b.String()
}

// Headline is the experiment's gated numbers. It carries only
// virtual-time-deterministic values: events/sec at either GOMAXPROCS is a
// wall-clock number that varies with machine load, so it appears in the
// printed table but never in what the bench gate compares.
func (r *ScaleResult) Headline() map[string]float64 {
	h := map[string]float64{"replicas-max": float64(r.MaxReplicas)}
	if r.Deterministic {
		h["deterministic"] = 1
	}
	for _, p := range r.Sweep {
		h[fmt.Sprintf("fleet-%d-done", p.Replicas)] = float64(p.Completions)
		h[fmt.Sprintf("fleet-%d-events", p.Replicas)] = float64(p.Events)
	}
	h["fleet-max-avg-lat-ms"] = ms(r.Sweep[len(r.Sweep)-1].AvgLatency)
	return h
}

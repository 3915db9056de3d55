package eval

import (
	"fmt"
	"time"

	"pie"
	"pie/apps"
	"pie/inferlet"
	"pie/internal/metrics"
	"pie/internal/sim"
	"pie/internal/trace"
)

// Figure 9: average launch latency versus number of simultaneous inferlet
// launches, cold (upload + JIT) vs warm (cached binary). Paper: warm
// 10–50 ms, cold 35–81 ms up to 896 launches, pooled allocation keeping
// the floor low.

// Fig9Point is one (count, cold/warm) sample.
type Fig9Point struct {
	Count int
	Cold  time.Duration
	Warm  time.Duration
}

// Fig9Result is the launch-latency curve.
type Fig9Result struct {
	Points []Fig9Point
}

// Figure9 measures end-to-end launch→ack latency from the client, like
// the paper's modified text-completion probe.
func Figure9(o Options) Fig9Result {
	counts := []int{1, 64, 128, 256, 512, 896}
	if o.Quick {
		counts = []int{1, 64, 256}
	}
	// Each (count, cold/warm) probe is its own engine; fan all of them
	// out. Counts are stamped serially up front so the two legs of a
	// point never write the same field concurrently.
	out := Fig9Result{Points: make([]Fig9Point, len(counts))}
	for i, n := range counts {
		out.Points[i].Count = n
	}
	parallelFor(2*len(counts), func(i int) {
		n := counts[i/2]
		if i%2 == 0 {
			out.Points[i/2].Cold = launchProbe(o.seed(), n, false)
		} else {
			out.Points[i/2].Warm = launchProbe(o.seed(), n, true)
		}
	})
	return out
}

// launchProbe launches n ack-probes simultaneously and returns the mean
// request→ack latency. Warm runs pre-compile the binary with one launch.
func launchProbe(seed uint64, n int, warm bool) time.Duration {
	e := newPieEngine(seed, nil)
	params := marshalParams(apps.CompletionParams{Ack: true, MaxTokens: 1, Prompt: "x"})
	probe := pie.Spec("text_completion", params)
	lat := &metrics.Series{}
	e.Go("driver", func() {
		if warm {
			attempt(e, 0, probe, true)
		}
		g := sim.NewGroup(e.Clock())
		for i := 0; i < n; i++ {
			g.Go("launcher", func() {
				// The ack is the measured latency; the tail of the
				// generation happens beyond it.
				if l, ok := attempt(e, i, probe, true).ackLatency(e); ok {
					lat.Add(l)
				}
			})
		}
		g.Wait()
	})
	runEngine(e, "fig9 launch run")
	return lat.Mean()
}

// Table renders the curve.
func (r Fig9Result) Table() string {
	t := &metrics.Table{
		Title:  "Figure 9: inferlet launch latency (paper: warm 10-50ms, cold 35-81ms)",
		Header: []string{"launches", "cold", "warm"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", p.Count), metrics.Ms(p.Cold), metrics.Ms(p.Warm))
	}
	return t.String()
}

// Figure 10: per-API-call overhead by handling layer versus concurrent
// inferlets, batch scheduling disabled. Paper: control layer <30 µs;
// inference layer 10–300 µs, growing with concurrency (single-threaded
// deserialization).

// Fig10Point is one concurrency sample.
type Fig10Point struct {
	Inferlets      int
	ControlLayer   time.Duration
	InferenceLayer time.Duration
}

// Fig10Result is the overhead curve.
type Fig10Result struct {
	Points []Fig10Point
}

// apiProbe measures per-call overhead at one concurrency level:
// control-layer calls are timed inside the inferlet (they are pure
// control-plane work); inference-layer overhead is the span stream's
// trace.Overhead, once per call (submission → deserialized, plus both IPC
// hops), which excludes kernel execution and device queueing — the paper's
// "excluding handling time".
func apiProbe(seed uint64, n int) Fig10Point {
	e := newPieEngine(seed, func(c *pie.Config) {
		c.Policy = pie.PolicyEager // "we disable batch scheduling"
		c.NoSchedOverhead = true
	})
	ctl := &metrics.Series{}
	inf := &metrics.Series{}
	e.Cluster().OnSpan = func(s trace.Span) {
		for i := 0; s.Kind == trace.Overhead && i < s.Calls; i++ {
			inf.Add(s.End - s.Start)
		}
	}
	e.MustRegister(inferlet.Program{
		Name: "api_probe", BinarySize: 4 << 10,
		Run: func(s inferlet.Session) error {
			m := s.AvailableModels()[0]
			q, err := s.Open(m.ID)
			if err != nil {
				return err
			}
			alloc, err := q.Alloc()
			if err != nil {
				return err
			}
			fwd, err := q.Forward()
			if err != nil {
				return err
			}
			pages, err := alloc.Pages(1)
			if err != nil {
				return err
			}
			bits := make([]bool, m.PageSize)
			// Inferlets issue in synchronized rounds so the single-threaded
			// deserializer sees the concurrent burst the paper measures
			// (inferlets pipeline calls rather than lock-stepping on each).
			const rounds = 8
			const period = 100 * time.Millisecond
			for i := 0; i < rounds; i++ {
				target := time.Duration(i+1) * period
				if d := target - s.Now(); d > 0 {
					s.Sleep(d)
				}
				t0 := s.Now()
				if _, err := s.AvailableTraits(m.ID); err != nil {
					return err
				}
				ctl.Add(s.Now() - t0)

				if err := fwd.MaskPage(pages[0], bits); err != nil {
					return err
				}
				if err := q.Sync(); err != nil {
					return err
				}
			}
			return alloc.FreePages(pages)
		},
	})
	runLoad(e, "api probe", pie.LaunchSpec{}, 0, loadClass{
		name: "launcher", clients: n, tasks: n,
		spec: func(int) pie.LaunchSpec { return pie.Spec("api_probe") },
		done: func(outcome) {},
	})
	return Fig10Point{Inferlets: n, ControlLayer: ctl.Mean(), InferenceLayer: inf.Mean()}
}

// Figure10 runs the concurrency sweep.
func Figure10(o Options) Fig10Result {
	counts := []int{1, 128, 256, 512, 896}
	if o.Quick {
		counts = []int{1, 128, 384}
	}
	out := Fig10Result{Points: make([]Fig10Point, len(counts))}
	parallelFor(len(counts), func(i int) {
		out.Points[i] = apiProbe(o.seed(), counts[i])
	})
	return out
}

// Table renders the curve.
func (r Fig10Result) Table() string {
	t := &metrics.Table{
		Title:  "Figure 10: per-API-call overhead by layer (paper: control <30us, inference 10-300us)",
		Header: []string{"inferlets", "control layer", "inference layer"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", p.Inferlets),
			fmt.Sprintf("%.1f us", float64(p.ControlLayer)/float64(time.Microsecond)),
			fmt.Sprintf("%.1f us", float64(p.InferenceLayer)/float64(time.Microsecond)))
	}
	return t.String()
}

// Figure 11: average API calls per output token per task, split by
// handling layer. Paper: text completion ≈1.6 inference + 1.5 control;
// beam search ≈17 + 13. (Our decomposed decode loop issues
// embed+forward+dist per token, so absolute counts are ~3/token; the
// across-task shape is the claim — see EXPERIMENTS.md.)

// Fig11Row is one task's call intensity.
type Fig11Row struct {
	Task         string
	ControlCalls float64 // per output token
	InferCalls   float64
	OutputTokens int
}

// Fig11Result holds every task.
type Fig11Result struct {
	Rows []Fig11Row
}

// Figure11 runs each task once and reads the session instrumentation.
func Figure11(o Options) Fig11Result {
	tasks := []struct {
		name   string
		app    string
		params interface{}
	}{
		{"textcomp", "text_completion", apps.CompletionParams{Prompt: f8Prompt, MaxTokens: 64}},
		{"tot", "tot", apps.TreeParams{Depth: 3, Branch: 3, ThinkTokens: 24}},
		{"skot", "skot", apps.SkeletonParams{Points: 4, SkeletonTokens: 20, ExpandTokens: 24}},
		{"got", "got", apps.GraphParams{NumChunks: 4, ChunkTokens: 24, MergeTokens: 16}},
		{"specdec", "specdec", apps.SpecDecodeParams{MaxTokens: 64, DraftLen: 4, Oracle: true, AcceptRate: 0.7}},
		{"react", "agent_react", apps.AgentParams{Steps: reactSteps, ThinkTokens: reactThink, ObsTokens: reactObs, FinalTokens: reactFinal}},
		{"beam", "beam", apps.BeamParams{Width: 5, Steps: 24}},
		{"swarm", "agent_swarm", apps.SwarmParams{Workers: swarmWorkers, IOsPerWorker: swarmIOs, ThinkTokens: swarmThink}},
	}
	out := Fig11Result{Rows: make([]Fig11Row, len(tasks))}
	parallelFor(len(tasks), func(i int) {
		task := tasks[i]
		e := newPieEngine(o.seed(), nil)
		var cc, ic, tok int
		e.Go("driver", func() {
			if o := attempt(e, i, pie.Spec(task.app, marshalParams(task.params)), false); o.H != nil {
				cc, ic, tok = o.H.Stats()
			}
		})
		runEngine(e, "fig11 "+task.name+" run")
		if tok == 0 {
			tok = 1
		}
		out.Rows[i] = Fig11Row{
			Task:         task.name,
			ControlCalls: float64(cc) / float64(tok),
			InferCalls:   float64(ic) / float64(tok),
			OutputTokens: tok,
		}
	})
	return out
}

// Table renders the call intensities.
func (r Fig11Result) Table() string {
	t := &metrics.Table{
		Title:  "Figure 11: API calls per output token",
		Header: []string{"task", "control/tok", "inference/tok", "output tokens"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Task, fmt.Sprintf("%.2f", row.ControlCalls),
			fmt.Sprintf("%.2f", row.InferCalls), fmt.Sprintf("%d", row.OutputTokens))
	}
	return t.String()
}

// Headline is the figure's gated numbers at the smallest and largest
// launch concurrency.
func (r Fig9Result) Headline() map[string]float64 {
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	return map[string]float64{
		"warm-1-ms":   ms(first.Warm),
		"cold-1-ms":   ms(first.Cold),
		"warm-max-ms": ms(last.Warm),
		"cold-max-ms": ms(last.Cold),
	}
}

// Headline is the figure's gated numbers at the smallest and largest
// inferlet count.
func (r Fig10Result) Headline() map[string]float64 {
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	return map[string]float64{
		"control-1-us":   us(first.ControlLayer),
		"control-max-us": us(last.ControlLayer),
		"infer-1-us":     us(first.InferenceLayer),
		"infer-max-us":   us(last.InferenceLayer),
	}
}

// Headline is the figure's gated numbers, per task.
func (r Fig11Result) Headline() map[string]float64 {
	h := map[string]float64{}
	for _, row := range r.Rows {
		h[row.Task+"-infer-per-tok"] = row.InferCalls
		h[row.Task+"-control-per-tok"] = row.ControlCalls
	}
	return h
}

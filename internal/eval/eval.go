// Package eval contains one driver per table and figure of the paper's
// evaluation (§7), and the experiments beyond it. Every driver builds fresh
// engines (Pie and baselines) on fresh virtual clocks, replays the workload,
// and returns a Result: structured rows, their paper-style Table and the
// Headline numbers BENCH_sim.json records. Experiments lists them all;
// cmd/pie-bench and the root package's BenchmarkExperiments are loops over
// it. Every fleet of closed-loop clients on a pie.Engine is one runLoad call
// (load.go); the baseline engines' world has its own loop here.
// EXPERIMENTS.md records paper-vs-measured for each experiment, and how to
// add one.
package eval

import (
	"encoding/json"
	"fmt"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/baseline"
	"pie/internal/metrics"
	"pie/internal/netsim"
	"pie/internal/sim"
)

// Options tunes experiment scale. Quick shrinks workloads for CI and
// go-test benchmarks; the defaults reproduce paper-scale runs.
type Options struct {
	Seed  uint64
	Quick bool
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// scale returns full when !Quick, else quick.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Tool latencies shared by Pie and baseline worlds (§7.1 workloads).
const (
	searchLatency = 40 * time.Millisecond
	codeLatency   = 80 * time.Millisecond
	fnLatency     = 30 * time.Millisecond
	// clientRTT is the campus-network round trip for microbenchmarks
	// (Fig. 9's launch floor pins it near 8 ms).
	clientRTT = 8 * time.Millisecond
	// agentRTT is the end-to-end client↔server round trip for the agent
	// experiments: network plus API-server request handling, the "tens of
	// milliseconds" §7.1 attributes to each client interaction.
	agentRTT = 25 * time.Millisecond
)

// newPieEngine builds a timing-mode engine with every app and tool
// service registered.
func newPieEngine(seed uint64, mutate func(*pie.Config)) *pie.Engine {
	cfg := pie.Config{Seed: seed, Mode: pie.ModeTiming, ClientRTT: clientRTT}
	if mutate != nil {
		mutate(&cfg)
	}
	e := pie.New(cfg)
	e.MustRegister(apps.All()...)
	registerTools := func(reg func(string, time.Duration, func(string) string)) {
		reg("search.api", searchLatency, func(string) string { return "search results for the query" })
		reg("code.exec", codeLatency, func(string) string { return "stdout: ok exit 0" })
		reg("fn.api", fnLatency, func(string) string { return "ok" })
	}
	registerTools(e.RegisterTool)
	return e
}

// runEngine runs e to completion, then checks the final state of its
// cluster (cluster.Cluster.Check); it panics naming what ran if either
// fails. It returns the wall time of the run alone.
func runEngine(e *pie.Engine, what string) time.Duration {
	start := time.Now()
	err := e.Run()
	wall := time.Since(start)
	if err == nil {
		err = e.Cluster().Check()
	}
	if err != nil {
		panic(fmt.Sprintf("eval: %s: %v", what, err))
	}
	return wall
}

// registerWorldTools installs the same services on a baseline clock.
func registerWorldTools(w *netsim.World) {
	w.Register(&netsim.Service{Name: "search.api", Latency: searchLatency, Handler: func(string) string { return "search results for the query" }})
	w.Register(&netsim.Service{Name: "code.exec", Latency: codeLatency, Handler: func(string) string { return "stdout: ok exit 0" }})
	w.Register(&netsim.Service{Name: "fn.api", Latency: fnLatency, Handler: func(string) string { return "ok" }})
}

// marshalParams encodes app parameters.
func marshalParams(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// loadResult is one closed-loop load-generation outcome.
type loadResult struct {
	Latency  *metrics.Series
	Makespan time.Duration
	Done     int
	Failures int
	Tokens   int // accepted output tokens across completed tasks
}

// Throughput returns completed tasks per second of virtual time.
func (r loadResult) Throughput() float64 { return metrics.Throughput(r.Done, r.Makespan) }

// runPieLoad drives `total` instances of app through the closed-loop load
// generator with `concurrency` in flight.
func runPieLoad(e *pie.Engine, app string, paramsFor func(task int) string, total, concurrency int) loadResult {
	res := loadResult{Latency: &metrics.Series{Name: app}}
	_, res.Makespan = runLoad(e, "pie load", pie.Spec(app, paramsFor(0)), 0,
		res.class(app, paramsFor, total, concurrency))
	return res
}

// class is the client class that fills res: failed instances (e.g. FCFS
// reclamation) are retried and counted.
func (res *loadResult) class(app string, paramsFor func(task int) string, total, concurrency int) loadClass {
	return loadClass{
		name: "worker", clients: concurrency, tasks: total, attempts: 4,
		spec: func(task int) pie.LaunchSpec { return pie.Spec(app, paramsFor(task)) },
		done: func(o outcome) {
			if o.Err != nil {
				res.Failures++
				return
			}
			res.Latency.Add(o.End - o.T0)
			_, _, tok := o.H.Stats()
			res.Tokens += tok
			res.Done++
		},
	}
}

// baselineWorkflow is a client-side agent script against a monolithic
// engine (Fig. 5 left): every generation is a network request with the
// full accumulated context, every tool call happens at the client.
type baselineWorkflow func(c *baseline.Client, w *netsim.World, rng *sim.RNG)

// runBaselineLoad drives a baseline engine with `total` client workflows,
// `concurrency` in flight, over the microbenchmark link.
func runBaselineLoad(cfg baseline.Config, wf baselineWorkflow, total, concurrency int, seed uint64) loadResult {
	return runBaselineLoadRTT(cfg, wf, total, concurrency, seed, clientRTT)
}

func runBaselineLoadRTT(cfg baseline.Config, wf baselineWorkflow, total, concurrency int, seed uint64, rtt time.Duration) loadResult {
	clock := sim.NewClock()
	eng := baseline.NewEngine(clock, cfg)
	world := netsim.NewWorld(clock)
	registerWorldTools(world)
	res := loadResult{Latency: &metrics.Series{Name: string(cfg.Kind)}}
	queue := sim.NewMailbox[int](clock)
	for t := 0; t < total; t++ {
		queue.Send(t)
	}
	g := sim.NewGroup(clock)
	for w := 0; w < concurrency; w++ {
		g.Go("client", func() {
			for {
				task, ok := queue.TryRecv()
				if !ok {
					return
				}
				t0 := clock.Now()
				c := baseline.NewClient(clock, eng, rtt)
				wf(c, world, sim.NewRNG(seed^uint64(task*2654435761)))
				res.Latency.Add(clock.Now() - t0)
				res.Done++
			}
		})
	}
	clock.Go("main", g.Wait)
	if err := clock.Run(); err != nil {
		panic(fmt.Sprintf("eval: baseline load run: %v", err))
	}
	res.Makespan = clock.Now()
	return res
}

// syntheticTokens produces deterministic token ids (valid vocab range).
func syntheticTokens(rng *sim.RNG, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 4 + rng.Intn(1800)
	}
	return out
}

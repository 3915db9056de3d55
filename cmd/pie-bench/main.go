// Command pie-bench regenerates the paper's evaluation tables and figures
// (§7) on the simulated testbed and prints them in paper style.
//
// Usage:
//
//	pie-bench                  # run everything at full scale
//	pie-bench -quick           # CI-sized workloads
//	pie-bench -exp fig7,slo    # selected experiments (-exp is the only selector)
//	pie-bench -seed 7          # different deterministic seed
//	pie-bench -json            # also write BENCH_sim.json (perf trajectory)
//	pie-bench -exp fig7 -cpuprofile cpu.prof -memprofile mem.prof
//	                           # host profiles of the run, for `go tool pprof`
//
// The -json report records, per experiment and in total, the wall time,
// the number of virtual events processed, and events/sec — the headline
// replay-speed metric tracked across PRs (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pie/internal/benchfmt"
	"pie/internal/eval"
	"pie/internal/sim"
)

// defaultJSONPath is where -json writes its report unless -json-out
// overrides it.
const defaultJSONPath = "BENCH_sim.json"

func main() {
	quick := flag.Bool("quick", false, "run CI-sized workloads")
	seed := flag.Uint64("seed", 42, "deterministic seed for every experiment")
	exps := flag.String("exp", "all", "comma-separated experiment ids (table2,fig6,fig7,fig8,fig9,fig10,fig11,table3,table4,table5,cluster,offload,coldstart,faults,slo,pd,scale,fleet)")
	jsonOut := flag.Bool("json", false, "write BENCH_sim.json with wall time and events/sec per experiment")
	jsonPath := flag.String("json-out", defaultJSONPath, "path for the -json report (implies -json)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	// An explicit output path means the user wants the report, -json or not.
	writeReport := *jsonOut
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "json-out" {
			writeReport = true
		}
	})

	o := eval.Options{Seed: *seed, Quick: *quick}
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	rep := benchfmt.Report{Seed: *seed, Quick: *quick, GoMaxProcs: runtime.GOMAXPROCS(0)}
	suiteStart := time.Now()
	eventsStart := sim.TotalEvents()

	run := func(id string, fn func() (string, map[string]float64)) {
		if !all && !want[id] {
			return
		}
		start := time.Now()
		ev0 := sim.TotalEvents()
		out, headline := fn()
		wall := time.Since(start)
		events := sim.TotalEvents() - ev0
		fmt.Println(out)
		fmt.Printf("  [%s regenerated in %v wall time; %d events, %.0f events/sec]\n\n",
			id, wall.Round(time.Millisecond), events, float64(events)/wall.Seconds())
		rep.Experiments = append(rep.Experiments, benchfmt.Experiment{
			ID:           id,
			WallMS:       float64(wall) / float64(time.Millisecond),
			Events:       events,
			EventsPerSec: float64(events) / wall.Seconds(),
			Headline:     headline,
		})
	}

	fmt.Printf("pie-bench: reproducing the Pie (SOSP'25) evaluation  (seed=%d quick=%v)\n\n", *seed, *quick)
	run("table2", func() (string, map[string]float64) {
		r := eval.Table2()
		return r.Table(), map[string]float64{"programs": float64(len(r.Rows))}
	})
	run("fig6", func() (string, map[string]float64) {
		r := eval.Figure6(o)
		h := map[string]float64{}
		for _, row := range r.Rows {
			h[row.Workflow+"-"+row.System+"-latency-sec"] = row.Latency.Seconds()
			h[row.Workflow+"-"+row.System+"-agents-per-sec"] = row.Throughput
		}
		return r.Table(), h
	})
	run("fig7", func() (string, map[string]float64) {
		r := eval.Figure7(o)
		h := map[string]float64{}
		if len(r.Series) > 0 {
			base := r.Series[0]
			full := r.Series[len(r.Series)-1]
			last := len(base.Throughput) - 1
			h["vllm-agents-per-sec"] = base.Throughput[last]
			h["pie-full-agents-per-sec"] = full.Throughput[last]
			h["speedup-x"] = full.Throughput[last] / base.Throughput[last]
		}
		return r.Table(), h
	})
	run("fig8", func() (string, map[string]float64) {
		r := eval.Figure8(o)
		h := map[string]float64{}
		if pieTC, ok := r.Get("textcomp", "pie"); ok {
			h["textcomp-pie-ms"] = float64(pieTC.Latency) / float64(time.Millisecond)
		}
		if vllmTC, ok := r.Get("textcomp", "vllm"); ok {
			h["textcomp-vllm-ms"] = float64(vllmTC.Latency) / float64(time.Millisecond)
		}
		pieAS, okA := r.Get("attnsink", "pie")
		sllm, okB := r.Get("attnsink", "streamingllm")
		if okA && okB && sllm.Throughput > 0 {
			h["attnsink-speedup-x"] = pieAS.Throughput / sllm.Throughput
		}
		return r.Table(), h
	})
	run("fig9", func() (string, map[string]float64) {
		r := eval.Figure9(o)
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		return r.Table(), map[string]float64{
			"warm-1-ms":   float64(first.Warm) / float64(time.Millisecond),
			"cold-1-ms":   float64(first.Cold) / float64(time.Millisecond),
			"warm-max-ms": float64(last.Warm) / float64(time.Millisecond),
			"cold-max-ms": float64(last.Cold) / float64(time.Millisecond),
		}
	})
	run("fig10", func() (string, map[string]float64) {
		r := eval.Figure10(o)
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		return r.Table(), map[string]float64{
			"control-1-us":   float64(first.ControlLayer) / float64(time.Microsecond),
			"control-max-us": float64(last.ControlLayer) / float64(time.Microsecond),
			"infer-1-us":     float64(first.InferenceLayer) / float64(time.Microsecond),
			"infer-max-us":   float64(last.InferenceLayer) / float64(time.Microsecond),
		}
	})
	run("fig11", func() (string, map[string]float64) {
		r := eval.Figure11(o)
		h := map[string]float64{}
		for _, row := range r.Rows {
			h[row.Task+"-infer-per-tok"] = row.InferCalls
			h[row.Task+"-control-per-tok"] = row.ControlCalls
		}
		return r.Table(), h
	})
	run("table3", func() (string, map[string]float64) {
		r := eval.Table3(o)
		return r.Table(), map[string]float64{
			"vllm-tpot-ms":    float64(r.VLLMTPOT) / float64(time.Millisecond),
			"pie-tpot-ms":     float64(r.PieTPOT) / float64(time.Millisecond),
			"sampling-gap-ms": float64(r.SamplingGap) / float64(time.Millisecond),
		}
	})
	run("table4", func() (string, map[string]float64) {
		r := eval.Table4(o)
		h := map[string]float64{}
		for _, row := range r.Rows {
			h[row.Params+"-pie-ms"] = float64(row.Pie) / float64(time.Millisecond)
			h[row.Params+"-vllm-ms"] = float64(row.VLLM) / float64(time.Millisecond)
			h[row.Params+"-overhead-pct"] = row.Percent
		}
		return r.Table(), h
	})
	run("table5", func() (string, map[string]float64) {
		r := eval.Table5(o)
		h := map[string]float64{}
		for _, row := range r.Rows {
			h[row.Policy+"-req-per-sec"] = row.Throughput
		}
		return r.Table(), h
	})
	// The experiments beyond the paper's own evaluation.
	run("cluster", clusterRun(o))
	run("offload", offloadRun(o))
	run("coldstart", coldstartRun(o))
	run("faults", faultsRun(o))
	run("slo", sloRun(o))
	run("pd", pdRun(o))
	run("scale", scaleRun(o))
	run("fleet", fleetRun(o))

	stopProfiles()
	if len(rep.Experiments) == 0 {
		fmt.Fprintln(os.Stderr, "no experiments selected")
		os.Exit(2)
	}

	wall := time.Since(suiteStart)
	rep.TotalWallMS = float64(wall) / float64(time.Millisecond)
	rep.TotalEvents = sim.TotalEvents() - eventsStart
	rep.EventsPerSec = float64(rep.TotalEvents) / wall.Seconds()
	fmt.Printf("suite: %v wall time, %d virtual events, %.0f events/sec (gomaxprocs=%d)\n",
		wall.Round(time.Millisecond), rep.TotalEvents, rep.EventsPerSec, rep.GoMaxProcs)

	if writeReport {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pie-bench: marshal report:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pie-bench: write report:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// startProfiles begins the CPU profile (when cpuPath is set) and returns the
// function that ends it and writes the allocation profile (when memPath is
// set): what `go test -cpuprofile -memprofile` records, for a whole run.
func startProfiles(cpuPath, memPath string) (stop func()) {
	create := func(path string) *os.File {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pie-bench:", err)
			os.Exit(1)
		}
		return f
	}
	finish := func(f *os.File, err error) {
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pie-bench: write profile:", err)
			os.Exit(1)
		}
	}
	var cpu *os.File
	if cpuPath != "" {
		cpu = create(cpuPath)
		if err := pprof.StartCPUProfile(cpu); err != nil {
			finish(cpu, err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			finish(cpu, nil)
		}
		if memPath != "" {
			f := create(memPath)
			runtime.GC() // materialize all statistics
			finish(f, pprof.Lookup("allocs").WriteTo(f, 0))
		}
	}
}

// offloadRun adapts the tiered-KV offload sweep to the experiment harness.
func offloadRun(o eval.Options) func() (string, map[string]float64) {
	return func() (string, map[string]float64) {
		r := eval.OffloadSweep(o)
		h := map[string]float64{}
		if p, ok := r.Get(2, 1.0); ok {
			h["effcap-2x-offload-x"] = p.EffCapacity
			h["ttft-2x-offload-ms"] = float64(p.TTFT) / float64(time.Millisecond)
			h["swapout-2x-offload-pages"] = float64(p.SwapOutPages)
			h["failures-2x-offload"] = float64(p.Failures)
		}
		if p, ok := r.Get(2, 0); ok {
			h["terms-2x-none"] = float64(p.Terminations)
		}
		if p, ok := r.Get(1, 0); ok {
			h["ttft-1x-none-ms"] = float64(p.TTFT) / float64(time.Millisecond)
		}
		return r.Table(), h
	}
}

// coldstartRun adapts the deployable-artifact launch sweep to the
// experiment harness.
func coldstartRun(o eval.Options) func() (string, map[string]float64) {
	return func() (string, map[string]float64) {
		r := eval.ColdstartSweep(o)
		return r.Table(), map[string]float64{
			"cold-launch-ms":     float64(r.Cold) / float64(time.Millisecond),
			"warm-launch-ms":     float64(r.Warm) / float64(time.Millisecond),
			"cold-warm-gap-x":    r.Ratio,
			"rr-cold-launches":   float64(r.RR.ColdLaunches),
			"pa-cold-launches":   float64(r.PA.ColdLaunches),
			"rr-mean-launch-ms":  float64(r.RR.MeanLaunch) / float64(time.Millisecond),
			"pa-mean-launch-ms":  float64(r.PA.MeanLaunch) / float64(time.Millisecond),
			"pa-vs-rr-speedup-x": r.PA.ReqPerSec / r.RR.ReqPerSec,
		}
	}
}

// faultsRun adapts the fault-tolerance chaos experiment to the harness.
func faultsRun(o eval.Options) func() (string, map[string]float64) {
	return func() (string, map[string]float64) {
		r := eval.FaultsSweep(o)
		return r.Table(), map[string]float64{
			"replicas-lost":       float64(r.Faulted.ReplicasLost),
			"detect-ms":           float64(r.Faulted.DetectTime) / float64(time.Millisecond),
			"requeues":            float64(r.Faulted.Requeues),
			"sheds":               float64(r.Faulted.Sheds),
			"leaked-pages":        float64(r.Faulted.LeakedPages),
			"hp-goodput-retained": r.GoodputRetained,
			"baseline-hp-per-sec": r.Baseline.HPGoodput,
			"faulted-hp-per-sec":  r.Faulted.HPGoodput,
			"faulted-hp-failed":   float64(r.Faulted.HPFailed),
			"faulted-be-failed":   float64(r.Faulted.BEFailed),
		}
	}
}

// sloRun adapts the SLO-aware service-class scaling sweep to the
// experiment harness. Headline metrics come from the high-load level,
// where the contrast between the saturation-guarded scaler and the
// queue-depth baseline lives; the low-load level contributes the
// scale-to-zero cost numbers.
func sloRun(o eval.Options) func() (string, map[string]float64) {
	return func() (string, map[string]float64) {
		r := eval.SLOSweep(o)
		high := r.Levels[len(r.Levels)-1]
		low := r.Levels[0]
		return r.Table(), map[string]float64{
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
}

// pdRun adapts the prefill/decode disaggregation sweep to the harness.
// Headline metrics come from the best mix: the one with the largest
// interactive TTFT advantage that gives up no SLO goodput.
func pdRun(o eval.Options) func() (string, map[string]float64) {
	return func() (string, map[string]float64) {
		r := eval.PDSweep(o)
		best := r.BestMix()
		return r.Table(), map[string]float64{
			"disagg-ttft-p95-ms":  float64(best.Disagg.IntTTFTP95) / float64(time.Millisecond),
			"unified-ttft-p95-ms": float64(best.Unified.IntTTFTP95) / float64(time.Millisecond),
			"ttft-speedup-x":      best.TTFTSpeedup(),
			"disagg-goodput":      best.Disagg.Goodput,
			"unified-goodput":     best.Unified.Goodput,
			"disagg-thru":         best.Disagg.Throughput,
			"unified-thru":        best.Unified.Throughput,
			"handoffs":            float64(best.Disagg.Handoffs),
			"handoff-pages":       float64(best.Disagg.HandoffPages),
			"handoff-queued":      float64(best.Disagg.HandoffQueued),
			"handoff-denied":      float64(best.Disagg.HandoffDenied),
			"leaked-pages":        float64(best.Disagg.LeakedPages),
		}
	}
}

// scaleRun adapts the fleet-size sweep to the harness. The gated headline
// carries only virtual-time-deterministic values: events/sec at either
// GOMAXPROCS is a wall-clock number that varies with machine load, so it
// appears in the printed table but never in the headline map the bench
// gate compares.
func scaleRun(o eval.Options) func() (string, map[string]float64) {
	return func() (string, map[string]float64) {
		r := eval.ScaleSweep(o)
		h := map[string]float64{
			"replicas-max": float64(r.MaxReplicas),
		}
		if r.Deterministic {
			h["deterministic"] = 1
		}
		for _, p := range r.Sweep {
			h[fmt.Sprintf("fleet-%d-done", p.Replicas)] = float64(p.Completions)
			h[fmt.Sprintf("fleet-%d-events", p.Replicas)] = float64(p.Events)
		}
		last := r.Sweep[len(r.Sweep)-1]
		h["fleet-max-avg-lat-ms"] = float64(last.AvgLatency) / float64(time.Millisecond)
		return r.Table(), h
	}
}

// fleetRun adapts the fleet-manifest experiment to the harness: a rolling
// pinned-program upgrade vs a naive restart under identical load, plus a
// pool-count hot reload, all driven by the reconciling controller.
func fleetRun(o eval.Options) func() (string, map[string]float64) {
	return func() (string, map[string]float64) {
		r := eval.FleetSweep(o)
		h := map[string]float64{
			"steady-window-p95-ms":  float64(r.Steady.WindowP95) / float64(time.Millisecond),
			"rolling-window-p95-ms": float64(r.Rolling.WindowP95) / float64(time.Millisecond),
			"naive-window-p95-ms":   float64(r.Naive.WindowP95) / float64(time.Millisecond),
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
		return r.Table(), h
	}
}

// clusterRun adapts the replica-scaling sweep to the experiment harness.
func clusterRun(o eval.Options) func() (string, map[string]float64) {
	return func() (string, map[string]float64) {
		r := eval.ClusterSweep(o)
		h := map[string]float64{}
		for _, p := range r.Sweep {
			h[fmt.Sprintf("batch-%d-tok-per-sec", p.Replicas)] = p.TokensPerSec
		}
		if len(r.Sweep) > 0 && r.Sweep[0].TokensPerSec > 0 {
			last := r.Sweep[len(r.Sweep)-1]
			h["scaling-x"] = last.TokensPerSec / r.Sweep[0].TokensPerSec
			h["batch-1-ttft-ms"] = float64(r.Sweep[0].TTFT) / float64(time.Millisecond)
			h["batch-1-tpot-ms"] = float64(r.Sweep[0].TPOT) / float64(time.Millisecond)
		}
		if r.AffinityRR.ReqPerSec > 0 {
			h["affinity-speedup-x"] = r.AffinityKV.ReqPerSec / r.AffinityRR.ReqPerSec
		}
		h["autoscale-ups"] = float64(r.Auto.ScaleUps)
		h["autoscale-drains-done"] = float64(r.Auto.DrainDone)
		h["autoscale-final-active"] = float64(r.Auto.FinalActive)
		return r.Table(), h
	}
}

package pie_test

// One benchmark per table and figure of the paper's evaluation (§7).
// Each drives the corresponding internal/eval experiment on the virtual
// clock and reports the paper's headline quantities as custom benchmark
// metrics (simulated milliseconds / throughput — wall-clock ns/op measures
// only how fast the simulation replays). `go test -bench .` regenerates
// every result; cmd/pie-bench prints the full tables.

import (
	"fmt"
	"testing"
	"time"

	"pie"
	"pie/inferlet"
	"pie/internal/eval"
	"pie/internal/sim"
	"pie/support"
)

var benchOpts = eval.Options{Seed: 42, Quick: true}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkFigure6Agents reports agent latency/throughput for Pie vs the
// baselines (paper: up to −15% latency, +30% throughput on ReACT).
func BenchmarkFigure6Agents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Figure6(benchOpts)
		for _, sys := range []string{"pie", "vllm", "sglang"} {
			row, _ := r.Get("react", sys)
			b.ReportMetric(row.Latency.Seconds(), "react-"+sys+"-sec")
			b.ReportMetric(row.Throughput, "react-"+sys+"-agents/s")
		}
	}
}

// BenchmarkFigure7Optimizations reports the stacked-optimization sweep
// (paper: 3.5× over vLLM at 128 agents).
func BenchmarkFigure7Optimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Figure7(benchOpts)
		base := r.Series[0] // vllm
		full := r.Series[len(r.Series)-1]
		last := len(base.Throughput) - 1
		b.ReportMetric(base.Throughput[last], "vllm-agents/s")
		b.ReportMetric(full.Throughput[last], "pie-full-agents/s")
		b.ReportMetric(full.Throughput[last]/base.Throughput[last], "speedup-x")
	}
}

// BenchmarkFigure8Techniques reports the technique grid's headline cells
// (paper: near parity on text completion, 1.5×/30× vs StreamingLLM).
func BenchmarkFigure8Techniques(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Figure8(benchOpts)
		pieTC, _ := r.Get("textcomp", "pie")
		vllmTC, _ := r.Get("textcomp", "vllm")
		b.ReportMetric(ms(pieTC.Latency), "textcomp-pie-ms")
		b.ReportMetric(ms(vllmTC.Latency), "textcomp-vllm-ms")
		pieAS, _ := r.Get("attnsink", "pie")
		sllm, _ := r.Get("attnsink", "streamingllm")
		b.ReportMetric(pieAS.Throughput/sllm.Throughput, "attnsink-speedup-x")
	}
}

// BenchmarkFigure9Launch reports launch latency (paper: warm 10–50 ms,
// cold 35–81 ms).
func BenchmarkFigure9Launch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Figure9(benchOpts)
		first := r.Points[0]
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(ms(first.Warm), "warm-1-ms")
		b.ReportMetric(ms(first.Cold), "cold-1-ms")
		b.ReportMetric(ms(last.Warm), "warm-max-ms")
		b.ReportMetric(ms(last.Cold), "cold-max-ms")
	}
}

// BenchmarkFigure10APIOverhead reports per-call overhead by layer (paper:
// control <30 µs, inference 10–300 µs).
func BenchmarkFigure10APIOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Figure10(benchOpts)
		first := r.Points[0]
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(float64(first.ControlLayer)/1e3, "control-1-us")
		b.ReportMetric(float64(last.ControlLayer)/1e3, "control-max-us")
		b.ReportMetric(float64(first.InferenceLayer)/1e3, "infer-1-us")
		b.ReportMetric(float64(last.InferenceLayer)/1e3, "infer-max-us")
	}
}

// BenchmarkFigure11CallsPerToken reports API-call intensity per task.
func BenchmarkFigure11CallsPerToken(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Figure11(benchOpts)
		for _, row := range r.Rows {
			if row.Task == "textcomp" || row.Task == "beam" {
				b.ReportMetric(row.InferCalls, row.Task+"-infer/tok")
				b.ReportMetric(row.ControlCalls, row.Task+"-control/tok")
			}
		}
	}
}

// BenchmarkTable2Inventory verifies the program inventory assembles.
func BenchmarkTable2Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Table2()
		b.ReportMetric(float64(len(r.Rows)), "programs")
	}
}

// BenchmarkTable3OpportunityCost reports the decomposition overheads
// (paper: vLLM 64.06 ms → Pie 65.59 ms; sampling +1.32 ms).
func BenchmarkTable3OpportunityCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Table3(benchOpts)
		b.ReportMetric(ms(r.VLLMTPOT), "vllm-tpot-ms")
		b.ReportMetric(ms(r.PieTPOT), "pie-tpot-ms")
		b.ReportMetric(ms(r.SamplingGap), "sampling-gap-ms")
		b.ReportMetric(ms(r.EmbedGap), "embed-gap-ms")
	}
}

// BenchmarkTable4ModelSize reports TPOT across model sizes (paper:
// 16.83/30.30/64.06 ms vLLM; overhead 11.41/5.64/2.39%).
func BenchmarkTable4ModelSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Table4(benchOpts)
		for _, row := range r.Rows {
			b.ReportMetric(ms(row.VLLM), row.Params+"-vllm-ms")
			b.ReportMetric(ms(row.Pie), row.Params+"-pie-ms")
			b.ReportMetric(row.Percent, row.Params+"-overhead-pct")
		}
	}
}

// BenchmarkTable5Batching reports the batching-policy comparison (paper:
// Eager 5.61, K-only 30.09, T-only 78.11, Adaptive 84.85 req/s).
func BenchmarkTable5Batching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := eval.Table5(benchOpts)
		for _, row := range r.Rows {
			b.ReportMetric(row.Throughput, row.Policy+"-req/s")
		}
	}
}

// BenchmarkSimReplaySpeed reports wall-clock replay throughput of the
// discrete-event core on a full experiment (Figure 6 grid): virtual
// events processed per second of real time, the headline number
// BENCH_sim.json tracks across PRs.
func BenchmarkSimReplaySpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev0 := sim.TotalEvents()
		t0 := time.Now()
		eval.Figure6(benchOpts)
		wall := time.Since(t0)
		b.ReportMetric(float64(sim.TotalEvents()-ev0)/wall.Seconds(), "events/sec")
	}
}

// BenchmarkDecodeStep is the host cost of one decode step through every
// layer above the kernels — support.Context.Append, which issues nothing,
// plus NextDist, which flushes the token (embed_txt, forward: the context's
// two decode slots, no control-layer call) and samples (get_next_dist), on a
// timing-mode engine — behind a context of 16, 64 and 256 KV pages. The
// paper's bet (§5.2) is that this cost does not depend on the context:
// allocs/op must be one number at all three sizes.
func BenchmarkDecodeStep(b *testing.B) {
	for _, pages := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("ctx%dpages", pages), func(b *testing.B) {
			e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
			e.MustRegister(inferlet.Program{Name: "decode", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
				m := s.AvailableModels()[0]
				ctx, err := support.NewContext(s, m)
				if err != nil {
					return err
				}
				if err := ctx.FillTokens(make([]int, pages*m.PageSize-m.PageSize/2)); err != nil {
					return err
				}
				if _, err := ctx.NextDist(); err != nil {
					return err
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := ctx.Append(7); err != nil {
						return err
					}
					if _, err := ctx.NextDist(); err != nil {
						return err
					}
				}
				b.StopTimer()
				return nil
			}})
			runToCompletion(b, e, "decode")
		})
	}
}

// BenchmarkGenerate is one chat turn on a persistent context, timing mode:
// an 8-token user turn prefilled (it carries the previous turn's pending
// last token) and 32 tokens generated. infer-calls/op is read from the
// instance: one embed + one forward for the prefill, 32 get_next_dist, 31
// embed + forward pairs — the last token issues none — and one detokenize.
// control-calls/op is read the same way: alloc_emb + dealloc_emb for the
// prefill's nine input slots, an alloc_kvpage per page the turn's 40 tokens
// cross into (2.5 with 16-token pages), nothing per decode step, and a
// 64th of what opening and closing a context costs.
func BenchmarkGenerate(b *testing.B) {
	const turnTokens, genTokens, turnsPerContext = 8, 32, 64
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{Name: "generate", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		m := s.AvailableModels()[0]
		turn := make([]int, turnTokens)
		var ctx *support.Context
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%turnsPerContext == 0 { // bound the KV a long run holds
				b.StopTimer()
				if ctx != nil {
					if err := ctx.Close(); err != nil {
						return err
					}
				}
				var err error
				if ctx, err = support.NewContext(s, m); err != nil {
					return err
				}
				b.StartTimer()
			}
			if err := ctx.FillTokens(turn); err != nil {
				return err
			}
			if _, err := ctx.Generate(support.GenOpts{MaxTokens: genTokens}); err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	}})
	control, calls, _ := runToCompletion(b, e, "generate").Stats()
	b.ReportMetric(float64(calls)/float64(b.N), "infer-calls/op")
	b.ReportMetric(float64(control)/float64(b.N), "control-calls/op")
}

// runToCompletion launches program on e and waits for it to finish.
func runToCompletion(b *testing.B, e *pie.Engine, program string) *pie.Handle {
	b.Helper()
	var h *pie.Handle
	var err error
	if cerr := e.RunClient(func() {
		if h, err = e.Launch(pie.Spec(program)); err == nil {
			err = h.Wait()
		}
	}); cerr != nil {
		b.Fatal(cerr)
	}
	if err != nil {
		b.Fatal(err)
	}
	return h
}

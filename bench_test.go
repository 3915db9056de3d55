package pie_test

// BenchmarkExperiments drives every experiment of internal/eval's table on
// the virtual clock and reports its headline — the numbers BENCH_sim.json
// records — as custom benchmark metrics (simulated milliseconds /
// throughput; wall-clock ns/op measures only how fast the simulation
// replays). `go test -bench .` regenerates every result; cmd/pie-bench
// prints the full tables.

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

func BenchmarkExperiments(b *testing.B) {
	for _, x := range eval.Experiments() {
		b.Run(x.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for key, v := range x.Run(benchOpts).Headline() {
					b.ReportMetric(v, key)
				}
			}
		})
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

package pie_test

// BenchmarkExperiments drives every experiment of internal/eval's table on
// the virtual clock and reports its headline — the numbers BENCH_sim.json
// records — as custom benchmark metrics (simulated milliseconds /
// throughput; wall-clock ns/op measures only how fast the simulation
// replays). `go test -bench .` regenerates every result; cmd/pie-bench
// prints the full tables.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"pie"
	"pie/api"
	"pie/apps"
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
// allocs/op must be one number at all three sizes. That number is 0:
// embed_txt and forward return no result, and get_next_dist's result lives
// in the call's record (TestDecodeStepAllocatesNothing holds it there).
func BenchmarkDecodeStep(b *testing.B) {
	for _, pages := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("ctx%dpages", pages), func(b *testing.B) {
			e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
			e.MustRegister(inferlet.Program{Name: "decode", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
				ctx, err := decodingContext(s, pages)
				if err != nil {
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

// decodingContext opens a context on a timing-mode session, fills it to
// half a page short of pages KV pages and samples once, so the next decode
// step is warm.
func decodingContext(s inferlet.Session, pages int) (*support.Context, error) {
	m := s.AvailableModels()[0]
	ctx, err := support.NewContext(s, m)
	if err != nil {
		return nil, err
	}
	if err := ctx.FillTokens(make([]int, pages*m.PageSize-m.PageSize/2)); err != nil {
		return nil, err
	}
	_, err = ctx.NextDist()
	return ctx, err
}

// TestDecodeStepAllocatesNothing: a warm decode step — Context.Append plus
// NextDist, through every layer down to the timing-mode kernels — makes no
// heap allocation, behind a context of 16, 64 or 256 KV pages. Like
// BenchmarkDecodeStep's allocs/op it counts whole allocations per step: the
// page a step crosses into every PageSize steps is less than one.
func TestDecodeStepAllocatesNothing(t *testing.T) {
	for _, pages := range []int{16, 64, 256} {
		e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
		allocs := -1.0
		e.MustRegister(inferlet.Program{Name: "decode", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
			ctx, err := decodingContext(s, pages)
			if err != nil {
				return err
			}
			allocs = testing.AllocsPerRun(200, func() {
				if err == nil {
					err = ctx.Append(7)
				}
				if err == nil {
					_, err = ctx.NextDist()
				}
			})
			return err
		}})
		var err error
		if cerr := e.RunClient(func() {
			var h *pie.Handle
			if h, err = e.Launch(pie.Spec("decode")); err == nil {
				err = h.Wait()
			}
		}); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("ctx%dpages: a decode step makes %v allocations, want 0", pages, allocs)
		}
	}
}

// BenchmarkFusedStep is the host cost of one fused decode step on a
// timing-mode engine: Fused.Run of one inline token over a 16-page context
// and the Get of its sampled token, the step of the benchmark's kv_pressure
// sessions. The sampled tokens are the call's result, in its record: 0
// allocs/op (TestFusedStepAllocatesNothing holds it there).
func BenchmarkFusedStep(b *testing.B) {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{Name: "fused", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		step, err := fusedStep(s, 16)
		if err != nil {
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	}})
	runToCompletion(b, e, "fused")
}

// fusedStep prefills pages KV pages, less half a page, in one fused pass
// and returns a decode step over them: one inline token read against the
// context, and the Get of its sampled token. The step's options are built
// once, so every step lends the same slices.
func fusedStep(s inferlet.Session, pages int) (func() error, error) {
	q, err := s.Open(s.AvailableModels()[0].ID)
	if err != nil {
		return nil, err
	}
	alloc, err := q.Alloc()
	if err != nil {
		return nil, err
	}
	fz, err := q.Fused()
	if err != nil {
		return nil, err
	}
	kv, err := alloc.Pages(pages)
	if err != nil {
		return nil, err
	}
	out, err := alloc.Embeds(1)
	if err != nil {
		return nil, err
	}
	n := pages*q.Model().PageSize - q.Model().PageSize/2
	toks, pos := make([]int, n), make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	f, err := fz.Run(inferlet.InlineTokens(toks, pos), inferlet.AppendKv(kv...), inferlet.Output(out...))
	if err == nil {
		_, err = f.Get()
	}
	opts := []inferlet.ForwardOption{inferlet.InlineTokens([]int{7}, []int{n}), inferlet.ReadKv(kv...), inferlet.Output(out...)}
	return func() error {
		f, err := fz.Run(opts...)
		if err != nil {
			return err
		}
		_, err = f.Get()
		return err
	}, err
}

// TestFusedStepAllocatesNothing: a warm fused decode step — Fused.Run and
// the Get of its sampled token, through every layer down to the
// timing-mode kernel — makes no heap allocation of its own. Its token is
// cut from the runtime's slab, which one step in a page (16) refills;
// AllocsPerRun's whole-number average does not count that.
func TestFusedStepAllocatesNothing(t *testing.T) {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	allocs := -1.0
	e.MustRegister(inferlet.Program{Name: "fused", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		step, err := fusedStep(s, 16)
		if err == nil {
			err = step()
		}
		allocs = testing.AllocsPerRun(200, func() {
			if err == nil {
				err = step()
			}
		})
		return err
	}})
	var err error
	if cerr := e.RunClient(func() {
		var h *pie.Handle
		if h, err = e.Launch(pie.Spec("fused")); err == nil {
			err = h.Wait()
		}
	}); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a fused decode step makes %v allocations, want 0", allocs)
	}
}

// TestClientRecvAllocatesNothing holds a warm handle's receive at zero
// allocations: Recv parks the client on the handle's mailbox, and the
// inferlet's Send that wakes it hands the message over in the mailbox's
// buffer. The inferlet sleeps before each message, so every receive parks.
func TestClientRecvAllocatesNothing(t *testing.T) {
	const runs = 200
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{Name: "stream", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		for range runs + 2 { // a warm-up receive, and AllocsPerRun's own
			s.Sleep(time.Microsecond)
			s.Send("token")
		}
		return nil
	}})
	allocs := -1.0
	var err error
	if cerr := e.RunClient(func() {
		var h *pie.Handle
		if h, err = e.Launch(pie.Spec("stream")); err != nil {
			return
		}
		if _, err = h.Recv().Get(); err != nil {
			return
		}
		allocs = testing.AllocsPerRun(runs, func() {
			if err == nil {
				_, err = h.Recv().Get()
			}
		})
		if err == nil {
			err = h.Wait()
		}
	}); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a client receive makes %v allocations, want 0", allocs)
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

// sessionProgram is the shortest whole session the serving path sees: it
// opens a queue, takes its Alloc and Fused capabilities, one KV page and
// one output slot, runs one fused step over an 8-token prompt and closes
// the queue.
func sessionProgram(model api.ModelID) inferlet.Program {
	toks, pos := []int{5, 9, 14, 20, 27, 35, 44, 54}, []int{0, 1, 2, 3, 4, 5, 6, 7}
	return inferlet.Program{Name: "session", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		q, err := s.Open(model)
		if err != nil {
			return err
		}
		alloc, err := q.Alloc()
		if err != nil {
			return err
		}
		fz, err := q.Fused()
		if err != nil {
			return err
		}
		kv, err := alloc.Pages(1)
		if err != nil {
			return err
		}
		out, err := alloc.Embeds(1)
		if err != nil {
			return err
		}
		f, err := fz.Run(inferlet.InlineTokens(toks, pos), inferlet.AppendKv(kv...), inferlet.Output(out...))
		if err != nil {
			return err
		}
		if _, err := f.Get(); err != nil {
			return err
		}
		return q.Close()
	}}
}

// launchSession runs one session of sessionProgram from the client's side:
// Launch, then Wait.
func launchSession(e *pie.Engine) error {
	h, err := e.Launch(pie.Spec("session"))
	if err != nil {
		return err
	}
	return h.Wait()
}

// sessionEngine is a timing-mode engine with sessionProgram registered.
func sessionEngine() *pie.Engine {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(sessionProgram(api.ModelID(e.Models()[0])))
	return e
}

// BenchmarkLaunchSession is the host cost of one whole session
// (launchSession) on an engine with nothing else running, the artifact
// cached: what the lifecycle costs beyond the calls a program makes.
// TestSessionAllocations holds its allocations.
func BenchmarkLaunchSession(b *testing.B) {
	e := sessionEngine()
	var err error
	if cerr := e.RunClient(func() {
		if err = launchSession(e); err != nil { // cold
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N && err == nil; i++ {
			err = launchSession(e)
		}
		b.StopTimer()
	}); cerr != nil {
		b.Fatal(cerr)
	}
	if err != nil {
		b.Fatal(err)
	}
}

// TestSessionAllocations pins what a warm session allocates
// (launchSession): the client's handle, which holds the lifecycle
// manager's handle, its mailboxes, done future, retry stream and session,
// and the session's first queue; the instance, which holds its first
// command queue; the inferlet's process and its body; the page and slot
// lists Pages and Embeds return. Nothing else: the sync of Close's drain
// parks on its op's record and the fused step's result lives in its call's.
func TestSessionAllocations(t *testing.T) {
	const want = 6
	e := sessionEngine()
	allocs := -1.0
	var err error
	if cerr := e.RunClient(func() {
		if err = launchSession(e); err != nil { // cold
			return
		}
		allocs = testing.AllocsPerRun(200, func() {
			if err == nil {
				err = launchSession(e)
			}
		})
	}); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if allocs != want {
		t.Errorf("a warm session makes %v allocations, want %d", allocs, want)
	}
}

// TestAgentSessionAllocations pins what one warm agent_react session
// allocates, launch to Wait, at the parameters the benchmark's agent_closed
// workload runs it with: eight think → tool → observe steps and a final
// answer. The count is exact; a change that adds a copy of tokens the
// context holds shows here. The collector is off while it counts: a cycle
// that overlaps the window adds runtime allocations of its own.
func TestAgentSessionAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates on a schedule of its own: 86 to 88 here")
	}
	const want = 67
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(apps.All()...)
	e.RegisterTool("search.api", 40*time.Millisecond, func(string) string { return "ok" })
	spec := pie.Spec("agent_react", `{"steps":8,"think_tokens":24,"obs_tokens":16,"final_tokens":24}`)
	session := func() error {
		h, err := e.Launch(spec)
		if err != nil {
			return err
		}
		if err := h.Wait(); err != nil {
			return err
		}
		if _, ok := h.TryRecv(); !ok {
			return fmt.Errorf("the agent sent no answer")
		}
		return nil
	}
	allocs := -1.0
	var err error
	if cerr := e.RunClient(func() {
		if err = session(); err != nil { // cold
			return
		}
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs = testing.AllocsPerRun(20, func() {
			if err == nil {
				err = session()
			}
		})
	}); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if allocs != want {
		t.Errorf("a warm agent_react session makes %v allocations, want %d", allocs, want)
	}
}

// fleetConfig is the engine shape of the benchmark's fleet_mixed workload:
// six replicas, two of them prefill, kv-affinity placement, an interactive
// and a batch service class, and the health monitor.
func fleetConfig() pie.Config {
	return pie.Config{
		Seed:      42,
		Mode:      pie.ModeTiming,
		Replicas:  6,
		Roles:     []pie.RoleSpec{{Role: pie.RolePrefill, Count: 2}, {Role: pie.RoleDecode}},
		Placement: pie.PlaceKVAffinity,
		Classes:   []pie.ServiceClass{{Name: "interactive", Priority: 10}, {Name: "batch"}},
		Health:    pie.HealthConfig{Enabled: true, HangTimeout: 5 * time.Second},
	}
}

// BenchmarkEngineSetup is what standing an engine up costs, in
// deterministic allocations and in host time: pie.New in fleetConfig's
// shape, every app registered, and one session run to its end, the one
// that warms the program's artifact.
func BenchmarkEngineSetup(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		e := pie.New(fleetConfig())
		e.MustRegister(apps.All()...)
		e.MustRegister(sessionProgram(api.ModelID(e.Models()[0])))
		var err error
		if cerr := e.RunClient(func() { err = launchSession(e) }); cerr != nil || err != nil {
			b.Fatal(cerr, err)
		}
	}
}

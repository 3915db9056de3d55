package baseline

import (
	"fmt"
	fnvhash "hash/fnv"
	"testing"
	"time"

	"pie/internal/sim"
)

// The baseline timeline golden: an FNV-1a hash over every request's (ID,
// FirstToken, Finished), written in the order the clients saw them finish,
// then each engine's Steps, Preemptions and CacheHitToks, for one clock that
// runs five engines side by side: vLLM, SGLang with its radix cache and a
// server-side fork, single-stream StreamingLLM, vLLM with speculative
// decoding, and an 8B vLLM handed a request that does not fit its pool (the
// OOM abort, then the 1 ms admission retry a request arriving meanwhile
// waits for) and one that arrives exactly as a step kernel completes. The constant was generated before the engine became a state
// machine on device callbacks and must not be regenerated: a change that
// moves one of the engine's continuations out of its (time, sequence) slot
// changes the hash.
const goldenTimelineHash = 0xb1eaa0e2689a2a1c

func timelineRun(t *testing.T) uint64 {
	clock := sim.NewClock()
	engines := []*Engine{
		NewEngine(clock, Config{Kind: VLLM, ModelLabel: "1B"}),
		NewEngine(clock, Config{Kind: SGLang, ModelLabel: "1B"}),
		NewEngine(clock, Config{Kind: StreamingLLM, ModelLabel: "1B"}),
		NewEngine(clock, Config{Kind: VLLM, ModelLabel: "1B", SpecDecode: true}),
		NewEngine(clock, Config{Kind: VLLM, ModelLabel: "8B"}),
	}
	h := fnvhash.New64a()
	seen := func(eng int, r *Request) {
		fmt.Fprintf(h, "%d %d %d %d %d\n", eng, r.ID, r.FirstToken, r.Finished, len(r.Output))
	}
	rng := sim.NewRNG(11)
	g := sim.NewGroup(clock)
	for i, e := range engines[:4] {
		for j := 0; j < 5; j++ {
			// Arrivals collide on purpose, within an engine and across
			// engines; a shared prefix gives the caches something to hit,
			// and each client's follow-up extends its conversation.
			at := time.Duration(rng.Intn(4)) * time.Millisecond
			p := prompt(40 + 16*(j%3))
			n := 6 + 3*(j%3)
			g.Go(fmt.Sprintf("client%d.%d", i, j), func() {
				clock.Sleep(at)
				r := e.Submit(&Request{Prompt: p, MaxTokens: n, Guided: j == 4})
				_ = sim.Await(r.Done)
				seen(i, r)
				r2 := e.Submit(&Request{Prompt: append(append([]int(nil), p...), r.Output...), MaxTokens: 4, BeamWidth: 1 + j%2})
				_ = sim.Await(r2.Done)
				seen(i, r2)
			})
		}
	}
	g.Go("fork", func() {
		c := NewClient(clock, engines[1], 2*time.Millisecond)
		for k, out := range c.GenerateFork(prompt(70), 3, 5, nil) {
			fmt.Fprintf(h, "fork %d %v %d\n", k, out, clock.Now())
		}
	})
	oom := engines[4]
	g.Go("oom", func() {
		huge := prompt((oom.blockPool.capacity + 10) * oom.cfg.PageSize)
		r := oom.Submit(&Request{Prompt: huge, MaxTokens: 8})
		_ = sim.Await(r.Done)
		seen(4, r)
	})
	g.Go("after-oom", func() {
		clock.Sleep(500 * time.Microsecond) // inside the admission retry
		r := oom.Submit(&Request{Prompt: prompt(24), MaxTokens: 4})
		_ = sim.Await(r.Done)
		seen(4, r)
		if r.FirstToken <= time.Millisecond {
			t.Errorf("a request that arrived during the admission retry produced a token at %v, before the retry", r.FirstToken)
		}
	})
	g.Go("on-the-step-boundary", func() {
		// Arrives the instant the 8B engine's first step kernel completes,
		// from a sleep armed after that kernel started: the completion is
		// due first, but the engine's next turn must come after this
		// arrival and admit it, as the turn of a loop woken by the
		// completion did.
		clock.Sleep(1500 * time.Microsecond)
		clock.Sleep(oom.device.Due() - clock.Now())
		r := oom.Submit(&Request{Prompt: prompt(20), MaxTokens: 3})
		_ = sim.Await(r.Done)
		seen(4, r)
	})
	clock.Go("main", g.Wait)
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if engines[4].Preemptions != 1 || engines[0].CacheHitToks == 0 || engines[1].CacheHitToks == 0 {
		t.Errorf("the scenario missed a path: %d OOM aborts (want 1), cache hits %d (vLLM) and %d (SGLang)",
			engines[4].Preemptions, engines[0].CacheHitToks, engines[1].CacheHitToks)
	}
	for i, e := range engines {
		fmt.Fprintf(h, "engine %d: %d %d %d\n", i, e.Steps, e.Preemptions, e.CacheHitToks)
	}
	return h.Sum64()
}

func TestBaselineTimelineGolden(t *testing.T) {
	for rep := 0; rep < 2; rep++ {
		if got := timelineRun(t); got != goldenTimelineHash {
			t.Fatalf("rep %d: timeline hash %#x, golden %#x: a baseline engine event moved", rep, got, uint64(goldenTimelineHash))
		}
	}
}

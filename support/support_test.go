package support_test

import (
	"fmt"
	"strings"
	"testing"

	"pie"
	"pie/api"
	"pie/inferlet"
	"pie/support"
)

// run executes body inside a registered inferlet on a fresh full-fidelity
// engine and returns its Send output.
func run(t *testing.T, seed uint64, body func(s inferlet.Session) (string, error)) string {
	t.Helper()
	e := pie.New(pie.Config{Seed: seed, Mode: pie.ModeFull})
	e.MustRegister(inferlet.Program{
		Name: "t", BinarySize: 64 << 10,
		Run: func(s inferlet.Session) error {
			out, err := body(s)
			if err != nil {
				return err
			}
			s.Send(out)
			return nil
		},
	})
	var got string
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("t"))
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		got, _ = h.Recv().Get()
		if err := h.Wait(); err != nil {
			t.Errorf("inferlet: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestContextThreeLineCompletion(t *testing.T) {
	// The paper's three-line support-library example.
	got := run(t, 42, func(s inferlet.Session) (string, error) {
		ctx, err := support.NewContext(s, s.AvailableModels()[0])
		if err != nil {
			return "", err
		}
		if err := ctx.Fill("Hello, "); err != nil {
			return "", err
		}
		res, err := ctx.Generate(support.GenOpts{MaxTokens: 10})
		if err != nil {
			return "", err
		}
		return res.Text, nil
	})
	if got == "" {
		t.Fatal("no text generated")
	}
	// Must match the raw-API loop from the same seed (the engine_test
	// autoregressive program generates " did..." for seed 42).
	if !strings.Contains(got, "did") {
		t.Logf("note: text %q (model content is seed-dependent)", got)
	}
}

func TestContextMatchesRawAPI(t *testing.T) {
	// Generate 8 tokens with the Context abstraction...
	viaCtx := run(t, 7, func(s inferlet.Session) (string, error) {
		ctx, err := support.NewContext(s, s.AvailableModels()[0])
		if err != nil {
			return "", err
		}
		if err := ctx.Fill("the answer is "); err != nil {
			return "", err
		}
		res, err := ctx.Generate(support.GenOpts{MaxTokens: 8})
		if err != nil {
			return "", err
		}
		return fmt.Sprint(res.Tokens), nil
	})
	// ...and with raw v2 capability calls.
	viaRaw := run(t, 7, func(s inferlet.Session) (string, error) {
		m := s.AvailableModels()[0]
		q, err := s.Open(m.ID)
		if err != nil {
			return "", err
		}
		tokenizer, _ := q.Tokenizer()
		alloc, _ := q.Alloc()
		text, _ := q.Text()
		fwd, _ := q.Forward()
		sample, _ := q.Sample()
		toks, _ := tokenizer.Encode("the answer is ")
		prom, err := toks.Get()
		if err != nil {
			return "", err
		}
		limit := len(prom) + 8
		emb, _ := alloc.Embeds(len(prom))
		gen, _ := alloc.Embeds(1)
		kv, _ := alloc.Pages((limit + m.PageSize - 1) / m.PageSize)
		pos := make([]int, len(prom))
		for i := range pos {
			pos[i] = i
		}
		text.Embed(prom, pos, emb)
		fwd.Run(inferlet.Input(emb...), inferlet.AppendKv(kv...), inferlet.Output(gen...))
		var out []int
		for i := len(prom); i < limit; i++ {
			df, err := sample.NextDist(gen[0])
			if err != nil {
				return "", err
			}
			d, err := df.Get()
			if err != nil {
				return "", err
			}
			tok := d.ArgMax()
			out = append(out, tok)
			text.Embed([]int{tok}, []int{i}, gen)
			fwd.Run(inferlet.ReadKv(kv...), inferlet.Input(gen...), inferlet.AppendKv(kv...), inferlet.Output(gen...))
		}
		return fmt.Sprint(out), nil
	})
	if viaCtx != viaRaw {
		t.Fatalf("Context (%s) and raw API (%s) generated different tokens", viaCtx, viaRaw)
	}
}

func TestForkChildrenSeeParentContext(t *testing.T) {
	got := run(t, 11, func(s inferlet.Session) (string, error) {
		ctx, err := support.NewContext(s, s.AvailableModels()[0])
		if err != nil {
			return "", err
		}
		if err := ctx.Fill("fork me please right now "); err != nil {
			return "", err
		}
		parentDist, err := ctx.NextDist()
		if err != nil {
			return "", err
		}
		kids, err := ctx.Fork(2)
		if err != nil {
			return "", err
		}
		d0, err := kids[0].NextDist()
		if err != nil {
			return "", err
		}
		d1, err := kids[1].NextDist()
		if err != nil {
			return "", err
		}
		if d0.ArgMax() != parentDist.ArgMax() || d1.ArgMax() != parentDist.ArgMax() {
			return "", fmt.Errorf("forked children disagree with parent: %d/%d vs %d",
				d0.ArgMax(), d1.ArgMax(), parentDist.ArgMax())
		}
		// Children diverge independently.
		if err := kids[0].Append(d0.Tokens[0]); err != nil {
			return "", err
		}
		if err := kids[1].Append(d1.Tokens[1]); err != nil {
			return "", err
		}
		a, err := kids[0].NextDist()
		if err != nil {
			return "", err
		}
		b, err := kids[1].NextDist()
		if err != nil {
			return "", err
		}
		if a.ArgMax() == b.ArgMax() {
			// Possible but unlikely; not an error per se. Report it.
			return "same", nil
		}
		return "diverged", nil
	})
	if got != "diverged" && got != "same" {
		t.Fatalf("fork test failed: %q", got)
	}
}

// A forked child appending tokens must match a never-forked context that
// took the same path (fork is semantically transparent).
func TestForkTransparency(t *testing.T) {
	straight := run(t, 13, func(s inferlet.Session) (string, error) {
		ctx, _ := support.NewContext(s, s.AvailableModels()[0])
		if err := ctx.Fill("transparent forks "); err != nil {
			return "", err
		}
		res, err := ctx.Generate(support.GenOpts{MaxTokens: 6})
		if err != nil {
			return "", err
		}
		return fmt.Sprint(res.Tokens), nil
	})
	forked := run(t, 13, func(s inferlet.Session) (string, error) {
		ctx, _ := support.NewContext(s, s.AvailableModels()[0])
		if err := ctx.Fill("transparent forks "); err != nil {
			return "", err
		}
		kids, err := ctx.Fork(1)
		if err != nil {
			return "", err
		}
		res, err := kids[0].Generate(support.GenOpts{MaxTokens: 6})
		if err != nil {
			return "", err
		}
		return fmt.Sprint(res.Tokens), nil
	})
	if straight != forked {
		t.Fatalf("forked path diverged: straight=%s forked=%s", straight, forked)
	}
}

func TestParallelGenerateLockstep(t *testing.T) {
	got := run(t, 17, func(s inferlet.Session) (string, error) {
		root, err := support.NewContext(s, s.AvailableModels()[0])
		if err != nil {
			return "", err
		}
		if err := root.Fill("parallel branches "); err != nil {
			return "", err
		}
		kids, err := root.Fork(3)
		if err != nil {
			return "", err
		}
		samplers := []support.Sampler{
			support.Greedy{},
			&support.TopK{K: 4, Temperature: 0.9, Seed: 1},
			&support.TopK{K: 4, Temperature: 0.9, Seed: 2},
		}
		res, err := support.ParallelGenerate(kids, support.GenOpts{MaxTokens: 5}, samplers)
		if err != nil {
			return "", err
		}
		if len(res) != 3 {
			return "", fmt.Errorf("got %d results", len(res))
		}
		for i, r := range res {
			if len(r.Tokens) != 5 {
				return "", fmt.Errorf("branch %d generated %d tokens", i, len(r.Tokens))
			}
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
}

// TestParallelGenerateObservesTokens: ParallelGenerate accepts a token the
// way Generate does, so OnToken sees every token the branches add, in the
// lockstep order they are accepted.
func TestParallelGenerateObservesTokens(t *testing.T) {
	got := run(t, 17, func(s inferlet.Session) (string, error) {
		root, err := support.NewContext(s, s.AvailableModels()[0])
		if err != nil {
			return "", err
		}
		if err := root.Fill("observed branches "); err != nil {
			return "", err
		}
		kids, err := root.Fork(2)
		if err != nil {
			return "", err
		}
		var seen []int
		samplers := []support.Sampler{support.Greedy{}, &support.TopK{K: 4, Temperature: 0.9, Seed: 3}}
		res, err := support.ParallelGenerate(kids, support.GenOpts{MaxTokens: 4, OnToken: func(tok int) { seen = append(seen, tok) }}, samplers)
		if err != nil {
			return "", err
		}
		var want []int
		for step := range 4 {
			for _, r := range res {
				if step < len(r.Tokens) {
					want = append(want, r.Tokens[step])
				}
			}
		}
		if len(want) == 0 || fmt.Sprint(seen) != fmt.Sprint(want) {
			return "", fmt.Errorf("OnToken saw %v, want the accepted tokens %v", seen, want)
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
}

// Masking affects subsequent forwards (not already-computed outputs), so
// compare the post-append distribution of a masked run against an
// unmasked run from the same seed.
func TestMaskRangeChangesDist(t *testing.T) {
	gen := func(mask bool) string {
		return run(t, 19, func(s inferlet.Session) (string, error) {
			ctx, _ := support.NewContext(s, s.AvailableModels()[0])
			if err := ctx.Fill("mask the early tokens of this context away "); err != nil {
				return "", err
			}
			if mask {
				if err := ctx.MaskRange(0, 4, true); err != nil {
					return "", err
				}
				if err := ctx.Sync(); err != nil {
					return "", err
				}
			}
			if err := ctx.Append(100); err != nil {
				return "", err
			}
			d, err := ctx.NextDist()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d:%.6f", d.ArgMax(), d.Probs[0]), nil
		})
	}
	unmasked := gen(false)
	masked := gen(true)
	if unmasked == masked {
		t.Fatalf("masking [0,4) had no observable effect: %s", masked)
	}
}

func TestSamplers(t *testing.T) {
	d := api.Dist{Tokens: []int{10, 20, 30}, Probs: []float32{0.5, 0.3, 0.2}}
	if (support.Greedy{}).Next(d) != 10 {
		t.Fatal("greedy did not take argmax")
	}
	s := &support.Scripted{Tokens: []int{7, 8}}
	if s.Next(d) != 7 || s.Next(d) != 8 {
		t.Fatal("scripted order wrong")
	}
	if s.Next(d) != 10 {
		t.Fatal("scripted fallback to greedy failed")
	}
	tk := &support.TopK{K: 2, Temperature: 1.0, Seed: 3}
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		counts[tk.Next(d)]++
	}
	if counts[30] != 0 {
		t.Fatal("TopK(2) sampled outside the top 2")
	}
	if counts[10] == 0 || counts[20] == 0 {
		t.Fatalf("TopK degenerate: %v", counts)
	}
	masked := &support.MaskedSampler{
		Allowed: func(tok int) bool { return tok == 20 },
		Base:    support.Greedy{},
	}
	if masked.Next(d) != 20 {
		t.Fatal("masked sampler ignored the mask")
	}
	biased := &support.BiasedSampler{
		Bias: func(tok int) float32 {
			if tok == 30 {
				return 10 // huge greenlist boost
			}
			return 0
		},
		Base: support.Greedy{},
	}
	if biased.Next(d) != 30 {
		t.Fatal("biased sampler ignored the bias")
	}
}

func TestContextDropReleasesPages(t *testing.T) {
	e := pie.New(pie.Config{Seed: 23, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{
		Name: "dropper", BinarySize: 1 << 10,
		Run: func(s inferlet.Session) error {
			ctx, err := support.NewContext(s, s.AvailableModels()[0])
			if err != nil {
				return err
			}
			if err := ctx.Fill(strings.Repeat("words and more words ", 10)); err != nil {
				return err
			}
			if err := ctx.Drop(); err != nil {
				return err
			}
			return ctx.Sync()
		},
	})
	if err := e.RunClient(func() {
		h, _ := e.Launch(pie.Spec("dropper"))
		if err := h.Wait(); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	inUse, _ := e.PoolStats("llama-1b")
	if inUse != 0 {
		t.Fatalf("pages leaked after Drop: %d", inUse)
	}
}

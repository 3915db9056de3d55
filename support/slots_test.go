package support_test

import (
	"fmt"
	"slices"
	"testing"

	"pie"
	"pie/api"
	"pie/inferlet"
	"pie/support"
)

// The decode slots: a context keeps one output slot and, from its first
// one-token extension on, one input slot, so a decode step makes no
// control-layer call of its own. Control calls are read from Handle.Stats;
// a mark costs two (its Send and its Receive).

const markCalls = 2

func TestDecodeStepsMakeNoControlCalls(t *testing.T) {
	const n = 32
	var pages [4]int
	m := stats(t, timing, func(s inferlet.Session, mark func()) error {
		c, err := prefilled(s, "count the control calls ")
		if err != nil {
			return err
		}
		pages[0] = len(c.Pages())
		mark()
		if _, err := c.Generate(support.GenOpts{MaxTokens: n}); err != nil {
			return err
		}
		pages[1] = len(c.Pages())
		mark()
		// A second turn: the pending token and eight more prefill in one
		// forward, which allocates and frees its nine input slots.
		if err := c.FillTokens(slices.Repeat([]int{9}, 8)); err != nil {
			return err
		}
		if err := c.Flush(); err != nil {
			return err
		}
		pages[2] = len(c.Pages())
		mark()
		if _, err := c.Generate(support.GenOpts{MaxTokens: n}); err != nil {
			return err
		}
		pages[3] = len(c.Pages())
		mark()
		return c.Drop()
	})
	control := func(i int) int { return m[i].control - m[i-1].control - markCalls }
	// First turn: alloc_emb for the input slot, once, and an alloc_kvpage
	// each time the stream crosses into a new page.
	if got, want := control(1), 1+pages[1]-pages[0]; got != want {
		t.Errorf("Generate(%d) made %d control calls, want %d: one input slot and %d pages", n, got, want, pages[1]-pages[0])
	}
	if got, want := control(2), 2+pages[2]-pages[1]; got != want {
		t.Errorf("a nine-token prefill made %d control calls, want %d: alloc_emb, dealloc_emb and %d pages", got, want, pages[2]-pages[1])
	}
	if got, want := control(3), pages[3]-pages[2]; got != want {
		t.Errorf("the second Generate(%d) made %d control calls, want %d: its pages and nothing else", n, got, want)
	}
	// n get_next_dist, n-1 embed + forward pairs, one detokenize: unchanged.
	if got, want := m[3].infer-m[2].infer, n+2*(n-1)+1; got != want {
		t.Errorf("the second Generate(%d) issued %d inference calls, want %d", n, got, want)
	}
}

// TestDropFreesBothSlotsInOneCall: session end costs what it did with one
// slot — a dealloc_kvpage and a dealloc_emb — and leaves the pool empty.
func TestDropFreesBothSlotsInOneCall(t *testing.T) {
	e := pie.New(timing)
	var held, left int
	m := statsOn(t, e, func(s inferlet.Session, mark func()) error {
		c, err := filled(s, "drop both slots ")
		if err != nil {
			return err
		}
		if _, err := c.Generate(support.GenOpts{MaxTokens: 4}); err != nil {
			return err
		}
		model := string(c.Model.ID)
		held, _ = e.Controller().EmbedPoolStats(model)
		mark()
		if err := c.Drop(); err != nil {
			return err
		}
		mark()
		if err := c.Sync(); err != nil {
			return err
		}
		left, _ = e.Controller().EmbedPoolStats(model)
		return nil
	})
	if held != 2 {
		t.Fatalf("%d embed slots held after decode steps, want the output and the input slot", held)
	}
	if got := m[1].control - m[0].control - markCalls; got != 2 {
		t.Errorf("Drop made %d control calls, want dealloc_kvpage + dealloc_emb", got)
	}
	if left != 0 {
		t.Errorf("%d embed slots in use after Drop, want 0", left)
	}
}

// dist renders a distribution exactly.
func dist(d api.Dist) string { return fmt.Sprintf("%v %v", d.Tokens, d.Probs) }

// TestOneTokenProbeLeavesTheNextStepAlone: a one-token probe reads its input
// from the slot the decode steps around it use. The step after it must give
// the distribution it gives without the probe, and the probe itself the
// distribution of a context that really appended its token.
func TestOneTokenProbeLeavesTheNextStepAlone(t *testing.T) {
	const probeTok = 77
	got := run(t, 41, func(s inferlet.Session) (string, error) {
		var ctx [3]*support.Context // probed, plain, appended
		for i := range ctx {
			var err error
			if ctx[i], err = filled(s, "probe between two decode steps "); err != nil {
				return "", err
			}
		}
		step := func(c *support.Context, tok int) (api.Dist, error) {
			if err := c.Append(tok); err != nil {
				return api.Dist{}, err
			}
			return c.NextDist()
		}
		var last [3]api.Dist
		for i, c := range ctx {
			d, err := c.NextDist()
			if err != nil {
				return "", err
			}
			if last[i], err = step(c, d.ArgMax()); err != nil { // a decode step: the input slot is live
				return "", err
			}
		}
		probe, err := ctx[0].ProbeTokens([]int{probeTok}, 1)
		if err != nil {
			return "", err
		}
		appended, err := step(ctx[2], probeTok)
		if err != nil {
			return "", err
		}
		if dist(probe[0]) != dist(appended) {
			return "", fmt.Errorf("the probe saw %s, a context that appended the token %s", dist(probe[0]), dist(appended))
		}
		next := last[0].ArgMax()
		probed, err := step(ctx[0], next)
		if err != nil {
			return "", err
		}
		plain, err := step(ctx[1], next)
		if err != nil {
			return "", err
		}
		if dist(probed) != dist(plain) {
			return "", fmt.Errorf("after the probe the step gave %s, without it %s", dist(probed), dist(plain))
		}
		if ctx[0].Len() != ctx[1].Len() || ctx[0].Slots() != ctx[1].Slots() {
			return "", fmt.Errorf("the probe moved the stream: Len %d/%d Slots %d/%d", ctx[0].Len(), ctx[1].Len(), ctx[0].Slots(), ctx[1].Slots())
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
}

// TestForkTruncateExportAfterDecodeSteps: with both slots live, the calls
// that read or reshape the stream still see exactly the stream — checked
// against a reference context prefilled with the same tokens in one piece.
func TestForkTruncateExportAfterDecodeSteps(t *testing.T) {
	got := run(t, 43, func(s inferlet.Session) (string, error) {
		m := s.AvailableModels()[0]
		c, err := filled(s, "fork, truncate and export after decoding ")
		if err != nil {
			return "", err
		}
		if _, err := c.Generate(support.GenOpts{MaxTokens: 6}); err != nil {
			return "", err
		}
		reference := func(tokens []int) (*support.Context, error) {
			ref, err := support.NewContext(s, m)
			if err != nil {
				return nil, err
			}
			return ref, ref.FillTokens(tokens)
		}
		same := func(what string, a, b *support.Context) error {
			da, err := a.NextDist()
			if err != nil {
				return err
			}
			db, err := b.NextDist()
			if err != nil {
				return err
			}
			if dist(da) != dist(db) {
				return fmt.Errorf("%s: %s, the reference gives %s", what, dist(da), dist(db))
			}
			return nil
		}

		// Fork: a child continues the stream as a never-forked context would,
		// taking decode steps (and an input slot) of its own.
		kids, err := c.Fork(2)
		if err != nil {
			return "", err
		}
		ref, err := reference(c.Tokens)
		if err != nil {
			return "", err
		}
		for i, kid := range kids {
			if err := same(fmt.Sprintf("child %d", i), kid, ref); err != nil {
				return "", err
			}
		}
		a, err := kids[0].Generate(support.GenOpts{MaxTokens: 4})
		if err != nil {
			return "", err
		}
		b, err := ref.Generate(support.GenOpts{MaxTokens: 4})
		if err != nil {
			return "", err
		}
		if !slices.Equal(a.Tokens, b.Tokens) {
			return "", fmt.Errorf("a forked child decoded %v, the reference %v", a.Tokens, b.Tokens)
		}
		for _, kid := range kids {
			if err := kid.Close(); err != nil {
				return "", err
			}
		}

		// Export: an importer probing the shared pages sees what the
		// exporter's own probe sees.
		if err := c.Export("slots:after-decode"); err != nil {
			return "", err
		}
		imp, err := support.ImportContext(s, m, "slots:after-decode", c.Tokens)
		if err != nil {
			return "", err
		}
		own, err := c.ProbeTokens([]int{5}, 1)
		if err != nil {
			return "", err
		}
		theirs, err := imp.ProbeTokens([]int{5}, 1)
		if err != nil {
			return "", err
		}
		if dist(own[0]) != dist(theirs[0]) {
			return "", fmt.Errorf("an importer's probe saw %s, the exporter's %s", dist(theirs[0]), dist(own[0]))
		}

		// Truncate: rolling two tokens back and taking one decode step equals
		// the shorter stream prefilled directly.
		keep := c.Len() - 2
		if err := c.Truncate(keep); err != nil {
			return "", err
		}
		if err := c.Append(5); err != nil {
			return "", err
		}
		if ref, err = reference(c.Tokens); err != nil {
			return "", err
		}
		if err := same("after Truncate + Append", c, ref); err != nil {
			return "", err
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
}

// TestHandoffCarriesBothSlots: a prefill/decode fleet moves a session whose
// two slots both hold data — a second context keeps the instance busy across
// the first decode step, so the handoff waits for the boundary after it —
// and the session decodes the tokens it decodes on one replica.
func TestHandoffCarriesBothSlots(t *testing.T) {
	decode := func(cfg pie.Config) (tokens []int, early, handoffs int) {
		e := pie.New(cfg)
		pool := newPoisonPool(t)
		e.MustRegister(inferlet.Program{Name: "t", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
			s = pool.session(s)
			m := s.AvailableModels()[0]
			c, err := filled(s, "hand this session off mid-decode ")
			if err != nil {
				return err
			}
			// Six chained prefills, not awaited: twelve batches one after
			// another, against the six of c's prefill and first decode step.
			busy, err := support.NewContext(s, m)
			if err != nil {
				return err
			}
			for i := 0; i < 6; i++ {
				if err := busy.FillTokens(slices.Repeat([]int{3 + i}, 8)); err != nil {
					return err
				}
			}
			d, err := c.NextDist()
			if err != nil {
				return err
			}
			if err := c.Append(d.ArgMax()); err != nil {
				return err
			}
			if d, err = c.NextDist(); err != nil {
				return err
			}
			early = e.Stats().Handoffs
			res, err := c.Generate(support.GenOpts{MaxTokens: 10})
			if err != nil {
				return err
			}
			tokens = append([]int{d.ArgMax()}, res.Tokens...)
			if err := busy.Drop(); err != nil {
				return err
			}
			if err := c.Drop(); err != nil {
				return err
			}
			return c.Sync()
		}})
		launchAndWait(t, e)
		return tokens, early, e.Stats().Handoffs
	}
	one, _, _ := decode(pie.Config{Seed: 42, Mode: pie.ModeFull})
	pd, early, handoffs := decode(pie.Config{Seed: 42, Mode: pie.ModeFull, Replicas: 2,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}}})
	if early != 0 || handoffs != 1 {
		t.Fatalf("%d handoffs by the end of the first decode step and %d in all, want 0 and 1", early, handoffs)
	}
	if len(one) != 11 || !slices.Equal(one, pd) {
		t.Fatalf("handed off mid-decode the session produced %v, on one replica %v", pd, one)
	}
}

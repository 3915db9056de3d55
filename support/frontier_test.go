package support_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"pie"
	"pie/api"
	"pie/inferlet"
	"pie/support"
)

// The lazy-frontier contract: Append issues nothing, the pending tokens
// ride in whatever extends the stream next, and only a call that needs
// their KV or output flushes them. Calls are counted through the
// instance's InferCalls: an embed and a forward are one call each, so is a
// get_next_dist, a tokenize and a detokenize.

// counts is an instance's call counters at one mark (Handle.Stats).
type counts struct{ control, infer int }

// statsOn runs body as an inferlet on e and returns the instance's counters
// at each mark() (the inferlet waits for the client to read them).
func statsOn(t *testing.T, e *pie.Engine, body func(s inferlet.Session, mark func()) error) []counts {
	t.Helper()
	e.MustRegister(inferlet.Program{Name: "t", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		err := body(s, func() {
			s.Send("mark")
			s.Receive().Get()
		})
		s.Send("end")
		return err
	}})
	var out []counts
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("t"))
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		for {
			msg, err := h.Recv().Get()
			if err != nil || msg != "mark" {
				break
			}
			control, infer, _ := h.Stats()
			out = append(out, counts{control, infer})
			h.Send("ack")
		}
		if err := h.Wait(); err != nil {
			t.Errorf("inferlet: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func stats(t *testing.T, cfg pie.Config, body func(s inferlet.Session, mark func()) error) []counts {
	t.Helper()
	return statsOn(t, pie.New(cfg), body)
}

// marks is stats' inference-call column.
func marks(t *testing.T, cfg pie.Config, body func(s inferlet.Session, mark func()) error) []int {
	t.Helper()
	var out []int
	for _, c := range stats(t, cfg, body) {
		out = append(out, c.infer)
	}
	return out
}

var timing = pie.Config{Seed: 42, Mode: pie.ModeTiming}

func filled(s inferlet.Session, text string) (*support.Context, error) {
	c, err := support.NewContext(s, s.AvailableModels()[0])
	if err != nil {
		return nil, err
	}
	return c, c.Fill(text)
}

func TestGenerateIssuesNoForwardForItsLastToken(t *testing.T) {
	const n = 6
	var prompt, length, slots, tokens int
	m := marks(t, timing, func(s inferlet.Session, mark func()) error {
		c, err := filled(s, "count the forwards ")
		if err != nil {
			return err
		}
		prompt = c.Len()
		mark()
		if _, err := c.Generate(support.GenOpts{MaxTokens: n}); err != nil {
			return err
		}
		mark()
		length, slots, tokens = c.Len(), c.Slots(), len(c.Tokens)
		return c.Sync()
	})
	// n get_next_dist, n-1 embed + forward pairs, one detokenize.
	if got, want := m[1]-m[0], n+2*(n-1)+1; got != want {
		t.Fatalf("Generate(%d) issued %d inference calls, want %d", n, got, want)
	}
	if length != prompt+n || tokens != length {
		t.Fatalf("Len = %d, len(Tokens) = %d, want both %d", length, tokens, prompt+n)
	}
	if slots != length-1 {
		t.Fatalf("Slots = %d with one token pending, want %d", slots, length-1)
	}
}

func TestPendingTokenRidesTheNextFill(t *testing.T) {
	more := []int{11, 12, 13}
	var lazy, direct string
	var slots, length int
	m := marks(t, pie.Config{Seed: 42, Mode: pie.ModeFull}, func(s inferlet.Session, mark func()) error {
		c, err := filled(s, "turn one ")
		if err != nil {
			return err
		}
		if _, err := c.Generate(support.GenOpts{MaxTokens: 4}); err != nil {
			return err
		}
		mark()
		if err := c.FillTokens(more); err != nil {
			return err
		}
		mark()
		slots, length = c.Slots(), c.Len()
		d, err := c.NextDist()
		if err != nil {
			return err
		}
		lazy = fmt.Sprintf("%d:%.6f", d.ArgMax(), d.Probs[0])
		// The same stream prefilled in one piece attends the same KV.
		ref, err := support.NewContext(s, s.AvailableModels()[0])
		if err != nil {
			return err
		}
		if err := ref.FillTokens(c.Tokens); err != nil {
			return err
		}
		if d, err = ref.NextDist(); err != nil {
			return err
		}
		direct = fmt.Sprintf("%d:%.6f", d.ArgMax(), d.Probs[0])
		return nil
	})
	if got := m[1] - m[0]; got != 2 {
		t.Fatalf("FillTokens after Generate issued %d inference calls, want one embed + one forward", got)
	}
	if slots != length {
		t.Fatalf("Slots = %d, Len = %d after the fill: the pending token has no KV", slots, length)
	}
	if lazy != direct {
		t.Fatalf("pending + new tokens in one forward gave %s, the stream prefilled directly gives %s", lazy, direct)
	}
}

func TestAppendTwiceThenNextDistIsOneForward(t *testing.T) {
	var slots [2]int
	m := marks(t, timing, func(s inferlet.Session, mark func()) error {
		c, err := filled(s, "two pending ")
		if err != nil {
			return err
		}
		mark()
		for _, tok := range []int{5, 6} {
			if err := c.Append(tok); err != nil {
				return err
			}
		}
		mark()
		slots[0] = c.Len() - c.Slots()
		if _, err := c.NextDist(); err != nil {
			return err
		}
		mark()
		slots[1] = c.Len() - c.Slots()
		return nil
	})
	if m[1] != m[0] {
		t.Fatalf("two Appends issued %d inference calls, want none", m[1]-m[0])
	}
	if got := m[2] - m[1]; got != 3 {
		t.Fatalf("NextDist over two pending tokens issued %d calls, want embed + forward + get_next_dist", got)
	}
	if slots != [2]int{2, 0} {
		t.Fatalf("pending tokens before/after NextDist = %v, want [2 0]", slots)
	}
}

// TestWhatFlushes runs each call on a context with one pending token and on
// one whose same token already has KV: a flushing call costs one embed + one
// forward more on the first and leaves both with equal KV; Sync, Drop and
// Close cost the same on both and leave the token without KV.
func TestWhatFlushes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		flushes bool
		call    func(c *support.Context, tag string) error
	}{
		{"NextDist", true, func(c *support.Context, _ string) error { _, err := c.NextDist(); return err }},
		{"ProbeTokens", true, func(c *support.Context, _ string) error { _, err := c.ProbeTokens([]int{9}, 1); return err }},
		{"Fork", true, func(c *support.Context, _ string) error { _, err := c.Fork(1); return err }},
		{"Truncate", true, func(c *support.Context, _ string) error { return c.Truncate(c.Len()) }},
		{"MaskSlots", true, func(c *support.Context, _ string) error { return c.MaskSlots(0, 1, true) }},
		{"Export", true, func(c *support.Context, tag string) error { return c.Export("frontier:" + tag) }},
		{"Flush", true, func(c *support.Context, _ string) error { return c.Flush() }},
		{"Sync", false, func(c *support.Context, _ string) error { return c.Sync() }},
		{"Drop", false, func(c *support.Context, _ string) error { return c.Drop() }},
		{"Close", false, func(c *support.Context, _ string) error { return c.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pendSlots, kvSlots int
			m := marks(t, timing, func(s inferlet.Session, mark func()) error {
				pend, err := filled(s, "what flushes ")
				if err != nil {
					return err
				}
				if err := pend.Append(7); err != nil {
					return err
				}
				kv, err := support.NewContext(s, s.AvailableModels()[0])
				if err != nil {
					return err
				}
				if err := kv.FillTokens(pend.Tokens); err != nil {
					return err
				}
				mark()
				if err := tc.call(pend, "pend"); err != nil {
					return err
				}
				mark()
				if err := tc.call(kv, "kv"); err != nil {
					return err
				}
				mark()
				pendSlots, kvSlots = pend.Slots(), kv.Slots()
				return nil
			})
			extra := (m[1] - m[0]) - (m[2] - m[1])
			if tc.flushes && (extra != 2 || pendSlots != kvSlots) {
				t.Fatalf("%d extra inference calls, Slots %d vs %d: want one embed + one forward and equal KV", extra, pendSlots, kvSlots)
			}
			if !tc.flushes && (extra != 0 || pendSlots != kvSlots-1) {
				t.Fatalf("%d extra inference calls, Slots %d vs %d: the pending token must stay unissued", extra, pendSlots, kvSlots)
			}
		})
	}
}

// TestFlushSurfacesTheAllocationError: with the pool exactly full, the page
// the next token needs cannot be had. Eagerly (FillTokens) the error comes
// from the extending call; lazily Append succeeds and the same typed error
// comes from the call that flushes.
func TestFlushSurfacesTheAllocationError(t *testing.T) {
	const pages = 2
	cfg := pie.Config{Seed: 42, Mode: pie.ModeTiming, KVPagesOverride: pages}
	run := func(extend func(c *support.Context) error) (err error) {
		marks(t, cfg, func(s inferlet.Session, _ func()) error {
			c, e := support.NewContext(s, s.AvailableModels()[0])
			if e != nil {
				return e
			}
			if e := c.FillTokens(slices.Repeat([]int{3}, pages*c.Model.PageSize)); e != nil {
				return e
			}
			err = extend(c)
			return nil
		})
		return err
	}
	eager := run(func(c *support.Context) error { return c.FillTokens([]int{7}) })
	var appendErr error
	lazy := run(func(c *support.Context) error {
		appendErr = c.Append(7)
		_, err := c.NextDist()
		return err
	})
	if eager == nil {
		t.Fatal("a full pool admitted one more page")
	}
	if appendErr != nil {
		t.Fatalf("Append = %v, want nil: it issues nothing", appendErr)
	}
	for _, typed := range []error{api.ErrOutOfResources, api.ErrTerminated} {
		if errors.Is(eager, typed) != errors.Is(lazy, typed) {
			t.Fatalf("the flushing call returned %v, the eager extension %v", lazy, eager)
		}
	}
	if lazy == nil {
		t.Fatal("NextDist flushed into a full pool without an error")
	}
}

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

// The lazy-frontier contract: Append and a mid-page fill issue nothing, the
// pending tokens ride in whatever extends the stream next and issues (a
// page-aligned fill, ForwardTokens), and only a call that needs their KV or
// output flushes them. Calls are counted through the instance's InferCalls:
// an embed and a forward are one call each, so is a get_next_dist, a
// tokenize and a detokenize.

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

// filled opens a context and fills text into it; the prompt stays pending
// unless it happens to end on a page boundary.
func filled(s inferlet.Session, text string) (*support.Context, error) {
	c, err := support.NewContext(s, s.AvailableModels()[0])
	if err != nil {
		return nil, err
	}
	return c, c.Fill(text)
}

// prefilled is filled with the prompt's embed + forward issued.
func prefilled(s inferlet.Session, text string) (*support.Context, error) {
	c, err := filled(s, text)
	if err != nil {
		return nil, err
	}
	return c, c.Flush()
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
		if c.Slots() != 0 {
			return fmt.Errorf("Slots = %d after a mid-page fill, want 0: it issues nothing", c.Slots())
		}
		mark()
		if _, err := c.Generate(support.GenOpts{MaxTokens: n}); err != nil {
			return err
		}
		mark()
		length, slots, tokens = c.Len(), c.Slots(), len(c.Tokens)
		return c.Sync()
	})
	// The prompt's embed + forward (the first NextDist flushes it), n
	// get_next_dist, n-1 embed + forward pairs, one detokenize.
	if got, want := m[1]-m[0], 2+n+2*(n-1)+1; got != want {
		t.Fatalf("Generate(%d) after a lazy fill issued %d inference calls, want %d", n, got, want)
	}
	if length != prompt+n || tokens != length {
		t.Fatalf("Len = %d, len(Tokens) = %d, want both %d", length, tokens, prompt+n)
	}
	if slots != length-1 {
		t.Fatalf("Slots = %d with one token pending, want %d", slots, length-1)
	}
}

// TestPendingTokenRidesTheNextFill: a fill that ends on a page boundary
// issues at once, and the token Generate left pending rides in its forward.
func TestPendingTokenRidesTheNextFill(t *testing.T) {
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
		ps := c.Model.PageSize
		if c.Len()%ps == 0 {
			return fmt.Errorf("Len %d is page-aligned: the pending token would ride a whole page", c.Len())
		}
		more := slices.Repeat([]int{11}, ps-c.Len()%ps)
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
		t.Fatalf("a page-aligned FillTokens after Generate issued %d inference calls, want one embed + one forward", got)
	}
	if slots != length {
		t.Fatalf("Slots = %d, Len = %d after the fill: the pending token has no KV", slots, length)
	}
	if lazy != direct {
		t.Fatalf("pending + new tokens in one forward gave %s, the stream prefilled directly gives %s", lazy, direct)
	}
}

// TestTwoMidPageFillsThenNextDistIsOneForward: fills that end mid-page issue
// nothing; the NextDist after them prefills both in one embed + one forward
// and reads the distribution the same tokens give filled in one piece.
func TestTwoMidPageFillsThenNextDistIsOneForward(t *testing.T) {
	first, second := []int{21, 22, 23}, []int{24, 25, 26, 27}
	var lazy, direct string
	var slots [2]int
	m := marks(t, pie.Config{Seed: 42, Mode: pie.ModeFull}, func(s inferlet.Session, mark func()) error {
		model := s.AvailableModels()[0]
		c, err := support.NewContext(s, model)
		if err != nil {
			return err
		}
		mark()
		for _, toks := range [][]int{first, second} {
			if err := c.FillTokens(toks); err != nil {
				return err
			}
		}
		mark()
		slots[0] = c.Slots()
		d, err := c.NextDist()
		if err != nil {
			return err
		}
		mark()
		slots[1] = c.Slots()
		lazy = dist(d)
		ref, err := support.NewContext(s, model)
		if err != nil {
			return err
		}
		if err := ref.FillTokens(append(slices.Clone(first), second...)); err != nil {
			return err
		}
		if d, err = ref.NextDist(); err != nil {
			return err
		}
		direct = dist(d)
		return nil
	})
	if m[1] != m[0] {
		t.Fatalf("two mid-page fills issued %d inference calls, want none", m[1]-m[0])
	}
	if got := m[2] - m[1]; got != 3 {
		t.Fatalf("NextDist after two fills issued %d calls, want embed + forward + get_next_dist", got)
	}
	if want := len(first) + len(second); slots != [2]int{0, want} {
		t.Fatalf("Slots before/after NextDist = %v, want [0 %d]", slots, want)
	}
	if lazy != direct {
		t.Fatalf("two fills prefilled together gave %s, one fill of the same tokens %s", lazy, direct)
	}
}

func TestAppendTwiceThenNextDistIsOneForward(t *testing.T) {
	var slots [2]int
	m := marks(t, timing, func(s inferlet.Session, mark func()) error {
		c, err := prefilled(s, "two pending ")
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
// one whose same token already has KV. A flushing call costs one embed + one
// forward more on the first and leaves both with equal KV. A page-aligned
// fill costs the same on both and leaves equal KV: the pending token rides
// in its forward. Sync, Drop, Close and a mid-page fill cost the same on
// both and leave the token without KV.
func TestWhatFlushes(t *testing.T) {
	const (
		flushes = iota
		rides
		stays
	)
	toPage := func(c *support.Context) []int {
		return slices.Repeat([]int{9}, c.Model.PageSize-c.Len()%c.Model.PageSize)
	}
	for _, tc := range []struct {
		name string
		want int
		call func(c *support.Context, tag string) error
	}{
		{"NextDist", flushes, func(c *support.Context, _ string) error { _, err := c.NextDist(); return err }},
		{"ProbeTokens", flushes, func(c *support.Context, _ string) error { _, err := c.ProbeTokens([]int{9}, 1); return err }},
		{"Fork", flushes, func(c *support.Context, _ string) error { _, err := c.Fork(1); return err }},
		{"Truncate", flushes, func(c *support.Context, _ string) error { return c.Truncate(c.Len()) }},
		{"MaskSlots", flushes, func(c *support.Context, _ string) error { return c.MaskSlots(0, 1, true) }},
		{"Export", flushes, func(c *support.Context, tag string) error { return c.Export("frontier:" + tag) }},
		{"Flush", flushes, func(c *support.Context, _ string) error { return c.Flush() }},
		{"FillTokens page-aligned", rides, func(c *support.Context, _ string) error { return c.FillTokens(toPage(c)) }},
		{"FillTokens mid-page", stays, func(c *support.Context, _ string) error { return c.FillTokens([]int{9}) }},
		{"Sync", stays, func(c *support.Context, _ string) error { return c.Sync() }},
		{"Drop", stays, func(c *support.Context, _ string) error { return c.Drop() }},
		{"Close", stays, func(c *support.Context, _ string) error { return c.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pendSlots, kvSlots int
			m := marks(t, timing, func(s inferlet.Session, mark func()) error {
				pend, err := prefilled(s, "what flushes ")
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
				if err := kv.Flush(); err != nil {
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
			switch {
			case tc.want == flushes && (extra != 2 || pendSlots != kvSlots):
				t.Fatalf("%d extra inference calls, Slots %d vs %d: want one embed + one forward and equal KV", extra, pendSlots, kvSlots)
			case tc.want == rides && (extra != 0 || pendSlots != kvSlots):
				t.Fatalf("%d extra inference calls, Slots %d vs %d: the pending token must ride the fill's forward", extra, pendSlots, kvSlots)
			case tc.want == stays && (extra != 0 || pendSlots != kvSlots-1):
				t.Fatalf("%d extra inference calls, Slots %d vs %d: the pending token must stay unissued", extra, pendSlots, kvSlots)
			}
		})
	}
}

// TestFlushSurfacesTheAllocationError: with the pool exactly full, the page
// the next token needs cannot be had. A mid-page FillTokens and an Append
// both succeed, and the same typed error comes from the call that flushes:
// Flush for the fill, NextDist for the token.
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
	var fillErr, appendErr error
	fill := run(func(c *support.Context) error {
		fillErr = c.FillTokens([]int{7})
		return c.Flush()
	})
	step := run(func(c *support.Context) error {
		appendErr = c.Append(7)
		_, err := c.NextDist()
		return err
	})
	if fill == nil {
		t.Fatal("Flush flushed into a full pool without an error")
	}
	if fillErr != nil || appendErr != nil {
		t.Fatalf("FillTokens = %v, Append = %v, want nil: they issue nothing", fillErr, appendErr)
	}
	for _, typed := range []error{api.ErrOutOfResources, api.ErrTerminated} {
		if errors.Is(fill, typed) != errors.Is(step, typed) {
			t.Fatalf("NextDist returned %v, Flush %v", step, fill)
		}
	}
	if step == nil {
		t.Fatal("NextDist flushed into a full pool without an error")
	}
}

package support_test

import (
	"errors"
	"slices"
	"testing"

	"pie/api"
	"pie/inferlet"
	"pie/support"
)

// TestGeneratedTokensSurviveTruncate: a Generate's Tokens is a view of the
// context's history, and it keeps its tokens when the context is truncated
// below it and then extended: the next append writes to a new array, not
// into the view. A truncate that cuts no view stays in place.
func TestGeneratedTokensSurviveTruncate(t *testing.T) {
	runPoisoned(t, newPoisonPool(t), func(s inferlet.Session) error {
		c, err := filled(s, "lend the generated tokens ")
		if err != nil {
			return err
		}
		defer c.Drop()
		res, err := c.Generate(support.GenOpts{MaxTokens: 8})
		if err != nil {
			return err
		}
		want := slices.Clone(res.Tokens)
		if cap(res.Tokens) != len(res.Tokens) {
			t.Errorf("a Generate's Tokens has capacity %d past its %d tokens: an append would write into the context", cap(res.Tokens), len(res.Tokens))
		}

		// Below the view: the view keeps its tokens.
		end := c.Len()
		if err := c.Truncate(end - 4); err != nil {
			return err
		}
		if err := c.Append(304); err != nil {
			return err
		}
		if _, err := c.Generate(support.GenOpts{MaxTokens: 8}); err != nil {
			return err
		}
		if !slices.Equal(res.Tokens, want) {
			t.Errorf("a Generate's tokens read %v after Truncate below them, Append and Generate, want %v", res.Tokens, want)
		}

		// Past every view: the history stays where it is.
		end = c.Len()
		for _, tok := range []int{300, 301, 302} {
			if err := c.Append(tok); err != nil {
				return err
			}
		}
		before := &c.Tokens[0]
		if err := c.Truncate(end); err != nil {
			return err
		}
		if err := c.Append(303); err != nil {
			return err
		}
		if &c.Tokens[0] != before {
			t.Error("a Truncate that cut no lent view moved the history")
		}
		return nil
	})
}

// failingPages is a session whose page grants fail, so a context's
// page-aligned fill gets its tokens and then fails its forward.
type failingPages struct {
	*poisonSession
	fail bool
}

var errNoPages = errors.New("test: no pages")

func (s *failingPages) AppendKvPages(q *inferlet.Queue, dst []api.KvPage, n int) ([]api.KvPage, error) {
	if s.fail {
		return dst, errNoPages
	}
	return s.poisonSession.AppendKvPages(q, dst, n)
}

// TestFailedFillLeavesTheStream: a page-aligned fill whose forward fails
// leaves Tokens, Len and the pending list as they were, for each way of
// filling, and the fill retried adds its tokens once.
func TestFailedFillLeavesTheStream(t *testing.T) {
	const text = "a fill retried "
	fills := []struct {
		name string
		fill func(c *support.Context, n int) error // fills n tokens
	}{
		{"Fill", func(c *support.Context, n int) error { return c.Fill(text) }},
		{"FillPadded", func(c *support.Context, n int) error { return c.FillPadded(text, n) }},
		{"FillTokens", func(c *support.Context, n int) error { return c.FillTokens(make([]int, n)) }},
	}
	pool := newPoisonPool(t)
	runPoisoned(t, pool, func(s inferlet.Session) error {
		fs := &failingPages{poisonSession: s.(*poisonSession)}
		for _, f := range fills {
			c, err := support.NewContext(fs, s.AvailableModels()[0])
			if err != nil {
				return err
			}
			ids, err := c.Encode(text)
			if err != nil {
				return err
			}
			// Pending tokens that the fill's ids bring to a page boundary.
			if err := c.FillTokens(make([]int, c.Model.PageSize-len(ids))); err != nil {
				return err
			}
			tokens, n, pend := slices.Clone(c.Tokens), c.Len(), slices.Clone(c.Pending())
			fs.fail = true
			if err := f.fill(c, len(ids)); !errors.Is(err, errNoPages) {
				t.Errorf("%s with no pages: %v, want %v", f.name, err, errNoPages)
			}
			if !slices.Equal(c.Tokens, tokens) || c.Len() != n || !slices.Equal(c.Pending(), pend) {
				t.Errorf("a failed %s left %d tokens, Len %d and %d pending, want %d, %d and %d",
					f.name, len(c.Tokens), c.Len(), len(c.Pending()), len(tokens), n, len(pend))
			}
			fs.fail = false
			if err := f.fill(c, len(ids)); err != nil {
				return err
			}
			if got := len(c.Tokens); got != len(tokens)+len(ids) || c.Len() != got || len(c.Pending()) != 0 {
				t.Errorf("%s retried: %d tokens, Len %d and %d pending, want %d, %d and 0",
					f.name, got, c.Len(), len(c.Pending()), len(tokens)+len(ids), len(tokens)+len(ids))
			}
			if err := c.Close(); err != nil {
				return err
			}
		}
		return nil
	})
}

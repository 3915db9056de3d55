package support_test

import (
	"errors"
	"slices"
	"testing"

	"pie"
	"pie/api"
	"pie/inferlet"
	"pie/support"
)

// poisonPool is a free list of working sets that poisons each set put back
// (support.PoisonWorkingSet), so a context that reads a buffer it handed
// back reads invalid handles and negative tokens, and fails the test if a
// set is put back while it is already on the list.
type poisonPool struct {
	t    testing.TB
	free []any
	puts int
}

func newPoisonPool(t testing.TB) *poisonPool { return &poisonPool{t: t} }

// session is s with the pool as its free list: the contexts it opens take
// their working sets from the pool instead of the engine.
func (p *poisonPool) session(s inferlet.Session) inferlet.Session {
	return &poisonSession{Session: s, pool: p}
}

type poisonSession struct {
	inferlet.Session
	pool *poisonPool
}

func (s *poisonSession) TakeWorkingSet() any {
	p := s.pool
	n := len(p.free)
	if n == 0 {
		return nil
	}
	ws := p.free[n-1]
	p.free = p.free[:n-1]
	return ws
}

// AppendKvPages, AppendEmbeds and AppendTokens pass the engine session's
// allocation into the context's buffers through, so the contexts under test
// take their pages, embeds and tokens as the engine's do.
func (s *poisonSession) AppendKvPages(q *inferlet.Queue, dst []api.KvPage, n int) ([]api.KvPage, error) {
	return s.Session.(grants).AppendKvPages(q, dst, n)
}

func (s *poisonSession) AppendEmbeds(q *inferlet.Queue, dst []api.Embed, n int) ([]api.Embed, error) {
	return s.Session.(grants).AppendEmbeds(q, dst, n)
}

func (s *poisonSession) AppendTokens(q *inferlet.Queue, dst []int, text string) ([]int, error) {
	return s.Session.(grants).AppendTokens(q, dst, text)
}

// grants is the engine session's allocation into a caller's buffer.
type grants interface {
	AppendKvPages(q *inferlet.Queue, dst []api.KvPage, n int) ([]api.KvPage, error)
	AppendEmbeds(q *inferlet.Queue, dst []api.Embed, n int) ([]api.Embed, error)
	AppendTokens(q *inferlet.Queue, dst []int, text string) ([]int, error)
}

func (s *poisonSession) PutWorkingSet(ws any) {
	p := s.pool
	if slices.Contains(p.free, ws) {
		p.t.Errorf("a working set was put back twice")
	}
	support.PoisonWorkingSet(ws)
	p.free = append(p.free, ws)
	p.puts++
}

// runPoisoned runs body as an inferlet on a fresh timing engine, its session
// wrapped over pool.
func runPoisoned(t *testing.T, pool *poisonPool, body func(s inferlet.Session) error) {
	t.Helper()
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{Name: "t", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		return body(pool.session(s))
	}})
	launchAndWait(t, e)
}

// generated opens a context, fills text and generates n tokens.
func generated(s inferlet.Session, text string, n int) (*support.Context, error) {
	c, err := filled(s, text)
	if err != nil {
		return nil, err
	}
	_, err = c.Generate(support.GenOpts{MaxTokens: n})
	return c, err
}

func TestDropReturnsTheWorkingSetOnce(t *testing.T) {
	pool := newPoisonPool(t)
	runPoisoned(t, pool, func(s inferlet.Session) error {
		a, err := generated(s, "a context dropped twice ", 20)
		if err != nil {
			return err
		}
		if err := a.Drop(); err != nil {
			return err
		}
		if err := a.Drop(); err != nil {
			return err
		}
		if pool.puts != 1 {
			t.Errorf("Drop twice put back %d working sets, want 1", pool.puts)
		}
		b, err := generated(s, "a context closed after its drop ", 20)
		if err != nil {
			return err
		}
		if b.WorkingSet() == nil {
			t.Error("a context opened after a Drop took no working set")
		}
		if err := b.Drop(); err != nil {
			return err
		}
		if err := b.Close(); err != nil {
			return err
		}
		if pool.puts != 2 {
			t.Errorf("Drop then Close put back %d working sets in all, want 2", pool.puts)
		}
		return nil
	})
}

// A Drop whose page release fails still hands its set back: the queue
// reclaims the pages, and the set must not be lost with them.
func TestFailedDropReturnsTheWorkingSet(t *testing.T) {
	pool := newPoisonPool(t)
	runPoisoned(t, pool, func(s inferlet.Session) error {
		c, err := generated(s, "a context whose queue closed under it ", 20)
		if err != nil {
			return err
		}
		if err := c.Q.Close(); err != nil {
			return err
		}
		if err := c.Drop(); !errors.Is(err, api.ErrQueueClosed) {
			t.Errorf("Drop on a closed queue = %v, want ErrQueueClosed", err)
		}
		if pool.puts != 1 {
			t.Errorf("a failed Drop put back %d working sets, want 1", pool.puts)
		}
		return nil
	})
}

// A killed attempt's deferred Drop runs after the instance is gone; it
// still hands the set back.
func TestKilledAttemptsDropReturnsTheWorkingSet(t *testing.T) {
	pool := newPoisonPool(t)
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{Name: "t", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		c, err := generated(pool.session(s), "a context whose program is aborted ", 20)
		if err != nil {
			return err
		}
		defer c.Drop()
		s.Send("ready")
		_, err = s.Receive().Get() // parked here when the abort lands
		return err
	}})
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("t"))
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if _, err := h.Recv().Get(); err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if !h.Abort() {
			t.Error("Abort found nothing to abort")
		}
		if err := h.Wait(); err == nil {
			t.Error("an aborted program ended without error")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if pool.puts != 1 {
		t.Errorf("the killed attempt's Drop put back %d working sets, want 1", pool.puts)
	}
}

// A context used after Drop grows buffers of its own: the context that took
// its set sees none of its writes.
func TestContextAfterDropSharesNothing(t *testing.T) {
	pool := newPoisonPool(t)
	runPoisoned(t, pool, func(s inferlet.Session) error {
		a, err := generated(s, "the first owner of a working set ", 20)
		if err != nil {
			return err
		}
		set := a.WorkingSet()
		if err := a.Drop(); err != nil {
			return err
		}
		b, err := filled(s, "the second owner")
		if err != nil {
			return err
		}
		if b.WorkingSet() != set {
			t.Error("the next context did not take the set Drop put back")
		}
		pend := slices.Clone(b.Pending())
		for tok := range 8 {
			if err := a.Append(100 + tok); err != nil {
				return err
			}
		}
		if !slices.Equal(b.Pending(), pend) {
			t.Errorf("appending to a dropped context changed another's pending tokens: %v, want %v", b.Pending(), pend)
		}
		_, err = b.Generate(support.GenOpts{MaxTokens: 8})
		return err
	})
}

func TestForkChildrenTakeDistinctWorkingSets(t *testing.T) {
	const children = 3
	pool := newPoisonPool(t)
	runPoisoned(t, pool, func(s inferlet.Session) error {
		// Put back as many sets as the parent and the fork will take.
		var open []*support.Context
		for range children + 1 {
			c, err := generated(s, "a context that leaves its set behind ", 4)
			if err != nil {
				return err
			}
			open = append(open, c)
		}
		for _, c := range open {
			if err := c.Close(); err != nil {
				return err
			}
		}
		parent, err := generated(s, "a parent of three ", 8)
		if err != nil {
			return err
		}
		kids, err := parent.Fork(children)
		if err != nil {
			return err
		}
		sets := []any{parent.WorkingSet()}
		for _, k := range kids {
			ws := k.WorkingSet()
			if ws == nil || slices.Contains(sets, ws) {
				t.Errorf("a child took working set %p; taken already: %v", ws, sets)
			}
			sets = append(sets, ws)
		}
		for _, k := range kids {
			if _, err := k.Generate(support.GenOpts{MaxTokens: 4}); err != nil {
				return err
			}
			if err := k.Close(); err != nil {
				return err
			}
		}
		return parent.Drop()
	})
}

// The engine keeps the sets: a session's context takes the one an earlier
// session's context put back.
func TestEngineRecyclesWorkingSets(t *testing.T) {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	var sets []any
	e.MustRegister(inferlet.Program{Name: "t", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		c, err := generated(s, "one session's context ", 8)
		if err != nil {
			return err
		}
		defer c.Drop()
		sets = append(sets, c.WorkingSet())
		return nil
	}})
	if err := e.RunClient(func() {
		for range 2 {
			h, err := e.Launch(pie.Spec("t"))
			if err == nil {
				err = h.Wait()
			}
			if err != nil {
				t.Error(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || sets[0] == nil || sets[1] != sets[0] {
		t.Fatalf("the two sessions' contexts took sets %v, want the first one's twice", sets)
	}
}

// raceBuild is set in a build with the race detector (race_test.go).
var raceBuild bool

// contextLife is the whole life of a context on a queue it shares: open,
// fill a 40-token prompt, generate 32 tokens, drop.
func contextLife(s inferlet.Session, q *inferlet.Queue, prompt []int) error {
	c, err := support.NewContextOnQueue(s, q)
	if err != nil {
		return err
	}
	if err := c.FillTokens(prompt); err != nil {
		return err
	}
	if _, err := c.Generate(support.GenOpts{MaxTokens: 32}); err != nil {
		return err
	}
	return c.Drop()
}

// contextLives runs warm contextLife calls inside one inferlet on a timing
// engine: measure is handed the life (one cold life has run) and returns
// when it is done with it.
func contextLives(t testing.TB, measure func(life func() error)) {
	t.Helper()
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{Name: "t", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		q, err := s.Open(s.AvailableModels()[0].ID)
		if err != nil {
			return err
		}
		prompt := make([]int, 40)
		for i := range prompt {
			prompt[i] = 100 + 7*i
		}
		life := func() error { return contextLife(s, q, prompt) }
		if err := life(); err != nil { // cold
			return err
		}
		measure(life)
		return q.Close()
	}})
	launchAndWait(t, e)
}

// TestAllocListsStayTheCallers: the lists Alloc.Pages and Alloc.Embeds
// return are the caller's. Contexts on the same queue, which take their
// pages and embeds into working-set buffers, before and after, write into
// neither.
func TestAllocListsStayTheCallers(t *testing.T) {
	runPoisoned(t, newPoisonPool(t), func(s inferlet.Session) error {
		q, err := s.Open(s.AvailableModels()[0].ID)
		if err != nil {
			return err
		}
		prompt := make([]int, 40)
		for i := range prompt {
			prompt[i] = 100 + 7*i
		}
		a, err := q.Alloc()
		if err == nil {
			err = contextLife(s, q, prompt) // the set handed back holds grants
		}
		if err != nil {
			return err
		}
		pages, errP := a.Pages(2)
		embs, errE := a.Embeds(3)
		if err := errors.Join(errP, errE); err != nil {
			return err
		}
		keptPages, keptEmbs := slices.Clone(pages), slices.Clone(embs)
		for range 2 {
			if err := contextLife(s, q, prompt); err != nil {
				return err
			}
		}
		if !slices.Equal(pages, keptPages) || !slices.Equal(embs, keptEmbs) {
			t.Errorf("kept pages %v and embeds %v read %v and %v after two contexts on their queue", keptPages, keptEmbs, pages, embs)
		}
		return q.Close()
	})
}

// TestGrantsOnAClosedQueue: a context whose shared queue was closed grows
// no further. Its page grant fails with api.ErrQueueClosed before reaching
// the control layer, as Alloc.Pages on the closed queue does: no control
// call is charged.
func TestGrantsOnAClosedQueue(t *testing.T) {
	var fillErr error
	m := stats(t, timing, func(s inferlet.Session, mark func()) error {
		q, err := s.Open(s.AvailableModels()[0].ID)
		if err != nil {
			return err
		}
		c, err := support.NewContextOnQueue(s, q)
		if err == nil {
			err = q.Close()
		}
		if err != nil {
			return err
		}
		mark()
		fillErr = c.FillTokens(make([]int, c.Model.PageSize)) // page-aligned: issues at once
		mark()
		_ = c.Drop() // fails on the closed queue too; the set still goes back
		return nil
	})
	if !errors.Is(fillErr, api.ErrQueueClosed) {
		t.Errorf("a fill on a closed queue: %v, want %v", fillErr, api.ErrQueueClosed)
	}
	if got := m[1].control - m[0].control - markCalls; got != 0 {
		t.Errorf("the refused grant made %d control calls, want 0", got)
	}
}

// BenchmarkContextSession is a warm context's whole life (contextLife), the
// count TestContextAllocations pins.
func BenchmarkContextSession(b *testing.B) {
	var err error
	contextLives(b, func(life func() error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N && err == nil; i++ {
			err = life()
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestContextAllocations pins what a warm context's life allocates
// (contextLife): the context; the token history (the fill's append,
// Generate's one resize); Generate's text. Generate's tokens are a view of
// the history, not a list of their own. Nothing comes
// from the working set: the page list, the attention and output lists, the
// step scratch and the buffers the allocator appends to (the prefill's
// input slots, the pages of each growth step; the decode slots live in the
// context) are the ones the context before handed back.
func TestContextAllocations(t *testing.T) {
	want := 4.0
	if raceBuild {
		// The race detector's instrumentation keeps the temporary of
		// slices.Grow's append(s, make(...)...), which the compiler
		// otherwise folds away: Generate's resize is two allocations.
		want++
	}
	allocs := -1.0
	var err error
	contextLives(t, func(life func() error) {
		allocs = testing.AllocsPerRun(200, func() {
			if err == nil {
				err = life()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != want {
		t.Errorf("a warm context's life makes %v allocations, want %v", allocs, want)
	}
}

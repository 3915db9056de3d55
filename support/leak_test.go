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

// A constructor that fails must close what it opened: the queue it created,
// the decode slot and pages it allocated through that queue. The queue count
// is observed through a manifest's MaxQueues (a leaked queue uses one up),
// pages and embeds through the pools.

// launchAndWait launches program "t" on e from a client process, waits
// for it to finish and checks the cluster (Cluster.Check).
func launchAndWait(t testing.TB, e *pie.Engine) {
	t.Helper()
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("t"))
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := h.Wait(); err != nil {
			t.Errorf("inferlet: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Cluster().Check(); err != nil {
		t.Fatal(err)
	}
}

// runLimited runs body as an inferlet under the manifest limits and returns
// the model's page and embed pool occupancy once the body has returned and
// its queues drained (the instance is still alive: nothing was reclaimed by
// its release). Its contexts take their working sets from a poisonPool.
func runLimited(t *testing.T, limits pie.Limits, body func(s inferlet.Session) error) (pages, embeds int) {
	t.Helper()
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	pool := newPoisonPool(t)
	e.MustRegister(inferlet.Program{Name: "t", BinarySize: 4 << 10,
		Manifest: inferlet.Manifest{Limits: limits},
		Run: func(s inferlet.Session) error {
			if err := body(pool.session(s)); err != nil {
				return err
			}
			model := string(s.AvailableModels()[0].ID)
			pages, _ = e.PoolStats(model)
			embeds, _ = e.Controller().EmbedPoolStats(model)
			return nil
		}})
	launchAndWait(t, e)
	return pages, embeds
}

func TestFailedImportClosesItsQueue(t *testing.T) {
	const maxQueues = 3
	pages, embeds := runLimited(t, pie.Limits{MaxQueues: maxQueues}, func(s inferlet.Session) error {
		m := s.AvailableModels()[0]
		for i := 0; i < maxQueues; i++ {
			if _, err := support.ImportContext(s, m, "no-such-export", nil); !errors.Is(err, api.ErrNoSuchExport) {
				return fmt.Errorf("import %d of a missing export = %v, want ErrNoSuchExport", i, err)
			}
		}
		// A released export fails the same way.
		c, err := support.NewContext(s, m)
		if err != nil {
			return fmt.Errorf("NewContext after %d failed imports: %w", maxQueues, err)
		}
		if err := c.FillTokens(slices.Repeat([]int{5}, m.PageSize)); err != nil {
			return err
		}
		if err := c.Export("leak:released"); err != nil {
			return err
		}
		if err := c.Alloc().ReleaseExport("leak:released"); err != nil {
			return err
		}
		for i := 0; i < maxQueues; i++ {
			if _, err := support.ImportContext(s, m, "leak:released", c.Tokens); !errors.Is(err, api.ErrNoSuchExport) {
				return fmt.Errorf("import %d of a released export = %v, want ErrNoSuchExport", i, err)
			}
		}
		return c.Close()
	})
	if pages != 0 || embeds != 0 {
		t.Fatalf("%d pages and %d embeds in use after every context failed or closed, want 0 and 0", pages, embeds)
	}
}

func TestFailedForkClosesItsChildren(t *testing.T) {
	const children, kvLimit = 4, 16 // kvLimit: the manifest's MaxKvPages
	var parentPages int
	// Queues: the parent's, the page holder's, one per child.
	pages, embeds := runLimited(t, pie.Limits{MaxQueues: 2 + children, MaxKvPages: kvLimit}, func(s inferlet.Session) error {
		m := s.AvailableModels()[0]
		c, err := support.NewContext(s, m)
		if err != nil {
			return err
		}
		// A page and a half: every child copies the half-full tail page.
		if err := c.FillTokens(slices.Repeat([]int{5}, m.PageSize+m.PageSize/2)); err != nil {
			return err
		}
		if err := c.Flush(); err != nil { // the fill ends mid-page: allocate its pages now
			return err
		}
		parentPages = len(c.Pages())
		// Hold every page the manifest leaves but two: children 0 and 1 get
		// their tail page, child 2 does not.
		q, err := s.Open(m.ID)
		if err != nil {
			return err
		}
		al, err := q.Alloc()
		if err != nil {
			return err
		}
		if _, err := al.Pages(kvLimit - parentPages - 2); err != nil {
			return err
		}
		if _, err := c.Fork(children); !errors.Is(err, api.ErrLimitExceeded) {
			return fmt.Errorf("Fork(%d) with room for two tail pages = %v, want ErrLimitExceeded", children, err)
		}
		if err := q.Close(); err != nil {
			return err
		}
		// Every queue but the parent's is free again, and so is every page
		// but the parent's.
		kids, err := c.Fork(children)
		if err != nil {
			return fmt.Errorf("Fork(%d) after a failed fork: %w", children, err)
		}
		for _, k := range kids {
			if err := k.Close(); err != nil {
				return err
			}
		}
		return c.Sync()
	})
	if pages != parentPages || embeds != 1 {
		t.Fatalf("%d pages and %d embeds in use, want the parent's %d and 1", pages, embeds, parentPages)
	}
}

// stubRuntime is the provider behind a queue of stubSession: it serves what
// a context's construction and a queue's Close need, and counts.
type stubRuntime struct {
	inferlet.QueueRuntime // nil: anything else panics
	failAlloc             error
	embeds, closed        int
}

func (r *stubRuntime) Sync() (inferlet.Result[struct{}], error) {
	return inferlet.Ready(struct{}{}), nil
}
func (r *stubRuntime) Close() error                        { r.closed++; return nil }
func (r *stubRuntime) DeallocEmbeds(ids []api.Embed) error { r.embeds -= len(ids); return nil }
func (r *stubRuntime) AllocEmbeds(n int) ([]api.Embed, error) {
	if r.failAlloc != nil {
		return nil, r.failAlloc
	}
	r.embeds += n
	return make([]api.Embed, n), nil
}

// stubSession opens queues on stub runtimes against whatever model it is
// asked for.
type stubSession struct {
	inferlet.Session // nil: anything else panics
	info             api.ModelInfo
	failAlloc        error
	opened           []*stubRuntime
}

func (s *stubSession) Open(api.ModelID, ...inferlet.QueueOption) (*inferlet.Queue, error) {
	rt := &stubRuntime{failAlloc: s.failAlloc}
	s.opened = append(s.opened, rt)
	return inferlet.NewQueue(s.info, rt), nil
}

func TestFailedNewContextClosesItsQueue(t *testing.T) {
	all := []api.Trait{api.TraitCore, api.TraitAllocate, api.TraitForward, api.TraitInputText, api.TraitOutputText, api.TraitTokenize}
	for _, tc := range []struct {
		name      string
		traits    []api.Trait
		failAlloc error
		want      error
	}{
		{"no tokenize trait", all[:len(all)-1], nil, api.ErrNoSuchTrait},
		{"no forward trait", []api.Trait{api.TraitCore, api.TraitAllocate}, nil, api.ErrNoSuchTrait},
		{"decode slot refused", all, api.ErrOutOfResources, api.ErrOutOfResources},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &stubSession{info: api.ModelInfo{ID: "stub", PageSize: 16, Traits: tc.traits}, failAlloc: tc.failAlloc}
			if _, err := support.NewContext(s, s.info); !errors.Is(err, tc.want) {
				t.Fatalf("NewContext = %v, want %v", err, tc.want)
			}
			if len(s.opened) != 1 || s.opened[0].closed != 1 {
				t.Fatalf("NewContext failed and left its queue open (%d opened)", len(s.opened))
			}
			if n := s.opened[0].embeds; n != 0 {
				t.Fatalf("NewContext failed holding %d embed slots", n)
			}
		})
	}
	// The same failures leave a caller's own queue open: it is not the
	// context's to close.
	s := &stubSession{info: api.ModelInfo{ID: "stub", PageSize: 16, Traits: all[:2]}}
	q, _ := s.Open("stub")
	if _, err := support.NewContextOnQueue(s, q); !errors.Is(err, api.ErrNoSuchTrait) {
		t.Fatalf("NewContextOnQueue = %v, want ErrNoSuchTrait", err)
	}
	if q.Closed() {
		t.Fatal("NewContextOnQueue closed a queue it does not own")
	}
}

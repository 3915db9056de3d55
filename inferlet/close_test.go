package inferlet_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"pie"
	"pie/api"
	"pie/inferlet"
)

// probe runs body as an inferlet on a fresh timing-mode engine. body gets
// the engine so it can read the pools while the inferlet is still alive
// (the instance's exit would release everything anyway).
func probe(t *testing.T, body func(e *pie.Engine, s inferlet.Session) error) {
	t.Helper()
	e := pie.New(pie.Config{Seed: 99, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{Name: "probe", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		return body(e, s)
	}})
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("probe"))
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
}

// inUse reports llama-1b's live pages and embedding slots.
func inUse(e *pie.Engine) (pages, embeds int) {
	pages, _ = e.PoolStats("llama-1b")
	embeds, _ = e.Controller().EmbedPoolStats("llama-1b")
	return pages, embeds
}

// openAlloc opens a llama-1b queue and negotiates its Alloc capability.
func openAlloc(s inferlet.Session) (*inferlet.Queue, *inferlet.Alloc, error) {
	q, err := s.Open("llama-1b")
	if err != nil {
		return nil, nil, err
	}
	alloc, err := q.Alloc()
	return q, alloc, err
}

// TestCloseReclaimsInAllocationOrder: Close reclaims what the queue still
// holds — allocations and imports, minus what was freed through it or a
// sibling queue — and nothing else: the sibling's pages and the export
// registry's references survive. The control layer releases those handles
// in allocation order (ascending handle), so the pools' free lists come
// out the same on every run; core's TestCloseQueueReleasesWhatItOwns pins
// the physical order.
func TestCloseReclaimsInAllocationOrder(t *testing.T) {
	probe(t, func(e *pie.Engine, s inferlet.Session) error {
		q, alloc, err := openAlloc(s)
		if err != nil {
			return err
		}
		q2, alloc2, err := openAlloc(s)
		if err != nil {
			return err
		}
		a, _ := alloc.Embeds(3)
		b, _ := alloc.Embeds(2)
		p, err := alloc.Pages(3)
		if err != nil {
			return err
		}
		x, err := alloc2.Pages(1)
		if err != nil {
			return err
		}
		if err := alloc2.Export("x", x); err != nil {
			return err
		}
		if _, err := alloc.Import("x"); err != nil {
			return err
		}
		if err := alloc.FreeEmbeds([]api.Embed{a[1], b[0]}); err != nil {
			return err
		}
		if err := alloc2.FreePages(p[1:2]); err != nil {
			return err
		}
		if err := q.Sync(); err != nil {
			return err
		}
		if err := q2.Sync(); err != nil {
			return err
		}
		if pages, embeds := inUse(e); pages != 3 || embeds != 3 {
			return fmt.Errorf("before Close: %d pages and %d embeds in use, want 3 and 3", pages, embeds)
		}
		if err := q.Close(); err != nil {
			return err
		}
		// Only the sibling's page is left, shared by q2 and the registry.
		if pages, embeds := inUse(e); pages != 1 || embeds != 0 {
			return fmt.Errorf("after Close: %d pages and %d embeds in use, want 1 and 0", pages, embeds)
		}
		if !alloc2.HasExport("x") {
			return errors.New("Close dropped the sibling's export")
		}
		if !q.Closed() || !errors.Is(q.Close(), api.ErrQueueClosed) {
			return errors.New("a closed queue closed again")
		}
		return nil
	})
}

// TestRemoveHandlesKeepsSurvivorOrder: a free removes exactly the handles
// it lists, whatever their order; the survivors stay live, can be freed
// later in any order, and are what Close reclaims.
func TestRemoveHandlesKeepsSurvivorOrder(t *testing.T) {
	probe(t, func(e *pie.Engine, s inferlet.Session) error {
		q, alloc, err := openAlloc(s)
		if err != nil {
			return err
		}
		live, err := alloc.Embeds(6)
		if err != nil {
			return err
		}
		if err := alloc.FreeEmbeds([]api.Embed{live[4], live[1]}); err != nil {
			return err
		}
		if err := alloc.FreeEmbeds(nil); err != nil {
			return fmt.Errorf("freeing nothing: %v", err)
		}
		if err := alloc.FreeEmbeds(live[1:2]); !errors.Is(err, api.ErrBadHandle) {
			return fmt.Errorf("freeing a freed handle = %v, want ErrBadHandle", err)
		}
		live = slices.Delete(slices.Delete(live, 4, 5), 1, 2)
		if err := q.Sync(); err != nil {
			return err
		}
		if _, embeds := inUse(e); embeds != len(live) {
			return fmt.Errorf("%d embeds in use, want the %d survivors", embeds, len(live))
		}
		if err := alloc.FreeEmbeds([]api.Embed{live[3], live[1]}); err != nil {
			return fmt.Errorf("freeing survivors out of order: %v", err)
		}
		if err := q.Close(); err != nil {
			return err
		}
		if _, embeds := inUse(e); embeds != 0 {
			return fmt.Errorf("Close left %d of the survivors in use", embeds)
		}
		return nil
	})
}

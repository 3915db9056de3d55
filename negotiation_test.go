package pie_test

// Capability-negotiation contract tests (API v2): opening queues on
// missing models, requesting capabilities a model lacks, the supertrait
// closure doing real work at negotiation time, queue-scoped resource
// reclamation, and use-after-Close.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pie"
	"pie/api"
	"pie/inferlet"
)

// runInferlet executes body as a registered inferlet on a fresh timing-mode
// engine and returns its Send output and the engine; body errors, and a
// failed Check of the engine's cluster at the test's end, fail the test.
func runInferlet(t *testing.T, body func(s inferlet.Session) (string, error)) (string, *pie.Engine) {
	t.Helper()
	e := checked(t, pie.New(pie.Config{Seed: 99, Mode: pie.ModeTiming}))
	e.MustRegister(inferlet.Program{
		Name: "probe", BinarySize: 4 << 10,
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
		h, err := e.Launch(pie.Spec("probe"))
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
	return got, e
}

func TestOpenMissingModel(t *testing.T) {
	got, _ := runInferlet(t, func(s inferlet.Session) (string, error) {
		if _, err := s.Open("gpt-17"); !errors.Is(err, api.ErrNoSuchModel) {
			return "", fmt.Errorf("Open(gpt-17) = %v, want ErrNoSuchModel", err)
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
}

func TestNegotiationRejectsMissingTrait(t *testing.T) {
	got, _ := runInferlet(t, func(s inferlet.Session) (string, error) {
		// llama-1b does not declare input_image (only llama-8b is
		// multimodal): negotiation must refuse the capability.
		q, err := s.Open("llama-1b")
		if err != nil {
			return "", err
		}
		if _, err := q.Image(); !errors.Is(err, api.ErrNoSuchTrait) {
			return "", fmt.Errorf("Image() on llama-1b = %v, want ErrNoSuchTrait", err)
		}
		// The multimodal model grants it.
		q8, err := s.Open("llama-8b")
		if err != nil {
			return "", err
		}
		if _, err := q8.Image(); err != nil {
			return "", fmt.Errorf("Image() on llama-8b: %v", err)
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
}

// TestNegotiationWalksSupertraitClosure: every capability whose trait is
// reachable through the supertrait DAG from the model's declared traits
// must negotiate, and the whole declared surface of the standard models
// is available.
func TestNegotiationWalksSupertraitClosure(t *testing.T) {
	got, _ := runInferlet(t, func(s inferlet.Session) (string, error) {
		q, err := s.Open("llama-1b")
		if err != nil {
			return "", err
		}
		if _, err := q.Alloc(); err != nil {
			return "", fmt.Errorf("Alloc: %v", err)
		}
		if _, err := q.Forward(); err != nil {
			return "", fmt.Errorf("Forward: %v", err)
		}
		if _, err := q.Fused(); err != nil {
			return "", fmt.Errorf("Fused: %v", err)
		}
		if _, err := q.Text(); err != nil {
			return "", fmt.Errorf("Text: %v", err)
		}
		if _, err := q.Sample(); err != nil {
			return "", fmt.Errorf("Sample: %v", err)
		}
		if _, err := q.Tokenizer(); err != nil {
			return "", fmt.Errorf("Tokenizer: %v", err)
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
}

// TestQueueCloseReclaimsResources: Close frees everything allocated or
// imported through the queue — the pool shrinks back without a single
// explicit dealloc — and afterwards both the queue and its capabilities
// are dead with ErrQueueClosed.
func TestQueueCloseReclaimsResources(t *testing.T) {
	got, _ := runInferlet(t, func(s inferlet.Session) (string, error) {
		q, err := s.Open("llama-1b")
		if err != nil {
			return "", err
		}
		alloc, err := q.Alloc()
		if err != nil {
			return "", err
		}
		if _, err := alloc.Pages(7); err != nil {
			return "", err
		}
		if _, err := alloc.Embeds(3); err != nil {
			return "", err
		}
		if err := q.Close(); err != nil {
			return "", err
		}

		// The queue and every capability negotiated from it are dead.
		if err := q.Sync(); !errors.Is(err, api.ErrQueueClosed) {
			return "", fmt.Errorf("Sync after Close = %v, want ErrQueueClosed", err)
		}
		if _, err := alloc.Pages(1); !errors.Is(err, api.ErrQueueClosed) {
			return "", fmt.Errorf("Pages after Close = %v, want ErrQueueClosed", err)
		}
		if _, err := q.Alloc(); !errors.Is(err, api.ErrQueueClosed) {
			return "", fmt.Errorf("negotiation after Close = %v, want ErrQueueClosed", err)
		}
		if err := q.Close(); !errors.Is(err, api.ErrQueueClosed) {
			return "", fmt.Errorf("double Close = %v, want ErrQueueClosed", err)
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
}

// TestFailedFreeKeepsCloseWorking: a dealloc containing a bad handle is
// all-or-nothing at the controller, so every handle stays live and Close
// still reclaims everything afterwards.
func TestFailedFreeKeepsCloseWorking(t *testing.T) {
	got, _ := runInferlet(t, func(s inferlet.Session) (string, error) {
		q, err := s.Open("llama-1b")
		if err != nil {
			return "", err
		}
		alloc, err := q.Alloc()
		if err != nil {
			return "", err
		}
		pages, err := alloc.Pages(3)
		if err != nil {
			return "", err
		}
		// One stale handle poisons the batch: nothing may be freed.
		bad := append(append([]api.KvPage(nil), pages...), api.KvPage(999999))
		if err := alloc.FreePages(bad); !errors.Is(err, api.ErrBadHandle) {
			return "", fmt.Errorf("FreePages with stale handle = %v, want ErrBadHandle", err)
		}
		// Duplicates are rejected outright too.
		if err := alloc.FreePages([]api.KvPage{pages[0], pages[0]}); !errors.Is(err, api.ErrBadHandle) {
			return "", fmt.Errorf("FreePages with duplicate = %v, want ErrBadHandle", err)
		}
		// The failed calls released nothing and desynced nothing: Close
		// reclaims all three pages.
		if err := q.Close(); err != nil {
			return "", fmt.Errorf("Close after failed frees: %v", err)
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
}

// TestCloseAfterFreeThroughSiblingQueue: handles are instance-scoped, so a
// page allocated through one queue may be freed through another. Closing the
// first queue then still succeeds and reclaims the rest of what it
// allocated, while the inferlet lives on.
func TestCloseAfterFreeThroughSiblingQueue(t *testing.T) {
	e := pie.New(pie.Config{Seed: 99, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{
		Name: "probe", BinarySize: 4 << 10,
		Run: func(s inferlet.Session) error {
			q1, err := s.Open("llama-1b")
			if err != nil {
				return err
			}
			q2, err := s.Open("llama-1b")
			if err != nil {
				return err
			}
			alloc1, err := q1.Alloc()
			if err != nil {
				return err
			}
			alloc2, err := q2.Alloc()
			if err != nil {
				return err
			}
			pages, err := alloc1.Pages(3)
			if err != nil {
				return err
			}
			if _, err := alloc1.Embeds(2); err != nil {
				return err
			}
			if err := alloc2.FreePages(pages[1:2]); err != nil {
				return err
			}
			if err := q2.Sync(); err != nil {
				return err
			}
			if err := q1.Close(); err != nil || !q1.Closed() {
				return fmt.Errorf("Close after a sibling queue freed one of its pages = %v, closed %v", err, q1.Closed())
			}
			s.Send("closed")
			_, err = s.Receive().Get() // stay alive while the client reads the pools
			return err
		},
	})
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("probe"))
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if msg, _ := h.Recv().Get(); msg != "closed" {
			h.Send("")
			t.Errorf("inferlet: %v", h.Wait())
			return
		}
		pages, _ := e.PoolStats("llama-1b")
		embeds, _ := e.Controller().EmbedPoolStats("llama-1b")
		if pages != 0 || embeds != 0 {
			t.Errorf("the live inferlet holds %d pages and %d embeds after Close, want 0 and 0", pages, embeds)
		}
		h.Send("done")
		if err := h.Wait(); err != nil {
			t.Errorf("inferlet: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueCloseSparesExports: Close drops the queue's own references but
// the export registry keeps exported pages alive for importers.
func TestQueueCloseSparesExports(t *testing.T) {
	got, e := runInferlet(t, func(s inferlet.Session) (string, error) {
		q, err := s.Open("llama-1b")
		if err != nil {
			return "", err
		}
		alloc, err := q.Alloc()
		if err != nil {
			return "", err
		}
		pages, err := alloc.Pages(2)
		if err != nil {
			return "", err
		}
		if err := alloc.Export("survivor", pages); err != nil {
			return "", err
		}
		if err := q.Close(); err != nil {
			return "", err
		}

		// A fresh queue can still import the export.
		q2, err := s.Open("llama-1b")
		if err != nil {
			return "", err
		}
		alloc2, err := q2.Alloc()
		if err != nil {
			return "", err
		}
		back, err := alloc2.Import("survivor")
		if err != nil {
			return "", err
		}
		if len(back) != 2 {
			return "", fmt.Errorf("imported %d pages, want 2", len(back))
		}
		return "ok", nil
	})
	if got != "ok" {
		t.Fatal(got)
	}
	// The registry's 2 pages survive; the importer's refs died with it.
	if inUse, _ := e.PoolStats("llama-1b"); inUse != 2 {
		t.Fatalf("export registry holds %d pages, want 2", inUse)
	}
}

// TestFutureCombinatorsInSim: All/Any/Then/Map against real runtime
// futures on the virtual clock. Any must resolve at the FAST service's
// latency, not the slow one's.
func TestFutureCombinatorsInSim(t *testing.T) {
	e := pie.New(pie.Config{Seed: 5, Mode: pie.ModeTiming})
	e.RegisterTool("fast.api", 10*time.Millisecond, func(string) string { return "fast" })
	e.RegisterTool("slow.api", 80*time.Millisecond, func(string) string { return "slow" })
	e.MustRegister(inferlet.Program{
		Name: "combinators", BinarySize: 4 << 10,
		Run: func(s inferlet.Session) error {
			// Any: first completion wins, at the fast tool's latency.
			t0 := s.Now()
			winner, err := api.Any(
				s.HTTPGet("http://slow.api/a"),
				s.HTTPGet("http://fast.api/b"),
			).Get()
			if err != nil {
				return err
			}
			anyTook := s.Now() - t0
			if winner != "fast" {
				return fmt.Errorf("Any picked %q, want fast", winner)
			}
			if anyTook > 40*time.Millisecond {
				return fmt.Errorf("Any took %v; did it wait for the slow call?", anyTook)
			}

			// All: both values, argument order, total wait = slowest.
			t0 = s.Now()
			both, err := api.All(
				s.HTTPGet("http://slow.api/c"),
				s.HTTPGet("http://fast.api/d"),
			).Get()
			if err != nil {
				return err
			}
			if both[0] != "slow" || both[1] != "fast" {
				return fmt.Errorf("All = %v", both)
			}
			if took := s.Now() - t0; took < 80*time.Millisecond {
				return fmt.Errorf("All resolved in %v, before the slow call", took)
			}

			// Then + Map: lazy transforms over runtime futures.
			upper, err := api.Then(s.HTTPGet("http://fast.api/e"), func(v string) (string, error) {
				return v + "!", nil
			}).Get()
			if err != nil {
				return err
			}
			if upper != "fast!" {
				return fmt.Errorf("Then = %q", upper)
			}
			lens, err := api.Map([]api.Future[string]{
				s.HTTPGet("http://fast.api/f"),
				s.HTTPGet("http://slow.api/g"),
			}, func(v string) (int, error) { return len(v), nil }).Get()
			if err != nil {
				return err
			}
			if lens[0] != 4 || lens[1] != 4 {
				return fmt.Errorf("Map = %v", lens)
			}
			s.Send("ok")
			return nil
		},
	})
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("combinators"))
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if msg, _ := h.Recv().Get(); msg != "ok" {
			t.Errorf("got %q", msg)
		}
		h.Wait()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAnyAcrossLayers: Any mixes an inference-layer future with a
// control-layer I/O future — the composition the flat API could not
// express without hand-rolled polling.
func TestAnyAcrossLayers(t *testing.T) {
	e := pie.New(pie.Config{Seed: 6, Mode: pie.ModeTiming})
	e.RegisterTool("glacial.api", 5*time.Second, func(string) string { return "late" })
	e.MustRegister(inferlet.Program{
		Name: "mixed", BinarySize: 4 << 10,
		Run: func(s inferlet.Session) error {
			q, err := s.Open(s.AvailableModels()[0].ID)
			if err != nil {
				return err
			}
			slow := s.HTTPGet("http://glacial.api/x")
			barrier, err := q.Barrier()
			if err != nil {
				return err
			}
			// The empty queue's barrier resolves immediately; the glacial
			// tool call must not block the race.
			done := api.Any(
				api.Then(barrier, func(struct{}) (string, error) { return "queue", nil }),
				api.Then(slow, func(string) (string, error) { return "tool", nil }),
			)
			first, err := done.Get()
			if err != nil {
				return err
			}
			if first != "queue" {
				return fmt.Errorf("Any = %q, want queue", first)
			}
			if s.Now() > time.Second {
				return fmt.Errorf("Any waited for the glacial tool (now=%v)", s.Now())
			}
			s.Send("ok")
			return nil
		},
	})
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("mixed"))
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if msg, _ := h.Recv().Get(); msg != "ok" {
			t.Errorf("got %q", msg)
		}
		h.Wait()
	}); err != nil {
		t.Fatal(err)
	}
}

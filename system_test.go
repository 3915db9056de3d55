package pie_test

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"pie"
	"pie/api"
	"pie/inferlet"
)

// greedyHog allocates the requested number of pages, reports, then waits
// for a "more:N" instruction or "exit".
var greedyHog = inferlet.Program{
	Name: "hog", BinarySize: 4 << 10,
	Run: func(s inferlet.Session) error {
		q, err := s.Open(s.AvailableModels()[2].ID) // llama-8b: small pool
		if err != nil {
			return err
		}
		alloc, err := q.Alloc()
		if err != nil {
			return err
		}
		n, _ := strconv.Atoi(s.GetArg()[0])
		if _, err := alloc.Pages(n); err != nil {
			s.Send("alloc-failed: " + err.Error())
			return err
		}
		s.Send("allocated")
		for {
			msg, err := s.Receive().Get()
			if err != nil {
				return err
			}
			if msg == "exit" {
				return nil
			}
			var more int
			fmt.Sscanf(msg, "more:%d", &more)
			if _, err := alloc.Pages(more); err != nil {
				s.Send("alloc-failed: " + err.Error())
				return err
			}
			s.Send("allocated")
		}
	},
}

// TestFCFSTerminatesNewest: when an older inferlet needs pages, the most
// recently created one is reclaimed (§5.2 contention policy).
func TestFCFSTerminatesNewest(t *testing.T) {
	e := pie.New(pie.Config{Seed: 9, Mode: pie.ModeTiming})
	e.MustRegister(greedyHog)
	_, capacity := e.PoolStats("llama-8b")
	if capacity < 10 {
		t.Fatalf("implausible 8B page capacity %d", capacity)
	}
	half := capacity / 2

	if err := e.RunClient(func() {
		older, err := e.Launch(pie.Spec("hog", strconv.Itoa(half)))
		if err != nil {
			t.Errorf("launch older: %v", err)
			return
		}
		if msg, _ := older.Recv().Get(); msg != "allocated" {
			t.Errorf("older: %s", msg)
			return
		}
		newer, err := e.Launch(pie.Spec("hog", strconv.Itoa(capacity-half-1)))
		if err != nil {
			t.Errorf("launch newer: %v", err)
			return
		}
		if msg, _ := newer.Recv().Get(); msg != "allocated" {
			t.Errorf("newer: %s", msg)
			return
		}
		// Older asks for more than remains: newer must be terminated.
		older.Send(fmt.Sprintf("more:%d", half/2))
		if msg, _ := older.Recv().Get(); msg != "allocated" {
			t.Errorf("older re-alloc failed: %s", msg)
		}
		if err := newer.Wait(); !errors.Is(err, api.ErrTerminated) {
			t.Errorf("newer.Wait() = %v, want ErrTerminated", err)
		}
		older.Send("exit")
		if err := older.Wait(); err != nil {
			t.Errorf("older failed: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Terminations != 1 {
		t.Fatalf("Terminations = %d, want 1", e.Stats().Terminations)
	}
}

// TestFCFSSelfTermination: if the requester itself is the newest instance,
// it is the victim and sees ErrTerminated.
func TestFCFSSelfTermination(t *testing.T) {
	e := pie.New(pie.Config{Seed: 9, Mode: pie.ModeTiming})
	e.MustRegister(greedyHog)
	_, capacity := e.PoolStats("llama-8b")
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("hog", strconv.Itoa(capacity+1)))
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		err = h.Wait()
		if !errors.Is(err, api.ErrTerminated) && !errors.Is(err, api.ErrOutOfResources) {
			t.Errorf("Wait() = %v, want termination", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTerminationReleasesResources: after the victim dies, its pages are
// reusable.
func TestTerminationReleasesResources(t *testing.T) {
	e := checked(t, pie.New(pie.Config{Seed: 9, Mode: pie.ModeTiming}))
	e.MustRegister(greedyHog)
	_, capacity := e.PoolStats("llama-8b")
	if err := e.RunClient(func() {
		a, _ := e.Launch(pie.Spec("hog", strconv.Itoa(capacity-1)))
		a.Recv().Get()
		b, _ := e.Launch(pie.Spec("hog", "1"))
		b.Recv().Get()
		// Pool is full. The older instance asks for one more page: the
		// newest (b) is reclaimed and its page satisfies a.
		a.Send("more:1")
		if msg, _ := a.Recv().Get(); msg != "allocated" {
			t.Errorf("a could not allocate after b's termination: %s", msg)
		}
		if err := b.Wait(); !errors.Is(err, api.ErrTerminated) {
			t.Errorf("b.Wait() = %v, want ErrTerminated", err)
		}
		a.Send("exit")
		a.Wait()
	}); err != nil {
		t.Fatal(err)
	}
}

// exporter prefills a prompt into pages and exports them; importer imports
// and decodes one token from the shared context. Exercises cross-inferlet
// KV sharing (export_kvpage / import_kvpage).
func exportImportPrograms(prompt string) (inferlet.Program, inferlet.Program) {
	exporter := inferlet.Program{
		Name: "exporter", BinarySize: 8 << 10,
		Run: func(s inferlet.Session) error {
			q, err := s.Open(s.AvailableModels()[0].ID)
			if err != nil {
				return err
			}
			tok, err := q.Tokenizer()
			if err != nil {
				return err
			}
			alloc, err := q.Alloc()
			if err != nil {
				return err
			}
			text, err := q.Text()
			if err != nil {
				return err
			}
			fwd, err := q.Forward()
			if err != nil {
				return err
			}
			toks, err := mustGet(tok.Encode(prompt))
			if err != nil {
				return err
			}
			emb, err := alloc.Embeds(len(toks))
			if err != nil {
				return err
			}
			ps := s.AvailableModels()[0].PageSize
			pages, err := alloc.Pages((len(toks) + ps - 1) / ps)
			if err != nil {
				return err
			}
			pos := make([]int, len(toks))
			for i := range pos {
				pos[i] = i
			}
			if err := text.Embed(toks, pos, emb); err != nil {
				return err
			}
			if err := fwd.Run(inferlet.Input(emb...), inferlet.AppendKv(pages...)); err != nil {
				return err
			}
			if err := q.Sync(); err != nil {
				return err
			}
			if err := alloc.Export("shared-prompt", pages); err != nil {
				return err
			}
			s.Send(fmt.Sprintf("exported:%d", len(toks)))
			return nil
		},
	}
	importer := inferlet.Program{
		Name: "importer", BinarySize: 8 << 10,
		Run: func(s inferlet.Session) error {
			q, err := s.Open(s.AvailableModels()[0].ID)
			if err != nil {
				return err
			}
			tok, err := q.Tokenizer()
			if err != nil {
				return err
			}
			alloc, err := q.Alloc()
			if err != nil {
				return err
			}
			text, err := q.Text()
			if err != nil {
				return err
			}
			fwd, err := q.Forward()
			if err != nil {
				return err
			}
			sample, err := q.Sample()
			if err != nil {
				return err
			}
			nTokens, _ := strconv.Atoi(s.GetArg()[0])
			pages, err := alloc.Import("shared-prompt")
			if err != nil {
				return err
			}
			qtoks, err := mustGet(tok.Encode("?"))
			if err != nil {
				return err
			}
			emb, err := alloc.Embeds(len(qtoks))
			if err != nil {
				return err
			}
			out, err := alloc.Embeds(1)
			if err != nil {
				return err
			}
			pos := make([]int, len(qtoks))
			for i := range pos {
				pos[i] = nTokens + i
			}
			if err := text.Embed(qtoks, pos, emb); err != nil {
				return err
			}
			if err := fwd.Run(
				inferlet.ReadKv(pages...), inferlet.Input(emb...), inferlet.Output(out...),
			); err != nil {
				return err
			}
			dist, err := mustGet(sample.NextDist(out[0]))
			if err != nil {
				return err
			}
			s.Send(fmt.Sprintf("next:%d", dist.ArgMax()))
			return nil
		},
	}
	return exporter, importer
}

func TestExportImportSharedKV(t *testing.T) {
	e := pie.New(pie.Config{Seed: 21, Mode: pie.ModeFull})
	exp, imp := exportImportPrograms("shared context for everyone ")
	e.MustRegister(exp, imp)
	if err := e.RunClient(func() {
		he, _ := e.Launch(pie.Spec("exporter"))
		msg, _ := he.Recv().Get()
		var n int
		fmt.Sscanf(msg, "exported:%d", &n)
		if n == 0 {
			t.Errorf("exporter reported %q", msg)
			return
		}
		if err := he.Wait(); err != nil {
			t.Errorf("exporter: %v", err)
		}
		// Exporter is gone; its export must survive (registry holds refs).
		h1, _ := e.Launch(pie.Spec("importer", strconv.Itoa(n)))
		m1, _ := h1.Recv().Get()
		h1.Wait()
		h2, _ := e.Launch(pie.Spec("importer", strconv.Itoa(n)))
		m2, _ := h2.Recv().Get()
		h2.Wait()
		if m1 != m2 || m1 == "" {
			t.Errorf("importers disagree: %q vs %q", m1, m2)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// badHandles checks that foreign/stale handles are rejected.
var badHandles = inferlet.Program{
	Name: "bad-handles", BinarySize: 1 << 10,
	Run: func(s inferlet.Session) error {
		models := s.AvailableModels()
		q1, _ := s.Open(models[0].ID)
		q2, _ := s.Open(models[1].ID) // different model
		alloc1, _ := q1.Alloc()
		text1, _ := q1.Text()
		sample1, _ := q1.Sample()
		text2, _ := q2.Text()
		emb, err := alloc1.Embeds(1)
		if err != nil {
			return err
		}
		// Cross-model use must fail.
		if err := text2.Embed([]int{5}, []int{0}, emb); !errors.Is(err, api.ErrBadHandle) {
			return fmt.Errorf("cross-model embed: got %v, want ErrBadHandle", err)
		}
		// Unknown handle must fail.
		if _, err := sample1.NextDist(api.Embed(999999)); !errors.Is(err, api.ErrBadHandle) {
			return fmt.Errorf("unknown handle: got %v, want ErrBadHandle", err)
		}
		// Dealloc then reuse must fail.
		if err := alloc1.FreeEmbeds(emb); err != nil {
			return err
		}
		if err := text1.Embed([]int{5}, []int{0}, emb); !errors.Is(err, api.ErrBadHandle) {
			return fmt.Errorf("stale handle: got %v, want ErrBadHandle", err)
		}
		// Double dealloc must fail.
		if err := alloc1.FreeEmbeds(emb); !errors.Is(err, api.ErrBadHandle) {
			return fmt.Errorf("double dealloc: got %v, want ErrBadHandle", err)
		}
		return nil
	},
}

func TestHandleIsolation(t *testing.T) {
	e := pie.New(pie.Config{Seed: 2, Mode: pie.ModeTiming})
	e.MustRegister(badHandles)
	if err := e.RunClient(func() {
		h, _ := e.Launch(pie.Spec("bad-handles"))
		if err := h.Wait(); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerPolicies: with many concurrent inferlets, adaptive batching
// must beat T-only, which must beat eager (Table 5 ordering; K-only's
// place depends on K).
func TestSchedulerPolicies(t *testing.T) {
	const n = 24
	run := func(policy pie.Policy) time.Duration {
		e := pie.New(pie.Config{Seed: 4, Mode: pie.ModeTiming, Policy: policy})
		e.MustRegister(autoregressive10("policy test "))
		var took time.Duration
		if err := e.RunClient(func() {
			hs := make([]*pie.Handle, 0, n)
			for i := 0; i < n; i++ {
				h, err := e.Launch(pie.Spec("autoregressive10"))
				if err != nil {
					t.Errorf("launch: %v", err)
					return
				}
				hs = append(hs, h)
			}
			for _, h := range hs {
				h.Wait()
			}
			took = e.Now()
		}); err != nil {
			t.Fatal(err)
		}
		return took
	}
	adaptive := run(pie.PolicyAdaptive)
	eager := run(pie.PolicyEager)
	tonly := run(pie.PolicyTOnly)
	t.Logf("adaptive=%v t-only=%v eager=%v", adaptive, tonly, eager)
	if !(adaptive < tonly && tonly < eager) {
		t.Fatalf("policy ordering violated: adaptive=%v t-only=%v eager=%v", adaptive, tonly, eager)
	}
	if eager < 3*adaptive {
		t.Fatalf("eager (%v) should be several times slower than adaptive (%v)", eager, adaptive)
	}
}

// TestBroadcastSubscribe: inter-inferlet messaging via topics.
func TestBroadcastSubscribe(t *testing.T) {
	e := pie.New(pie.Config{Seed: 5, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{
		Name: "listener", BinarySize: 1 << 10,
		Run: func(s inferlet.Session) error {
			sub := s.Subscribe("news")
			s.Send("ready")
			msg, err := sub.Recv().Get()
			if err != nil {
				return err
			}
			s.Send("got:" + msg)
			return nil
		},
	})
	e.MustRegister(inferlet.Program{
		Name: "speaker", BinarySize: 1 << 10,
		Run: func(s inferlet.Session) error {
			s.Broadcast("news", "hello-all")
			return nil
		},
	})
	if err := e.RunClient(func() {
		l1, _ := e.Launch(pie.Spec("listener"))
		l2, _ := e.Launch(pie.Spec("listener"))
		l1.Recv().Get()
		l2.Recv().Get()
		sp, _ := e.Launch(pie.Spec("speaker"))
		sp.Wait()
		m1, _ := l1.Recv().Get()
		m2, _ := l2.Recv().Get()
		if m1 != "got:hello-all" || m2 != "got:hello-all" {
			t.Errorf("broadcast delivery: %q, %q", m1, m2)
		}
		l1.Wait()
		l2.Wait()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnChild: inferlets launching inferlets (Agent-SWARM substrate).
func TestSpawnChild(t *testing.T) {
	e := pie.New(pie.Config{Seed: 6, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{
		Name: "worker", BinarySize: 1 << 10,
		Run: func(s inferlet.Session) error {
			msg, err := s.Receive().Get()
			if err != nil {
				return err
			}
			s.Send("echo:" + msg)
			return nil
		},
	})
	e.MustRegister(inferlet.Program{
		Name: "parent", BinarySize: 1 << 10,
		Run: func(s inferlet.Session) error {
			c, err := s.Spawn("worker", nil)
			if err != nil {
				return err
			}
			c.Send("ping")
			reply, err := c.Recv().Get()
			if err != nil {
				return err
			}
			if reply != "echo:ping" {
				return fmt.Errorf("child replied %q", reply)
			}
			if err, _ := c.Wait().Get(); err != nil {
				return err
			}
			s.Send("ok")
			return nil
		},
	})
	if err := e.RunClient(func() {
		h, _ := e.Launch(pie.Spec("parent"))
		if msg, _ := h.Recv().Get(); msg != "ok" {
			t.Errorf("parent reported %q", msg)
		}
		h.Wait()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestToolHTTP: integrated I/O from an inferlet, with virtual latency.
func TestToolHTTP(t *testing.T) {
	e := pie.New(pie.Config{Seed: 7, Mode: pie.ModeTiming})
	e.RegisterTool("weather.api", 40*time.Millisecond, func(req string) string {
		return `{"temp": 21}`
	})
	e.MustRegister(inferlet.Program{
		Name: "io", BinarySize: 1 << 10,
		Run: func(s inferlet.Session) error {
			t0 := s.Now()
			resp, err := s.HTTPGet("http://weather.api/today").Get()
			if err != nil {
				return err
			}
			s.Send(fmt.Sprintf("%s in %v", resp, s.Now()-t0))
			return nil
		},
	})
	if err := e.RunClient(func() {
		h, _ := e.Launch(pie.Spec("io"))
		msg, _ := h.Recv().Get()
		if msg != `{"temp": 21} in 40ms` {
			t.Errorf("got %q", msg)
		}
		h.Wait()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestQueuePriorityOrdering: a higher-priority queue's calls land earlier
// in shared batches, observable through earlier completion under load.
func TestQueuePriority(t *testing.T) {
	e := pie.New(pie.Config{Seed: 8, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{
		Name: "pri", BinarySize: 1 << 10,
		Run: func(s inferlet.Session) error {
			pri, _ := strconv.Atoi(s.GetArg()[0])
			q, err := s.Open(s.AvailableModels()[0].ID, inferlet.WithPriority(pri))
			if err != nil {
				return err
			}
			tok, _ := q.Tokenizer()
			alloc, _ := q.Alloc()
			text, _ := q.Text()
			toks, _ := mustGet(tok.Encode("priority scheduling test prompt"))
			emb, err := alloc.Embeds(len(toks))
			if err != nil {
				return err
			}
			pos := make([]int, len(toks))
			for i := range pos {
				pos[i] = i
			}
			text.Embed(toks, pos, emb)
			return q.Sync()
		},
	})
	if err := e.RunClient(func() {
		lo, _ := e.Launch(pie.Spec("pri", "0"))
		hi, _ := e.Launch(pie.Spec("pri", "10"))
		lo.Wait()
		hi.Wait()
	}); err != nil {
		t.Fatal(err)
	}
}

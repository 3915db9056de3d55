package pie_test

import (
	"strings"
	"testing"
	"time"

	"pie"
	"pie/api"
	"pie/inferlet"
)

// checked returns e, and makes t fail at its end unless e's cluster passes
// Check.
func checked(t *testing.T, e *pie.Engine) *pie.Engine {
	t.Cleanup(func() {
		if err := e.Cluster().Check(); err != nil {
			t.Error(err)
		}
	})
	return e
}

// autoregressive10 is the paper's §4.2 "putting it all together" example:
// prefill a prompt, then decode 10 tokens with greedy sampling, using the
// raw v2 capability API (alloc, text, forward, sample, tokenizer).
func autoregressive10(prompt string) inferlet.Program {
	return inferlet.Program{
		Name:       "autoregressive10",
		BinarySize: 129 << 10,
		Run: func(s inferlet.Session) error {
			models := s.AvailableModels()
			q, err := s.Open(models[0].ID)
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
			promToks, err := mustGet(tok.Encode(prompt))
			if err != nil {
				return err
			}
			tokLimit := len(promToks) + 10
			pageSize := models[0].PageSize
			nPages := (tokLimit + pageSize - 1) / pageSize

			promEmb, err := alloc.Embeds(len(promToks))
			if err != nil {
				return err
			}
			genEmb, err := alloc.Embeds(1)
			if err != nil {
				return err
			}
			kv, err := alloc.Pages(nPages)
			if err != nil {
				return err
			}

			// Prefill.
			pos := make([]int, len(promToks))
			for i := range pos {
				pos[i] = i
			}
			if err := text.Embed(promToks, pos, promEmb); err != nil {
				return err
			}
			if err := fwd.Run(
				inferlet.Input(promEmb...),
				inferlet.AppendKv(kv...),
				inferlet.Output(genEmb...),
			); err != nil {
				return err
			}

			// Decode.
			var out []int
			for i := len(promToks); i < tokLimit; i++ {
				dist, err := mustGet(sample.NextDist(genEmb[0]))
				if err != nil {
					return err
				}
				gen := dist.ArgMax()
				out = append(out, gen)
				s.ReportOutputTokens(1)
				if err := text.Embed([]int{gen}, []int{i}, genEmb); err != nil {
					return err
				}
				if err := fwd.Run(
					inferlet.ReadKv(kv...),
					inferlet.Input(genEmb...),
					inferlet.AppendKv(kv...),
					inferlet.Output(genEmb...),
				); err != nil {
					return err
				}
			}
			answer, err := mustGet(tok.Decode(out))
			if err != nil {
				return err
			}
			s.Send(answer)

			// Cleanup: queue-scoped reclamation frees every handle above.
			return q.Close()
		},
	}
}

func mustGet[T any](f api.Future[T], err error) (T, error) {
	var zero T
	if err != nil {
		return zero, err
	}
	return f.Get()
}

func TestEndToEndAutoregressive(t *testing.T) {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeFull})
	e.MustRegister(autoregressive10("Hello, "))

	var text string
	var elapsed time.Duration
	err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("autoregressive10"))
		if err != nil {
			t.Errorf("Launch: %v", err)
			return
		}
		msg, err := h.Recv().Get()
		if err != nil {
			t.Errorf("Recv: %v", err)
			return
		}
		text = msg
		if err := h.Wait(); err != nil {
			t.Errorf("inferlet failed: %v", err)
		}
		elapsed = e.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if text == "" {
		t.Fatal("no generated text received")
	}
	if elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	t.Logf("generated %q in %v virtual time", text, elapsed)
}

func TestEndToEndDeterminism(t *testing.T) {
	run := func() (string, time.Duration) {
		e := pie.New(pie.Config{Seed: 7, Mode: pie.ModeFull})
		e.MustRegister(autoregressive10("the answer is "))
		var text string
		var at time.Duration
		if err := e.RunClient(func() {
			h, _ := e.Launch(pie.Spec("autoregressive10"))
			text, _ = h.Recv().Get()
			h.Wait()
			at = e.Now()
		}); err != nil {
			t.Fatal(err)
		}
		return text, at
	}
	t1, d1 := run()
	t2, d2 := run()
	if t1 != t2 {
		t.Fatalf("same-seed runs generated different text: %q vs %q", t1, t2)
	}
	if d1 != d2 {
		t.Fatalf("same-seed runs took different virtual time: %v vs %v", d1, d2)
	}
}

// Timing mode must charge the same virtual time structure while skipping
// tensor math.
func TestTimingModeRuns(t *testing.T) {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(autoregressive10("Hello, "))
	var elapsed time.Duration
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("autoregressive10"))
		if err != nil {
			t.Errorf("Launch: %v", err)
			return
		}
		if _, err := h.Recv().Get(); err != nil {
			t.Errorf("Recv: %v", err)
		}
		h.Wait()
		elapsed = e.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if elapsed == 0 {
		t.Fatal("timing mode charged no time")
	}
	st := e.Stats()
	if st.Kernels == 0 || st.Batches == 0 {
		t.Fatalf("no kernels/batches recorded: %+v", st)
	}
}

// Many concurrent inferlets must batch: average batch size > 1 and total
// time far below the serial sum.
func TestConcurrentInferletsBatch(t *testing.T) {
	const n = 16
	e := pie.New(pie.Config{Seed: 1, Mode: pie.ModeTiming})
	e.MustRegister(autoregressive10("concurrency test "))
	if err := e.RunClient(func() {
		handles := make([]*pie.Handle, 0, n)
		for i := 0; i < n; i++ {
			h, err := e.Launch(pie.Spec("autoregressive10"))
			if err != nil {
				t.Errorf("Launch %d: %v", i, err)
				return
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			h.Wait()
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.AvgBatch < 2 {
		t.Fatalf("adaptive scheduler failed to batch: avg batch %.2f", st.AvgBatch)
	}
	if st.MaxBatch < 4 {
		t.Fatalf("max batch only %d across %d concurrent inferlets", st.MaxBatch, n)
	}
}

func TestLaunchUnknownProgram(t *testing.T) {
	e := pie.New(pie.Config{})
	err := e.RunClient(func() {
		if _, err := e.Launch(pie.Spec("nope")); err == nil {
			t.Error("launching unknown program succeeded")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHandleLogsAndStats(t *testing.T) {
	e := pie.New(pie.Config{Seed: 3, Mode: pie.ModeFull})
	e.MustRegister(inferlet.Program{
		Name: "logger", BinarySize: 1 << 10,
		Run: func(s inferlet.Session) error {
			s.Print("starting")
			s.Print("arg=" + strings.Join(s.GetArg(), ","))
			s.Send("done")
			return nil
		},
	})
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("logger", "x", "y"))
		if err != nil {
			t.Errorf("Launch: %v", err)
			return
		}
		h.Wait()
		logs := h.Logs()
		if len(logs) != 2 || logs[1] != "arg=x,y" {
			t.Errorf("logs = %v", logs)
		}
		cc, ic, _ := h.Stats()
		if cc == 0 {
			t.Error("no control calls recorded")
		}
		if ic != 0 {
			t.Errorf("unexpected inference calls: %d", ic)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Cold-vs-warm launch: the first launch of a program pays upload+JIT; the
// second reuses the cache (Fig. 9 mechanism).
func TestColdWarmLaunch(t *testing.T) {
	e := pie.New(pie.Config{Seed: 5})
	e.MustRegister(inferlet.Program{
		Name: "noop", BinarySize: 129 << 10,
		Run: func(s inferlet.Session) error { s.Send("ok"); return nil },
	})
	var cold, warm time.Duration
	if err := e.RunClient(func() {
		t0 := e.Now()
		h, _ := e.Launch(pie.Spec("noop"))
		h.Recv().Get()
		cold = e.Now() - t0

		t0 = e.Now()
		h2, _ := e.Launch(pie.Spec("noop"))
		h2.Recv().Get()
		warm = e.Now() - t0
		h.Wait()
		h2.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Fatalf("warm launch (%v) not faster than cold (%v)", warm, cold)
	}
	if cold-warm < 10*time.Millisecond {
		t.Fatalf("cold-warm gap only %v; expected upload+JIT to dominate", cold-warm)
	}
}

package pie_test

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"pie"
	"pie/api"
	"pie/apps"
	"pie/inferlet"
)

// abortOutcome is the canonical result document for the abort determinism
// tests: everything a same-seed replay must reproduce byte-identically.
type abortOutcome struct {
	AbortedAt    string
	WaitErr      string
	PagesInUse   int
	EmbedsInUse  int
	Launches     int
	Aborts       int
	Terminations int
	OutputTokens int
	FinalTime    string
}

// runAbortScenario launches a long decode, aborts it mid-generation at a
// fixed virtual instant, and snapshots the engine afterward.
func runAbortScenario(t *testing.T, seed uint64, abortDelay time.Duration) abortOutcome {
	t.Helper()
	e := pie.New(pie.Config{Seed: seed, Mode: pie.ModeTiming})
	e.MustRegister(apps.All()...)
	var out abortOutcome
	err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("text_completion",
			`{"prompt":"abort probe","max_tokens":4096,"first_token_ack":true}`))
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		// First token accepted: the decode loop is live and holds pages,
		// embeds, and in-flight forward calls.
		if msg, err := h.Recv().Get(); err != nil || msg != "first-token" {
			t.Errorf("first token ack: %q, %v", msg, err)
			return
		}
		e.Sleep(abortDelay) // land the abort mid-decode
		if !h.Abort() {
			t.Error("Abort reported no-op on a live inferlet")
		}
		out.AbortedAt = e.Now().String()
		if h.Abort() {
			t.Error("second Abort was not a no-op")
		}
		waitErr := h.Wait()
		if !errors.Is(waitErr, api.ErrAborted) {
			t.Errorf("Wait after abort = %v, want ErrAborted", waitErr)
		}
		out.WaitErr = waitErr.Error()
		_, _, out.OutputTokens = h.Stats()
		if out.OutputTokens == 0 {
			t.Error("abort landed before any decode progress; move it later")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out.PagesInUse, _ = e.PoolStats("llama-1b")
	out.EmbedsInUse, _ = e.Controller().EmbedPoolStats("llama-1b")
	s := e.Stats()
	out.Launches = s.Launches
	out.Aborts = s.Aborts
	out.Terminations = s.Terminations
	out.FinalTime = e.Now().String()
	return out
}

// TestAbortMidDecodeFreesEverything: Abort() during a decode loop returns
// the pools to their pre-launch state — no leaked pages or embedding
// slots, in-flight calls retired — and the replay is byte-identical under
// the same seed.
func TestAbortMidDecodeFreesEverything(t *testing.T) {
	out := runAbortScenario(t, 42, 5*time.Millisecond)
	if out.PagesInUse != 0 {
		t.Fatalf("%d KV pages still allocated after abort", out.PagesInUse)
	}
	if out.EmbedsInUse != 0 {
		t.Fatalf("%d embedding slots still allocated after abort", out.EmbedsInUse)
	}
	if out.Aborts != 1 || out.Terminations != 0 {
		t.Fatalf("aborts=%d terminations=%d, want 1/0 (abort is not an FCFS kill)",
			out.Aborts, out.Terminations)
	}

	// Byte-identical same-seed replay: the full outcome document.
	again := runAbortScenario(t, 42, 5*time.Millisecond)
	a, _ := json.Marshal(out)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("same-seed abort replay diverged:\n%s\n%s", a, b)
	}

	// A later abort must shift the document (otherwise the byte-compare
	// above proves nothing about the scenario).
	other := runAbortScenario(t, 42, 12*time.Millisecond)
	c, _ := json.Marshal(other)
	if string(a) == string(c) {
		t.Fatal("a different abort instant reproduced the identical outcome document")
	}
}

// TestLaunchDeadlineAborts: a LaunchSpec deadline reclaims a runaway
// inferlet with ErrDeadlineExceeded, and a manifest deadline tightens the
// same way.
func TestLaunchDeadlineAborts(t *testing.T) {
	e := pie.New(pie.Config{Seed: 7, Mode: pie.ModeTiming})
	e.MustRegister(apps.All()...)
	err := e.RunClient(func() {
		h, err := e.Launch(pie.LaunchSpec{
			Program:  "text_completion",
			Args:     []string{`{"prompt":"runaway","max_tokens":4096}`},
			Deadline: 40 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := h.Wait(); !errors.Is(err, api.ErrDeadlineExceeded) {
			t.Errorf("Wait = %v, want ErrDeadlineExceeded", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e.PoolStats("llama-1b"); n != 0 {
		t.Fatalf("%d pages leaked after deadline abort", n)
	}
	// A deadline roomier than the run never fires (fresh engine: a
	// finished virtual clock cannot be restarted).
	e = pie.New(pie.Config{Seed: 7, Mode: pie.ModeTiming})
	e.MustRegister(apps.All()...)
	err = e.RunClient(func() {
		h, err := e.Launch(pie.LaunchSpec{
			Program:  "text_completion",
			Args:     []string{`{"prompt":"quick","max_tokens":2}`},
			Deadline: time.Hour,
		})
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := h.Wait(); err != nil {
			t.Errorf("Wait under roomy deadline: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestManifestLimitsEnforced: manifest resource limits surface as typed
// ErrLimitExceeded from the control layer, and manifest validation
// rejects unsatisfiable deployments at register and launch time.
func TestManifestLimitsEnforced(t *testing.T) {
	e := pie.New(pie.Config{Seed: 7, Mode: pie.ModeTiming})
	var pageErr, queueErr, importErr error
	e.MustRegister(pie.Program{
		Name:       "limited",
		BinarySize: 4 << 10,
		Manifest: pie.Manifest{
			Version: "2.0.0",
			Limits:  pie.Limits{MaxKvPages: 2, MaxQueues: 1},
		},
		Run: func(s pie.Session) error {
			q, err := s.Open("llama-1b")
			if err != nil {
				return err
			}
			al, err := q.Alloc()
			if err != nil {
				return err
			}
			pages, err := al.Pages(2)
			if err != nil {
				return err
			}
			_, pageErr = al.Pages(1) // third page: over the manifest limit
			_, queueErr = s.Open("llama-1b")
			// Imports map pages into the address space too: the cap must
			// bound them the same way.
			if err := al.Export("limited:kv", pages); err != nil {
				return err
			}
			_, importErr = al.Import("limited:kv")
			return nil
		},
	})
	err := e.RunClient(func() {
		if _, err := e.LaunchAndWait(pie.Spec("limited")); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(pageErr, api.ErrLimitExceeded) {
		t.Fatalf("page alloc over limit = %v, want ErrLimitExceeded", pageErr)
	}
	if !errors.Is(queueErr, api.ErrLimitExceeded) {
		t.Fatalf("second queue over limit = %v, want ErrLimitExceeded", queueErr)
	}
	if !errors.Is(importErr, api.ErrLimitExceeded) {
		t.Fatalf("import over limit = %v, want ErrLimitExceeded", importErr)
	}

	// Unsatisfiable manifests: rejected at register time, typed. llama-1b
	// is text-only, so pinning input_image onto it cannot be served;
	// neither can a model absent from the catalog.
	bad := pie.Program{
		Name: "needs-image-on-1b", BinarySize: 1 << 10,
		Manifest: pie.Manifest{
			Models: []api.ModelID{"llama-1b"},
			Traits: []api.Trait{api.TraitInputImage},
		},
		Run: func(pie.Session) error { return nil },
	}
	if err := e.Register(bad); !errors.Is(err, pie.ErrUnsatisfiedManifest) {
		t.Fatalf("register unsatisfiable manifest = %v, want ErrUnsatisfiedManifest", err)
	}
	ghost := pie.Program{
		Name: "needs-ghost-model", BinarySize: 1 << 10,
		Manifest: pie.Manifest{Models: []api.ModelID{"gpt-99"}},
		Run:      func(pie.Session) error { return nil },
	}
	if err := e.Register(ghost); !errors.Is(err, pie.ErrUnsatisfiedManifest) {
		t.Fatalf("register ghost-model manifest = %v, want ErrUnsatisfiedManifest", err)
	}

	// Unknown program references are typed at launch (fresh engine: the
	// first one's clock already ran to completion).
	e2 := pie.New(pie.Config{Seed: 7, Mode: pie.ModeTiming})
	e2.MustRegister(apps.All()...)
	err = e2.RunClient(func() {
		if _, err := e2.Launch(pie.Spec("text_completion@9.9.9")); !errors.Is(err, pie.ErrNoSuchProgram) {
			t.Errorf("launch unknown version = %v, want ErrNoSuchProgram", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortMidNextDist: an inferlet aborted with a get_next_dist
// outstanding on a loaded replica gets the call's own future completed —
// failed typed when queue teardown caught it still queued, resolved by its
// batch when it was already dispatched — leaves no process behind (there is
// no adapter between the batch and the inferlet to leave), and returns
// every page and embedding slot.
func TestAbortMidNextDist(t *testing.T) {
	for _, tc := range []struct {
		name    string
		delay   time.Duration // from the probe's "ready" to the abort
		wantErr error
	}{
		{"queued behind the load's prefill batch", 10 * time.Millisecond, api.ErrTerminated},
		{"dispatched, batch not back yet", 30 * time.Millisecond, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := pie.New(pie.Config{Seed: 11, Mode: pie.ModeTiming})
			e.MustRegister(apps.All()...)
			var last api.Future[api.Dist] // the probe's most recent get_next_dist
			e.MustRegister(pie.Program{
				Name: "dist_probe", BinarySize: 4 << 10,
				Run: func(s pie.Session) error {
					q, err := s.Open("llama-1b")
					if err != nil {
						return err
					}
					alloc, _ := q.Alloc()
					text, _ := q.Text()
					fwd, _ := q.Forward()
					sample, _ := q.Sample()
					pages, err := alloc.Pages(1)
					if err != nil {
						return err
					}
					embs, err := alloc.Embeds(2)
					if err != nil {
						return err
					}
					if _, err := text.Embed([]int{5}, []int{0}, embs[:1]); err != nil {
						return err
					}
					if _, err := fwd.Run(inferlet.Input(embs[0]), inferlet.AppendKv(pages...), inferlet.Output(embs[1])); err != nil {
						return err
					}
					s.Send("ready")
					for {
						f, err := sample.NextDist(embs[1])
						if err != nil {
							return err
						}
						last = f
						if _, err := f.Get(); err != nil {
							return err
						}
					}
				},
			})
			err := e.RunClient(func() {
				liveBefore, _, _, _ := e.Clock().Stats()
				var load []*pie.Handle
				for i := 0; i < 24; i++ {
					h, err := e.Launch(pie.Spec("text_completion", `{"prompt":"keep the device busy","max_tokens":48}`))
					if err != nil {
						t.Errorf("launch load %d: %v", i, err)
						return
					}
					load = append(load, h)
				}
				probe, err := e.Launch(pie.Spec("dist_probe"))
				if err != nil {
					t.Errorf("launch probe: %v", err)
					return
				}
				if msg, err := probe.Recv().Get(); err != nil || msg != "ready" {
					t.Errorf("probe ready: %q, %v", msg, err)
					return
				}
				e.Sleep(tc.delay)
				if last == nil || last.Done() {
					t.Error("probe has no get_next_dist outstanding at the abort; move the abort")
					return
				}
				if !probe.Abort() {
					t.Error("Abort reported no-op on the live probe")
				}
				if err := probe.Wait(); !errors.Is(err, api.ErrAborted) {
					t.Errorf("probe Wait = %v, want ErrAborted", err)
				}
				for _, h := range load {
					if err := h.Wait(); err != nil {
						t.Errorf("load session: %v", err)
					}
				}
				e.Sleep(50 * time.Millisecond) // let the sessions' own clean-up drain
				if !last.Done() {
					t.Error("the aborted probe's get_next_dist future never completed")
				} else if _, err := last.Get(); !errors.Is(err, tc.wantErr) {
					t.Errorf("aborted get_next_dist future = %v, want %v", err, tc.wantErr)
				}
				if live, _, _, _ := e.Clock().Stats(); live != liveBefore {
					t.Errorf("%d live processes before the launches, %d after every session ended", liveBefore, live)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := e.PoolStats("llama-1b"); n != 0 {
				t.Fatalf("%d KV pages still allocated", n)
			}
			if n, _ := e.Controller().EmbedPoolStats("llama-1b"); n != 0 {
				t.Fatalf("%d embedding slots still allocated", n)
			}
		})
	}
}

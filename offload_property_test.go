package pie_test

// Engine-level property test for the tiered KV cache: several concurrent
// inferlets run seeded random sequences of alloc / free / export / import
// / forward (which faults offloaded pages) / Close against a small device
// pool with a host tier, while a timer runs the cluster's Check every 2 ms
// and once more at the end. Injected mid-sequence failures (deallocs
// containing a bogus or duplicate handle) must be all-or-nothing: the
// failed call releases nothing and every real handle stays reclaimable.

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"pie"
	"pie/api"
	"pie/inferlet"
)

const (
	chaosAgents   = 3
	chaosOps      = 80
	chaosMaxPages = 12 // per-agent page budget; 3*12 < 16 dev + 32 host
)

// chaosProgram runs one seeded random op sequence. Every decision comes
// from the session RNG (itself seeded by the engine seed and instance
// id), so same-seed engines replay identical sequences.
func chaosProgram() inferlet.Program {
	return inferlet.Program{
		Name: "chaos", BinarySize: 8 << 10,
		Run: func(s inferlet.Session) error {
			var id int
			fmt.Sscanf(s.GetArg()[0], "%d", &id)
			q, err := s.Open("llama-1b")
			if err != nil {
				return err
			}
			al, err := q.Alloc()
			if err != nil {
				return err
			}
			fwd, err := q.Forward()
			if err != nil {
				return err
			}
			var pages []api.KvPage
			exported := map[string][]api.KvPage{}
			exportSeq := 0
			for op := 0; op < chaosOps; op++ {
				switch s.Random() % 6 {
				case 0: // alloc
					n := 1 + int(s.Random()%3)
					if len(pages)+n > chaosMaxPages {
						continue
					}
					got, err := al.Pages(n)
					if err != nil {
						return fmt.Errorf("op %d: alloc: %w", op, err)
					}
					pages = append(pages, got...)
				case 1: // free a random prefix-rotation subset
					if len(pages) == 0 {
						continue
					}
					n := 1 + int(s.Random()%uint64(len(pages)))
					if err := al.FreePages(pages[:n]); err != nil {
						return fmt.Errorf("op %d: free: %w", op, err)
					}
					pages = append([]api.KvPage(nil), pages[n:]...)
				case 2: // injected failure: dealloc with a bogus handle
					if len(pages) == 0 {
						continue
					}
					bad := []api.KvPage{pages[0], api.KvPage(1 << 40)}
					if err := al.FreePages(bad); !errors.Is(err, api.ErrBadHandle) {
						return fmt.Errorf("op %d: bad dealloc = %v, want ErrBadHandle", op, err)
					}
					// All-or-nothing: the real handle must still be live —
					// freeing it now must succeed.
					if err := al.FreePages(pages[:1]); err != nil {
						return fmt.Errorf("op %d: handle lost by failed dealloc: %w", op, err)
					}
					pages = append([]api.KvPage(nil), pages[1:]...)
				case 3: // duplicate-handle dealloc must also release nothing
					if len(pages) == 0 {
						continue
					}
					dup := []api.KvPage{pages[0], pages[0]}
					if err := al.FreePages(dup); !errors.Is(err, api.ErrBadHandle) {
						return fmt.Errorf("op %d: dup dealloc = %v, want ErrBadHandle", op, err)
					}
				case 4: // forward over everything owned: faults offloaded pages
					if len(pages) == 0 {
						continue
					}
					if err := fwd.Run(inferlet.ReadKv(pages...)); err != nil {
						return fmt.Errorf("op %d: forward: %w", op, err)
					}
					if err := q.Sync(); err != nil {
						return fmt.Errorf("op %d: forward wait: %w", op, err)
					}
				case 5: // export a page, import a peer's export
					if len(pages) > 0 && s.Random()%2 == 0 {
						name := fmt.Sprintf("chaos:%d:%d", id, exportSeq)
						exportSeq++
						if err := al.Export(name, pages[:1]); err != nil {
							return fmt.Errorf("op %d: export: %w", op, err)
						}
						exported[name] = pages[:1:1]
					} else {
						peer := fmt.Sprintf("chaos:%d:0", int(s.Random()%chaosAgents))
						if al.HasExport(peer) {
							got, err := al.Import(peer)
							if err != nil {
								return fmt.Errorf("op %d: import: %w", op, err)
							}
							if len(pages)+len(got) <= chaosMaxPages {
								pages = append(pages, got...)
							} else if err := al.FreePages(got); err != nil {
								return fmt.Errorf("op %d: free import: %w", op, err)
							}
						}
					}
				}
			}
			// Tear down: drop every export registration, then Close the
			// queue — queue-scoped reclamation must return every page.
			for name := range exported {
				if err := al.ReleaseExport(name); err != nil {
					return fmt.Errorf("release export %s: %w", name, err)
				}
			}
			return q.Close()
		},
	}
}

func runChaos(t *testing.T, seed uint64) pie.Stats {
	t.Helper()
	e := checked(t, pie.New(pie.Config{
		Seed: seed, Mode: pie.ModeTiming,
		KVPagesOverride: 16, HostKVRatio: 2.0, // 16 device + 32 host pages
	}))
	e.MustRegister(chaosProgram())
	var broken error // the first failed Check
	e.Clock().Every(2*time.Millisecond, func() {
		if broken == nil {
			broken = e.Cluster().Check()
		}
	})
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < chaosAgents; i++ {
			h, err := e.Launch(pie.Spec("chaos", fmt.Sprint(i)))
			if err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
			hs = append(hs, h)
		}
		for i, h := range hs {
			if err := h.Wait(); err != nil {
				t.Errorf("chaos agent %d: %v", i, err)
			}
		}
	})
	if err != nil || broken != nil {
		t.Fatalf("seed %d: %v, %v", seed, err, broken)
	}
	// Every agent released its exports, so none is left to hold pages.
	for _, r := range e.Cluster().Replicas() {
		if exports, _ := r.Ctl.DropExports(); exports != 0 {
			t.Fatalf("seed %d: replica %d still holds %d exports after teardown", seed, r.ID, exports)
		}
	}
	st := e.Stats()
	if st.Terminations != 0 {
		t.Fatalf("seed %d: chaos load should fit capacity, got %d terminations", seed, st.Terminations)
	}
	return st
}

// TestOffloadChaosInvariants runs the randomized sequences across several
// seeds. The workload is sized to force offload churn (device tier far
// smaller than aggregate demand) without exceeding total capacity.
func TestOffloadChaosInvariants(t *testing.T) {
	swaps := 0
	for seed := uint64(1); seed <= 4; seed++ {
		st := runChaos(t, seed)
		swaps += st.SwapOutPages
	}
	if swaps == 0 {
		t.Fatal("chaos runs never exercised the offload path")
	}
}

// TestOffloadChaosDeterministic pins replay: the same seed produces
// byte-identical engine stats, swap counters included.
func TestOffloadChaosDeterministic(t *testing.T) {
	a, err := json.Marshal(runChaos(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(runChaos(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("same-seed chaos stats differ:\n%s\n%s", a, b)
	}
}

// TestExportFaultInReflectsOffload: an export whose cold pages were
// offloaded prices their swap back in — the delay the cluster's
// kv-affinity placement adds to a holder's load.
func TestExportFaultInReflectsOffload(t *testing.T) {
	e := pie.New(pie.Config{
		Seed: 3, Mode: pie.ModeTiming,
		KVPagesOverride: 8, HostKVRatio: 1.0, // 8 device + 8 host pages
	})
	e.MustRegister(inferlet.Program{
		Name: "exporter", BinarySize: 8 << 10,
		Run: func(s inferlet.Session) error {
			q, err := s.Open("llama-1b")
			if err != nil {
				return err
			}
			al, _ := q.Alloc()
			pages, err := al.Pages(4)
			if err != nil {
				return err
			}
			if err := al.Export("res:key", pages); err != nil {
				return err
			}
			s.Send("exported")
			_, err = s.Receive().Get()
			return err
		},
	})
	e.MustRegister(inferlet.Program{
		Name: "presser", BinarySize: 8 << 10,
		Run: func(s inferlet.Session) error {
			// Allocate enough fresh pages to force the exporter's cold
			// pages off the device tier.
			q, err := s.Open("llama-1b")
			if err != nil {
				return err
			}
			al, _ := q.Alloc()
			if _, err := al.Pages(7); err != nil {
				return err
			}
			return q.Close()
		},
	})
	err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("exporter"))
		if err != nil {
			t.Errorf("launch exporter: %v", err)
			return
		}
		if msg, _ := h.Recv().Get(); msg != "exported" {
			t.Errorf("got %q", msg)
			return
		}
		if cost, ok := e.Controller().ExportFaultIn("res:key"); !ok || cost != 0 {
			t.Errorf("fresh export fault-in %v (held %v), want 0: every page on the device", cost, ok)
		}
		if _, err := e.LaunchAndWait(pie.Spec("presser")); err != nil {
			t.Errorf("presser: %v", err)
			return
		}
		if cost, ok := e.Controller().ExportFaultIn("res:key"); !ok || cost == 0 {
			t.Errorf("post-pressure fault-in %v (held %v), want a swap of the offloaded pages", cost, ok)
		}
		h.Send("finish")
		_ = h.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.SwapOutPages == 0 {
		t.Fatal("pressure never offloaded the exported pages")
	}
}

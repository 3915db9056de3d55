package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
)

// runCtl builds a two-model controller (llama-1b, llama-3b) on a fresh
// clock and runs body as a sim process. pages > 0 overrides both models'
// device page capacity.
func runCtl(t testing.TB, mode infer.ExecMode, pages int, off OffloadConfig, body func(clock *sim.Clock, ctl *Controller)) {
	t.Helper()
	clock := sim.NewClock()
	ctl := newTestController(clock, "gpu0", mode, pages, off)
	clock.Go("test", func() { body(clock, ctl) })
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

func newTestController(clock *sim.Clock, device string, mode infer.ExecMode, pages int, off OffloadConfig) *Controller {
	backend := infer.NewBackend(clock, device)
	cat := model.StandardCatalog(42)
	var rts []*infer.ModelRuntime
	for _, name := range []string{"llama-1b", "llama-3b"} {
		rt := infer.NewModelRuntime(cat.Models[name], mode)
		if pages > 0 {
			rt.PageCapacity = pages
		}
		rts = append(rts, rt)
	}
	return NewController(clock, backend, rts, DefaultSchedConfig(), off, ArtifactConfig{})
}

// mustQueue opens a queue on model m for inst.
func mustQueue(t testing.TB, ctl *Controller, inst *Instance, m string) api.Queue {
	t.Helper()
	q, err := ctl.CreateQueue(inst, api.ModelID(m))
	if err != nil {
		t.Fatalf("CreateQueue(%s): %v", m, err)
	}
	return q
}

// TestBadHandleCases pins down which handle misuse the controller rejects
// with ErrBadHandle, and that a rejected call changes nothing.
func TestBadHandleCases(t *testing.T) {
	type env struct {
		ctl    *Controller
		inst   *Instance
		q1, q3 api.Queue // llama-1b, llama-3b
		embs   []api.Embed
		pages  []api.KvPage
	}
	sync := func(e *env, q api.Queue) {
		s, err := e.ctl.Synchronize(e.inst, q)
		if err != nil {
			t.Fatalf("Synchronize: %v", err)
		}
		if err := sim.Await(s); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	cases := []struct {
		name string
		run  func(e *env) error
		// after checks the rejected call left the handle view untouched.
		after func(e *env) error
	}{
		{
			name: "freed embed in embed_txt",
			run: func(e *env) error {
				if err := e.ctl.DeallocEmbeds(e.inst, e.q1, e.embs[:1]); err != nil {
					t.Fatalf("dealloc: %v", err)
				}
				_, err := e.ctl.EmbedText(e.inst, e.q1, []int{5}, []int{0}, e.embs[:1])
				return err
			},
		},
		{
			name: "freed embed freed again",
			run: func(e *env) error {
				if err := e.ctl.DeallocEmbeds(e.inst, e.q1, e.embs[:1]); err != nil {
					t.Fatalf("dealloc: %v", err)
				}
				return e.ctl.DeallocEmbeds(e.inst, e.q1, e.embs[:1])
			},
		},
		{
			name: "freed page in forward",
			run: func(e *env) error {
				if err := e.ctl.DeallocPages(e.inst, e.q1, e.pages[:1]); err != nil {
					t.Fatalf("dealloc: %v", err)
				}
				_, err := e.ctl.Forward(e.inst, e.q1, api.ForwardArgs{InputKv: e.pages[:1]})
				return err
			},
		},
		{
			name: "freed page in export",
			run: func(e *env) error {
				if err := e.ctl.DeallocPages(e.inst, e.q1, e.pages[:1]); err != nil {
					t.Fatalf("dealloc: %v", err)
				}
				return e.ctl.ExportPages(e.inst, "x", e.pages[:2])
			},
		},
		{
			name: "same embed twice in one dealloc releases nothing",
			run: func(e *env) error {
				return e.ctl.DeallocEmbeds(e.inst, e.q1, []api.Embed{e.embs[0], e.embs[1], e.embs[0]})
			},
			after: func(e *env) error {
				// Both handles still resolve, and still free exactly once.
				if _, err := e.ctl.EmbedText(e.inst, e.q1, []int{5, 6}, []int{0, 1}, e.embs[:2]); err != nil {
					return err
				}
				return e.ctl.DeallocEmbeds(e.inst, e.q1, e.embs[:2])
			},
		},
		{
			name: "same page twice in one dealloc releases nothing",
			run: func(e *env) error {
				return e.ctl.DeallocPages(e.inst, e.q1, []api.KvPage{e.pages[1], e.pages[0], e.pages[1]})
			},
			after: func(e *env) error {
				if _, err := e.ctl.Forward(e.inst, e.q1, api.ForwardArgs{InputKv: e.pages[:2]}); err != nil {
					return err
				}
				return e.ctl.DeallocPages(e.inst, e.q1, e.pages[:2])
			},
		},
		{
			name: "bad handle after good ones in one dealloc releases nothing",
			run: func(e *env) error {
				return e.ctl.DeallocPages(e.inst, e.q1, []api.KvPage{e.pages[0], e.pages[1], 9999})
			},
			after: func(e *env) error {
				return e.ctl.DeallocPages(e.inst, e.q1, e.pages[:2])
			},
		},
		{
			name: "embed through another model's queue",
			run: func(e *env) error {
				_, err := e.ctl.EmbedText(e.inst, e.q3, []int{5}, []int{0}, e.embs[:1])
				return err
			},
		},
		{
			name: "page through another model's queue",
			run: func(e *env) error {
				_, err := e.ctl.Forward(e.inst, e.q3, api.ForwardArgs{OutputKv: e.pages[:1]})
				return err
			},
		},
		{
			name: "copy_kvpage across models",
			run: func(e *env) error {
				_, err := e.ctl.CopyKv(e.inst, e.q3, e.pages[0], e.pages[1], 0, 0, 1)
				return err
			},
		},
		{
			name: "next_dist through another model's queue",
			run: func(e *env) error {
				_, err := e.ctl.NextDist(e.inst, e.q3, e.embs[0])
				return err
			},
		},
		{
			name: "embed handle never issued",
			run: func(e *env) error {
				_, err := e.ctl.NextDist(e.inst, e.q1, e.embs[len(e.embs)-1]+1)
				return err
			},
		},
		{
			name: "page handle never issued",
			run: func(e *env) error {
				_, err := e.ctl.MaskKv(e.inst, e.q1, e.pages[len(e.pages)-1]+1, []bool{true})
				return err
			},
		},
		{
			name: "handle zero",
			run: func(e *env) error {
				_, err := e.ctl.Forward(e.inst, e.q1, api.ForwardArgs{InputEmb: []api.Embed{0}})
				return err
			},
		},
		{
			name: "another instance's handle numbers",
			run: func(e *env) error {
				other := e.ctl.RegisterInstance("other", nil, nil)
				defer e.ctl.ReleaseInstance(other)
				oq := mustQueue(t, e.ctl, other, "llama-1b")
				// other has issued no handles: e's numbers mean nothing there.
				return e.ctl.DeallocEmbeds(other, oq, e.embs[:1])
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
				e := &env{ctl: ctl, inst: ctl.RegisterInstance("t", nil, nil)}
				defer ctl.ReleaseInstance(e.inst)
				e.q1 = mustQueue(t, ctl, e.inst, "llama-1b")
				e.q3 = mustQueue(t, ctl, e.inst, "llama-3b")
				var err error
				if e.embs, err = ctl.AllocEmbeds(e.inst, e.q1, 3); err != nil {
					t.Fatal(err)
				}
				if e.pages, err = ctl.AllocPages(e.inst, e.q1, 3); err != nil {
					t.Fatal(err)
				}
				pagesBefore, _ := ctl.PoolStats("llama-1b")
				embedsBefore, _ := ctl.EmbedPoolStats("llama-1b")
				if err := tc.run(e); !errors.Is(err, api.ErrBadHandle) {
					t.Fatalf("got %v, want ErrBadHandle", err)
				}
				if tc.after == nil {
					return
				}
				sync(e, e.q1)
				if p, _ := ctl.PoolStats("llama-1b"); p != pagesBefore {
					t.Fatalf("rejected call changed page occupancy: %d -> %d", pagesBefore, p)
				}
				if n, _ := ctl.EmbedPoolStats("llama-1b"); n != embedsBefore {
					t.Fatalf("rejected call changed embed occupancy: %d -> %d", embedsBefore, n)
				}
				if err := tc.after(e); err != nil {
					t.Fatalf("handles unusable after the rejected call: %v", err)
				}
			})
		})
	}
}

// TestDeallocThroughAnotherModelsQueue: dealloc validates liveness only, so
// a handle may be released through any of its instance's queues, even one
// bound to another model; the slot returns to the pool it came from.
func TestDeallocThroughAnotherModelsQueue(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		inst := ctl.RegisterInstance("t", nil, nil)
		defer ctl.ReleaseInstance(inst)
		q1, q3 := mustQueue(t, ctl, inst, "llama-1b"), mustQueue(t, ctl, inst, "llama-3b")
		pages, err := ctl.AllocPages(inst, q1, 2)
		if err != nil {
			t.Fatal(err)
		}
		embs, err := ctl.AllocEmbeds(inst, q1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.DeallocPages(inst, q3, pages); err != nil {
			t.Fatalf("DeallocPages via llama-3b queue: %v", err)
		}
		if err := ctl.DeallocEmbeds(inst, q3, embs); err != nil {
			t.Fatalf("DeallocEmbeds via llama-3b queue: %v", err)
		}
		s, _ := ctl.Synchronize(inst, q3)
		_ = sim.Await(s)
		if n, _ := ctl.PoolStats("llama-1b"); n != 0 {
			t.Fatalf("llama-1b pages in use = %d, want 0", n)
		}
		if n, _ := ctl.EmbedPoolStats("llama-1b"); n != 0 {
			t.Fatalf("llama-1b embeds in use = %d, want 0", n)
		}
	})
}

// TestCloseQueueReleasesWhatItOwns: closing a queue releases exactly the
// live handles allocated or imported through it — embeds, then pages, each
// in ascending handle order, so the pools' free lists come out the same on
// every run. A handle a sibling queue already freed is skipped; the other
// queues' handles and the export registry's references stay.
func TestCloseQueueReleasesWhatItOwns(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		m := ctl.models["llama-1b"]
		inst := ctl.RegisterInstance("t", nil, nil)
		defer ctl.ReleaseInstance(inst)
		q1, q2 := mustQueue(t, ctl, inst, "llama-1b"), mustQueue(t, ctl, inst, "llama-1b")
		q3 := mustQueue(t, ctl, inst, "llama-3b")
		var embs [2][]api.Embed
		var pages [2][]api.KvPage
		for range 2 { // interleave, so q1's handles are not contiguous
			for i, q := range []api.Queue{q1, q2} {
				e, err := ctl.AllocEmbeds(inst, q, 2)
				if err != nil {
					t.Fatal(err)
				}
				p, err := ctl.AllocPages(inst, q, 2)
				if err != nil {
					t.Fatal(err)
				}
				embs[i], pages[i] = append(embs[i], e...), append(pages[i], p...)
			}
		}
		// q2 frees one embed and one page of q1's; the registry and a
		// llama-3b queue's import share another of q1's pages.
		if err := ctl.DeallocEmbeds(inst, q2, embs[0][1:2]); err != nil {
			t.Fatal(err)
		}
		if err := ctl.DeallocPages(inst, q2, pages[0][2:3]); err != nil {
			t.Fatal(err)
		}
		if s, err := ctl.Synchronize(inst, q2); err != nil || sim.Await(s) != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := ctl.ExportPages(inst, "x", pages[0][:1]); err != nil {
			t.Fatal(err)
		}
		imported, err := ctl.ImportPages(inst, q3, "x")
		if err != nil {
			t.Fatal(err)
		}
		physE := func(h api.Embed) int32 { return inst.embeds.get(uint64(h)).phys }
		physP := func(h api.KvPage) int32 { return inst.pages.get(uint64(h)).phys }
		wantE := []int32{physE(embs[0][0]), physE(embs[0][2]), physE(embs[0][3])}
		wantP := []int32{physP(pages[0][1]), physP(pages[0][3])} // pages[0][0] keeps two references
		freeE, freeP := len(m.embeds.free), len(m.pages.free)

		if err := ctl.CloseQueue(inst, q1); err != nil {
			t.Fatal(err)
		}
		if got := m.embeds.free[freeE:]; !reflect.DeepEqual(got, wantE) {
			t.Fatalf("closing q1 freed embeds %v, want %v", got, wantE)
		}
		if got := m.pages.free[freeP:]; !reflect.DeepEqual(got, wantP) {
			t.Fatalf("closing q1 freed pages %v, want %v", got, wantP)
		}
		for _, h := range embs[0] {
			if inst.embeds.get(uint64(h)) != nil {
				t.Fatalf("q1's embed %d outlived its queue", h)
			}
		}
		for _, h := range pages[0] {
			if inst.pages.get(uint64(h)) != nil {
				t.Fatalf("q1's page %d outlived its queue", h)
			}
		}
		if inst.embeds.live != 4 || inst.pages.live != 5 {
			t.Fatalf("%d embeds and %d pages live, want q2's 4 and 4 plus q3's import", inst.embeds.live, inst.pages.live)
		}
		if err := ctl.CloseQueue(inst, q1); !errors.Is(err, api.ErrQueueClosed) {
			t.Fatalf("second close = %v, want ErrQueueClosed", err)
		}

		// The import dies with q3; the registry's reference stays.
		if err := ctl.CloseQueue(inst, q3); err != nil {
			t.Fatal(err)
		}
		if inst.pages.get(uint64(imported[0])) != nil {
			t.Fatal("q3's import outlived its queue")
		}
		if n, _ := ctl.PoolStats("llama-1b"); n != len(pages[1])+1 {
			t.Fatalf("%d pages in use, want q2's %d and the export's", n, len(pages[1]))
		}
		if err := ctl.ReleaseExport(inst, "x"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHandoffKeepsQueueOwnership: a handed-off session's queues own the same
// handles on the destination, so closing a moved queue there releases
// its pages and slots and leaves the other queue's.
func TestHandoffKeepsQueueOwnership(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		dst := newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{})
		inst := ctl.RegisterInstance("t", nil, nil)
		q1, q2 := mustQueue(t, ctl, inst, "llama-1b"), mustQueue(t, ctl, inst, "llama-1b")
		for _, q := range []api.Queue{q1, q2, q1} {
			if _, err := ctl.AllocPages(inst, q, 2); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ctl.AllocEmbeds(inst, q1, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ctl.HandoffSession(inst, dst); err != nil {
			t.Fatal(err)
		}
		defer dst.ReleaseInstance(inst)
		if err := dst.CloseQueue(inst, q1); err != nil {
			t.Fatal(err)
		}
		pages, _ := dst.PoolStats("llama-1b")
		embeds, _ := dst.EmbedPoolStats("llama-1b")
		if pages != 2 || embeds != 0 || inst.pages.live != 2 {
			t.Fatalf("after closing the moved q1: %d pages (%d handles) and %d embeds in use, want q2's 2 and 0", pages, inst.pages.live, embeds)
		}
	})
}

// TestReleaseInstanceDeterministic: aborting an instance that holds pages
// and embeds across two queues, with calls pending on both, must leave the
// same free lists (hence hand out the same physical ids next) and wake the
// failed calls' waiters in the same order on every run. Release used to
// walk Go maps, so all three differed from run to run.
func TestReleaseInstanceDeterministic(t *testing.T) {
	type outcome struct {
		PageFree, EmbedFree   []int32
		NextPages, NextEmbeds []int32
		Wake                  []string
	}
	run := func() outcome {
		var out outcome
		runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
			inst := ctl.RegisterInstance("victim", nil, nil)
			qs := []api.Queue{mustQueue(t, ctl, inst, "llama-1b"), mustQueue(t, ctl, inst, "llama-1b")}
			var pages [2][]api.KvPage
			var embs [2][]api.Embed
			for round := 0; round < 8; round++ { // interleave, so neither queue's handles are contiguous
				for i, q := range qs {
					p, err := ctl.AllocPages(inst, q, 5)
					if err != nil {
						t.Fatal(err)
					}
					e, err := ctl.AllocEmbeds(inst, q, 5)
					if err != nil {
						t.Fatal(err)
					}
					pages[i], embs[i] = append(pages[i], p...), append(embs[i], e...)
				}
			}
			wait := func(name string, get func() error) {
				clock.Go(name, func() {
					_ = get()
					out.Wake = append(out.Wake, name)
				})
			}
			for i, q := range qs {
				sig, err := ctl.EmbedText(inst, q, []int{5, 6}, []int{0, 1}, embs[i][:2])
				if err != nil {
					t.Fatal(err)
				}
				wait(fmt.Sprintf("q%d embed", i), func() error { return sim.Await(sig) })
				fwd, err := ctl.Forward(inst, q, api.ForwardArgs{
					InputKv: pages[i][:20], InputEmb: embs[i][:2], OutputKv: pages[i][20:21], OutputEmb: embs[i][2:3]})
				if err != nil {
					t.Fatal(err)
				}
				wait(fmt.Sprintf("q%d forward", i), func() error { return sim.Await(fwd) })
				dist, err := ctl.NextDist(inst, q, embs[i][2])
				if err != nil {
					t.Fatal(err)
				}
				wait(fmt.Sprintf("q%d dist", i), func() error { _, err := dist.Get(); return err })
				// A queued dealloc: its handles are already dead, its
				// physical free runs at teardown.
				if err := ctl.DeallocPages(inst, q, pages[i][30:34]); err != nil {
					t.Fatal(err)
				}
				if err := ctl.DeallocEmbeds(inst, q, embs[i][10:13]); err != nil {
					t.Fatal(err)
				}
				detok, err := ctl.Detokenize(inst, q, []int{5, 6})
				if err != nil {
					t.Fatal(err)
				}
				wait(fmt.Sprintf("q%d detokenize", i), func() error { _, err := detok.Get(); return err })
				bar, err := ctl.Synchronize(inst, q)
				if err != nil {
					t.Fatal(err)
				}
				wait(fmt.Sprintf("q%d sync", i), func() error { return sim.Await(bar) })
			}
			clock.Yield() // the waiters park; nothing has dispatched (the kick is 20µs out)
			if !ctl.AbortInstance(inst, api.ErrAborted) {
				t.Fatal("abort was a no-op")
			}
			clock.Sleep(time.Millisecond)
			m := ctl.models["llama-1b"]
			for id := range m.pages.meta {
				if m.pages.meta[id].pins != 0 {
					t.Fatalf("page %d still pinned after the abort", id)
				}
			}
			if n := m.pages.inUse() + m.embeds.inUse(); n != 0 {
				t.Fatalf("%d pages+embeds still allocated after the abort", n)
			}
			out.PageFree = append([]int32(nil), m.pages.free...)
			out.EmbedFree = append([]int32(nil), m.embeds.free...)
			next := ctl.RegisterInstance("next", nil, nil)
			nq := mustQueue(t, ctl, next, "llama-1b")
			np, _ := ctl.AllocPages(next, nq, 12)
			ne, _ := ctl.AllocEmbeds(next, nq, 12)
			for _, h := range np {
				out.NextPages = append(out.NextPages, next.pages.get(uint64(h)).phys)
			}
			for _, h := range ne {
				out.NextEmbeds = append(out.NextEmbeds, next.embeds.get(uint64(h)).phys)
			}
			ctl.ReleaseInstance(next)
		})
		return out
	}
	first := run()
	if len(first.PageFree) != 80 || len(first.EmbedFree) != 80 {
		t.Fatalf("free lists hold %d pages and %d embeds, want 80 each", len(first.PageFree), len(first.EmbedFree))
	}
	if len(first.Wake) != 10 {
		t.Fatalf("%d of 10 waiters woke: %v", len(first.Wake), first.Wake)
	}
	for i := 1; i < 20; i++ {
		if again := run(); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs from run 0:\n%+v\n%+v", i, first, again)
		}
	}
	// Queues close in ascending id, each FIFO.
	want := []string{"q0 embed", "q0 forward", "q0 dist", "q0 detokenize", "q0 sync",
		"q1 embed", "q1 forward", "q1 dist", "q1 detokenize", "q1 sync"}
	if !reflect.DeepEqual(first.Wake, want) {
		t.Fatalf("wake order %v, want %v", first.Wake, want)
	}
}

// TestKilledForwardHoldsItsPagesUntilItLands: an instance is killed with a
// forward in flight and the next instance allocates right away. The dead
// forward's pages stay held until its kernel lands, so the next instance
// gets other pages and its prefill fills them with its own tokens. (When a
// killed instance's pages were recycled at once, the next instance got
// them, the dead kernel then wrote into them, and the prefill found its
// output pages short of free slots.)
func TestKilledForwardHoldsItsPagesUntilItLands(t *testing.T) {
	runCtl(t, infer.ExecTiming, 4, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		m := ctl.models["llama-1b"]
		ps := m.rt.Info.PageSize
		prefill := func(name string, tokens int) (*cmdQueue, []int32, *sim.Signal) {
			inst := ctl.RegisterInstance(name, nil, nil)
			qid := mustQueue(t, ctl, inst, "llama-1b")
			pages, err := ctl.AllocPages(inst, qid, 2)
			if err != nil {
				t.Fatal(err)
			}
			embs, err := ctl.AllocEmbeds(inst, qid, tokens)
			if err != nil {
				t.Fatal(err)
			}
			ids, pos := make([]int, tokens), make([]int, tokens)
			for i := range pos {
				ids[i], pos[i] = 5, i
			}
			if _, err := ctl.EmbedText(inst, qid, ids, pos, embs); err != nil {
				t.Fatal(err)
			}
			done, err := ctl.Forward(inst, qid, api.ForwardArgs{InputEmb: embs, OutputKv: pages})
			if err != nil {
				t.Fatal(err)
			}
			q, _ := ctl.queue(inst, qid)
			return q, []int32{inst.pages.get(uint64(pages[0])).phys, inst.pages.get(uint64(pages[1])).phys}, done
		}
		qa, physA, _ := prefill("a", ps+1)
		for qa.inflight == 0 || qa.queued() > 0 { // until the forward itself is on the device
			clock.Sleep(5 * time.Microsecond)
		}
		ctl.ReleaseInstance(qa.inst)
		_, physB, doneB := prefill("b", 2*ps)
		if slices.Contains(physB, physA[0]) || slices.Contains(physB, physA[1]) {
			t.Fatalf("b got pages %v while a's in-flight forward still addresses %v", physB, physA)
		}
		if err := sim.Await(doneB); err != nil {
			t.Fatalf("b's prefill: %v", err)
		}
		for _, id := range physB {
			for s, used := range m.rt.Page(id).Used {
				if !used || m.rt.Page(id).Pos[s] >= 2*ps {
					t.Fatalf("page %d slot %d: used %v at position %d; b's prefill should fill it", id, s, used, m.rt.Page(id).Pos[s])
				}
			}
		}
		if inUse, _ := ctl.PoolStats("llama-1b"); inUse != 2 || !slices.Contains(m.pages.free, physA[0]) || !slices.Contains(m.pages.free, physA[1]) {
			t.Fatalf("after a's forward landed: %d pages in use, free list %v; want b's 2, a's %v free", inUse, m.pages.free, physA)
		}
	})
}

// TestQueueBacklogReusesItsArray: the pending FIFO restarts at the front of
// its backing array when it drains and compacts instead of growing while
// its head has moved, so a decode loop's enqueue never reallocates it.
func TestQueueBacklogReusesItsArray(t *testing.T) {
	q := &cmdQueue{}
	calls := make([]*call, 64)
	for i := range calls {
		calls[i] = &call{}
		calls[i].Seq = uint64(i)
	}
	next, want := 0, uint64(0)
	push := func() { q.push(calls[next%64]); calls[next%64].Seq = uint64(next); next++ }
	pop := func() {
		if got := q.pop().Seq; got != want {
			t.Fatalf("popped seq %d, want %d", got, want)
		}
		want++
	}
	for i := 0; i < 4; i++ {
		push()
	}
	grown := cap(q.pending)
	for i := 0; i < 1000; i++ { // never empty, never more than 4 deep
		pop()
		push()
	}
	if cap(q.pending) != grown {
		t.Fatalf("backing array grew from %d to %d under a steady backlog of 4", grown, cap(q.pending))
	}
	for q.queued() > 0 {
		pop()
	}
	if q.first != 0 || len(q.pending) != 0 || q.head() != nil {
		t.Fatalf("drained queue did not reset: first=%d len=%d", q.first, len(q.pending))
	}
}

// visibleScan recounts what KvPage.Visible maintains.
func visibleScan(p *model.KvPage) int {
	n := 0
	for s, u := range p.Used {
		if u && !p.Masked[s] {
			n++
		}
	}
	return n
}

// TestVisibleCountMatchesScan: after any mix of forwards, masks, copies,
// page recycling and session handoffs, in both execution modes, every
// physical page's maintained Visible count equals a scan of its
// Used/Masked bits — on both replicas.
func TestVisibleCountMatchesScan(t *testing.T) {
	for _, mode := range []infer.ExecMode{infer.ExecTiming, infer.ExecFull} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("mode%d/seed%d", mode, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				clock := sim.NewClock()
				ctls := []*Controller{
					newTestController(clock, "gpu0", mode, 0, OffloadConfig{}),
					newTestController(clock, "gpu1", mode, 0, OffloadConfig{}),
				}
				check := func(step int, op string) {
					for r, ctl := range ctls {
						m := ctl.models["llama-1b"]
						for id := int32(0); id < m.pages.next; id++ {
							if p := m.rt.Page(id); p.Visible != visibleScan(p) {
								t.Fatalf("step %d (%s): replica %d page %d Visible = %d, scan = %d",
									step, op, r, id, p.Visible, visibleScan(p))
							}
						}
					}
				}
				clock.Go("test", func() {
					at := 0 // the replica the session lives on
					ctl := ctls[at]
					inst := ctl.RegisterInstance("s", nil, nil)
					qid := mustQueue(t, ctl, inst, "llama-1b")
					var pages []api.KvPage
					grow := func() {
						p, err := ctl.AllocPages(inst, qid, 2)
						if err != nil {
							t.Fatal(err)
						}
						pages = append(pages, p...)
					}
					grow()
					pos := 0
					await := func(s *sim.Signal, err error) {
						if err != nil {
							t.Fatal(err)
						}
						if err := sim.Await(s); err != nil {
							t.Fatal(err)
						}
					}
					for step := 0; step < 120; step++ {
						op := ""
						switch k := rng.Intn(10); {
						case k < 4:
							op = "forward"
							n := 1 + rng.Intn(5)
							embs, err := ctl.AllocEmbeds(inst, qid, n)
							if err != nil {
								t.Fatal(err)
							}
							toks, positions := make([]int, n), make([]int, n)
							for i := range toks {
								toks[i], positions[i] = 5+rng.Intn(50), pos+i
							}
							pos += n
							await(ctl.EmbedText(inst, qid, toks, positions, embs))
							out := pages[len(pages)-2:]
							if _, err := ctl.Forward(inst, qid, api.ForwardArgs{InputKv: pages, InputEmb: embs, OutputKv: out}); err != nil {
								t.Fatal(err)
							}
							if err := ctl.DeallocEmbeds(inst, qid, embs); err != nil {
								t.Fatal(err)
							}
							await(ctl.Synchronize(inst, qid))
							if ps := ctl.models["llama-1b"].rt.Info.PageSize; pos > (len(pages)-1)*ps-8 {
								grow() // keep room for the next forwards
							}
						case k < 6:
							op = "mask"
							bits := make([]bool, 16)
							for i := range bits {
								bits[i] = rng.Intn(3) == 0
							}
							await(ctl.MaskKv(inst, qid, pages[rng.Intn(len(pages))], bits))
						case k < 8:
							op = "copy"
							src, dst := pages[rng.Intn(len(pages))], pages[rng.Intn(len(pages))]
							off, n := rng.Intn(8), 1+rng.Intn(8)
							await(ctl.CopyKv(inst, qid, src, dst, off, rng.Intn(8), n))
						case k < 9:
							op = "recycle" // free a page; the next alloc resets and reuses it
							if len(pages) > 3 {
								i := rng.Intn(len(pages) - 2)
								if err := ctl.DeallocPages(inst, qid, pages[i:i+1]); err != nil {
									t.Fatal(err)
								}
								pages = append(pages[:i], pages[i+1:]...)
								await(ctl.Synchronize(inst, qid))
								p, err := ctl.AllocPages(inst, qid, 1)
								if err != nil {
									t.Fatal(err)
								}
								pages = append(pages[:len(pages)-2], append(p, pages[len(pages)-2:]...)...)
							}
						default:
							op = "handoff"
							if _, _, err := ctl.HandoffSession(inst, ctls[1-at]); err != nil {
								t.Fatal(err)
							}
							at = 1 - at
							ctl = ctls[at]
						}
						check(step, op)
					}
					ctl.ReleaseInstance(inst)
				})
				if err := clock.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCallRecordsRecycle: a call's record goes back to the controller once
// the call completed, was refused or failed with its queue — exactly once,
// blank but for its backing arrays — and a decode loop keeps reusing the
// same few records instead of allocating one per call.
func TestCallRecordsRecycle(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		checkFree := func(when string) {
			t.Helper()
			seen := map[*call]bool{}
			for _, c := range ctl.freeCalls {
				if seen[c] {
					t.Fatalf("%s: record %p is on the free list twice", when, c)
				}
				seen[c] = true
				if !reflect.DeepEqual(c.Call, infer.Call{}) || c.q != nil || c.sync != nil || c.freeKv ||
					len(c.pins)+len(c.free)+len(c.pageBuf)+len(c.embBuf)+len(c.intBuf) != 0 {
					t.Fatalf("%s: recycled record not blank: %+v", when, c)
				}
			}
		}
		inst := ctl.RegisterInstance("a", nil, nil)
		qid := mustQueue(t, ctl, inst, "llama-1b")
		pages, _ := ctl.AllocPages(inst, qid, 4)
		embs, err := ctl.AllocEmbeds(inst, qid, 2)
		if err != nil {
			t.Fatal(err)
		}
		step := func(pos int) *sim.Future[api.Dist] {
			t.Helper()
			if _, err := ctl.EmbedText(inst, qid, []int{5}, []int{pos}, embs[:1]); err != nil {
				t.Fatal(err)
			}
			if _, err := ctl.Forward(inst, qid, api.ForwardArgs{InputKv: pages, InputEmb: embs[:1], OutputKv: pages[3:], OutputEmb: embs[1:]}); err != nil {
				t.Fatal(err)
			}
			f, err := ctl.NextDist(inst, qid, embs[1])
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		for pos := 0; pos < 50; pos++ {
			if _, err := step(pos).Get(); err != nil {
				t.Fatal(err)
			}
		}
		checkFree("after 50 decode steps")
		if n := len(ctl.freeCalls); n == 0 || n > 3 {
			t.Fatalf("150 sequential calls left %d records on the free list, want 1..3 (reuse)", n)
		}

		// A refused call takes no sequence number and gives its record back.
		seq, free := ctl.callSeq, len(ctl.freeCalls)
		if _, err := ctl.Forward(inst, qid, api.ForwardArgs{InputKv: []api.KvPage{pages[0], 9999}}); !errors.Is(err, api.ErrBadHandle) {
			t.Fatalf("forward over a bad handle: %v, want ErrBadHandle", err)
		}
		if ctl.callSeq != seq || len(ctl.freeCalls) != free {
			t.Fatalf("refused forward: callSeq %d -> %d, free records %d -> %d", seq, ctl.callSeq, free, len(ctl.freeCalls))
		}
		checkFree("after a refused forward")

		// Calls still queued when their instance is released fail, and
		// their records come back too; the one already on the device
		// comes back when its batch does.
		var last *sim.Future[api.Dist]
		for pos := 50; pos < 54; pos++ {
			last = step(pos)
		}
		ctl.ReleaseInstance(inst)
		if _, err := last.Get(); !errors.Is(err, api.ErrTerminated) {
			t.Fatalf("queued get_next_dist after release: %v, want ErrTerminated", err)
		}
		clock.Sleep(time.Second)
		checkFree("after release")
		if m := ctl.models["llama-1b"]; m.pages.inUse() != 0 || m.embeds.inUse() != 0 {
			t.Fatalf("release left %d pages, %d embeds in use", m.pages.inUse(), m.embeds.inUse())
		}
	})
}

// TestBetterBucketOrder pins the dispatch order among ready buckets: light
// ops before forwards, then the older head, then — at equal ages — embeds
// after every other light op, then creation order.
func TestBetterBucketOrder(t *testing.T) {
	bucket := func(op infer.Op, seq uint64) *readyBucket {
		return &readyBucket{key: bucketKey{op: op}, seq: seq}
	}
	embed, forward := bucket(infer.OpEmbedText, 1), bucket(infer.OpForward, 2)
	dist, detok := bucket(infer.OpNextDist, 3), bucket(infer.OpDetokenize, 4)
	const early, late = 10 * time.Microsecond, 20 * time.Microsecond
	for _, tc := range []struct {
		name            string
		first, second   *readyBucket
		firstT, secondT time.Duration
	}{
		{"a light op beats an older forward", dist, forward, late, early},
		{"the older head wins among light ops", embed, detok, early, late},
		{"the older head wins among light ops, whatever their creation order", detok, dist, early, late},
		{"at equal ages an embed yields to a detokenize created after it", detok, embed, early, early},
		{"at equal ages an embed yields to a get_next_dist", dist, embed, early, early},
		{"at equal ages other light ops keep creation order", dist, detok, early, early},
	} {
		if !betterBucket(tc.first, tc.firstT, tc.second, tc.secondT) || betterBucket(tc.second, tc.secondT, tc.first, tc.firstT) {
			t.Errorf("%s: not so", tc.name)
		}
	}
}

// TestEmbedYieldsSoFollowUpsJoinItsBatch is what the embed rule buys. Two
// sessions wake at one instant: one issues its decode step's embed, the
// other detokenizes and, given the text, embeds. With the detokenize first
// the second session's embed rides in the first one's batch: two batches,
// not three.
func TestEmbedYieldsSoFollowUpsJoinItsBatch(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		type session struct {
			inst *Instance
			q    api.Queue
			emb  []api.Embed
		}
		open := func(name string) session {
			inst := ctl.RegisterInstance(name, nil, nil)
			q := mustQueue(t, ctl, inst, "llama-1b")
			emb, err := ctl.AllocEmbeds(inst, q, 1)
			if err != nil {
				t.Fatal(err)
			}
			return session{inst, q, emb}
		}
		embed := func(s session) *sim.Signal {
			done, err := ctl.EmbedText(s.inst, s.q, []int{7}, []int{0}, s.emb)
			if err != nil {
				t.Fatal(err)
			}
			return done
		}
		a, b := open("decoder"), open("finisher")
		_ = sim.Await(embed(a)) // the embed bucket exists first, as in any served run
		before := ctl.sched.Batches

		first := embed(a)
		text, err := ctl.Detokenize(b.inst, b.q, []int{7, 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := text.Get(); err != nil {
			t.Fatal(err)
		}
		if first.Done() {
			t.Fatal("the embed was dispatched before the detokenize enqueued at the same instant")
		}
		second := embed(b)
		_, _ = sim.Await(first), sim.Await(second)
		if got := ctl.sched.Batches - before; got != 2 {
			t.Fatalf("%d batches, want 2: the detokenize, then both embeds together", got)
		}
	})
}

// TestTokenizeDoesNotWaitForTheDevice: tokenize runs on the host when it is
// called. While one instance's 2 048-token prefill holds the device, another
// instance's tokenize resolves after its own price, with the prefill still
// running, and counts as one inference call.
func TestTokenizeDoesNotWaitForTheDevice(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		fill := openEmbedSession(t, ctl, "prefill", 2048)
		prefill := fill.forward(t, ctl, len(fill.embs))
		clock.Sleep(time.Millisecond)
		if prefill.Done() {
			t.Fatal("the prefill finished within 1 ms: nothing holds the device")
		}

		inst := ctl.RegisterInstance("chat", nil, nil)
		q := mustQueue(t, ctl, inst, "llama-1b")
		const text = "You are a helpful assistant. Answer the question below."
		start, calls := clock.Now(), inst.InferCalls
		fut, err := ctl.Tokenize(inst, q, text)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := fut.Get()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := clock.Now()-start, infer.TokenizerCost(1, len(text)); got != want {
			t.Errorf("tokenize took %v, want its price %v", got, want)
		}
		if prefill.Done() {
			t.Error("tokenize resolved only after the prefill finished")
		}
		if want := ctl.ModelRuntime("llama-1b").Model.Tokenizer().Encode(text); !reflect.DeepEqual(ids, want) {
			t.Errorf("tokenize = %v, want %v", ids, want)
		}
		if got := inst.InferCalls - calls; got != 1 {
			t.Errorf("tokenize counted %d inference calls, want 1", got)
		}
		if err := sim.Await(prefill); err != nil {
			t.Fatal(err)
		}
	})
}

// Unit tests for moving state between replicas: the session handoff (the
// instance moves, or nothing does), the drain's export migration, the
// quiescence predicate the handoff gate relies on, the distinct-physical-page
// wire time the handoff target is scored with, and the spans a controller
// emits at its boundary with the inference layer (the Prefilled point marks
// sessions for handoff).
package core

import (
	"errors"
	"testing"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
	"pie/internal/trace"
)

// TestInstanceKVFootprintDedupes: import sharing maps several virtual
// handles onto one physical page, so the footprint's wire time counts
// physical pages, not handles, and a page already in the host tier crosses
// once, not twice. HandoffSession then charges exactly the footprint.
func TestInstanceKVFootprintDedupes(t *testing.T) {
	for _, offloaded := range []int{0, 1} {
		runCtl(t, infer.ExecTiming, 0, OffloadConfig{HostRatio: 1}, func(clock *sim.Clock, ctl *Controller) {
			dst := checkedAtEnd(t, newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{}))
			inst := ctl.RegisterInstance("t", nil, nil)
			q := mustQueue(t, ctl, inst, "llama-1b")
			pages, err := ctl.AllocPages(inst, q, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctl.ExportPages(inst, "shared", pages); err != nil {
				t.Fatal(err)
			}
			if _, err := ctl.ImportPages(inst, q, "shared"); err != nil {
				t.Fatal(err)
			}
			m := ctl.models["llama-1b"]
			for _, h := range pages[:offloaded] {
				m.pages.offload([]int32{inst.pages.get(uint64(h)).phys})
			}
			wire := ctl.InstanceKVFootprint(inst)
			// Two distinct pages under four handles: a device-resident one
			// crosses twice (device -> host -> peer device), an offloaded one
			// once (host -> peer device).
			crossings := 2*2 - offloaded
			if want := time.Duration(crossings) * m.rt.Spec.SwapCost(1, m.rt.Info.PageSize); wire != want {
				t.Fatalf("%d offloaded: footprint wire = %v, want %d crossings = %v", offloaded, wire, crossings, want)
			}
			moved, cost, err := ctl.HandoffSession(inst, dst)
			if err != nil {
				t.Fatal(err)
			}
			if moved != 2 || cost != wire {
				t.Fatalf("%d offloaded: HandoffSession moved %d pages at %v, the footprint predicted 2 at %v", offloaded, moved, cost, wire)
			}
			dst.ReleaseInstance(inst)
			ctl.DropExports()
		})
	}
	if wire := (&Controller{}).InstanceKVFootprint(&Instance{}); wire != 0 {
		t.Fatalf("empty instance footprint wire = %v", wire)
	}
}

// TestHandoffMovesTheInstance: a handoff moves the instance itself. It takes
// the destination's next id and keeps its handles, queue ids and owners,
// counters, class, limits and first-token mark; the source forgets it, and
// every source page and slot returns to its pool.
func TestHandoffMovesTheInstance(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		dst := checkedAtEnd(t, newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{}))
		defer dst.ReleaseInstance(dst.RegisterInstance("resident", nil, nil)) // dst's ids run ahead
		inst := ctl.RegisterInstance("t", nil, nil)
		inst.MaxQueues, inst.MaxKvPages, inst.DefaultPriority = 4, 64, 3
		inst.Class, inst.Degraded = "interactive", true
		q1, q3 := mustQueue(t, ctl, inst, "llama-1b"), mustQueue(t, ctl, inst, "llama-3b")
		pages, err := ctl.AllocPages(inst, q1, nil, 13)
		if err != nil {
			t.Fatal(err)
		}
		embs, err := ctl.AllocEmbeds(inst, q3, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() { ctl.InstanceKVFootprint(inst) }); allocs != 0 {
			t.Fatalf("InstanceKVFootprint of a 13-page session made %v allocations, want 0", allocs)
		}
		inst.ReportOutputTokens(5)
		inst.prefilled, inst.HandoffPending = true, true
		held := errors.New("an embed failed on q3") // waiting for q3's next synchronize
		inst.queues[1].err = held
		srcID, counters := inst.ID, [3]int{inst.ControlCalls, inst.InferCalls, inst.OutputTokens}

		if _, _, err := ctl.HandoffSession(inst, dst); err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(ctl.Check(), dst.Check()); inst.ID != 2 || dst.instances[2] != inst || ctl.instances[srcID] != nil || ctl.Instances() != 0 || err != nil {
			t.Fatalf("instance %d (was %d): dst lists %p, src still lists %p; want dst's next id 2 and the instance there only: %v",
				inst.ID, srcID, dst.instances[2], ctl.instances[srcID], err)
		}
		if inst.Dead() || inst.HandoffPending || !inst.prefilled {
			t.Fatalf("dead %v, HandoffPending %v, prefilled %v; want false, false, true", inst.Dead(), inst.HandoffPending, inst.prefilled)
		}
		if got := [3]int{inst.ControlCalls, inst.InferCalls, inst.OutputTokens}; got != counters ||
			inst.Class != "interactive" || !inst.Degraded || inst.MaxQueues != 4 || inst.MaxKvPages != 64 || inst.DefaultPriority != 3 {
			t.Fatalf("the move changed the instance's settings or counters: %+v", inst)
		}
		for _, h := range pages {
			if ref := inst.pages.get(uint64(h)); ref == nil || ref.m != dst.models["llama-1b"] || ref.q != q1 {
				t.Fatalf("page %d = %+v, want it on dst's llama-1b, owned by queue %d", h, ref, q1)
			}
		}
		for _, h := range embs {
			if ref := inst.embeds.get(uint64(h)); ref == nil || ref.m != dst.models["llama-3b"] || ref.q != q3 {
				t.Fatalf("embed %d = %+v, want it on dst's llama-3b, owned by queue %d", h, ref, q3)
			}
		}
		for i, q := range inst.queues {
			if want := []api.Queue{q1, q3}[i]; q.id != want || q.inst != inst || q.m != dst.models[q.m.name] || q.priority != 3 {
				t.Fatalf("queue %d = %+v, want id %d on dst at priority 3", i, q, want)
			}
			if want := []error{nil, held}[i]; q.err != want {
				t.Fatalf("queue %d holds error %v after the move, want %v", i, q.err, want)
			}
		}
		// The moved queues keep serving on dst, and dst numbers new ones past them.
		if _, err := dst.AllocPages(inst, q1, nil, 1); err != nil {
			t.Fatal(err)
		}
		if q := mustQueue(t, dst, inst, "llama-1b"); q <= q3 {
			t.Fatalf("dst opened queue %d, reusing a moved id (<= %d)", q, q3)
		}
		dst.ReleaseInstance(inst)
	})
}

// TestHandoffRefusedMovesNothing: a destination that lacks one of the
// session's models, or cannot host all of its pages, refuses the handoff
// typed; both replicas' pools and the instance stay as they were.
func TestHandoffRefusedMovesNothing(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		small := checkedAtEnd(t, newTestController(clock, "gpu1", infer.ExecTiming, 2, OffloadConfig{}))
		rt := infer.NewModelRuntime(model.StandardCatalog(42).Models["llama-1b"], infer.ExecTiming)
		only1b := checkedAtEnd(t, NewController(clock, infer.NewBackend(clock, "gpu2"), []*infer.ModelRuntime{rt}, DefaultSchedConfig(), OffloadConfig{}, ArtifactConfig{}))
		inst := ctl.RegisterInstance("t", nil, nil)
		q1, q3 := mustQueue(t, ctl, inst, "llama-1b"), mustQueue(t, ctl, inst, "llama-3b")
		if _, err := ctl.AllocPages(inst, q1, nil, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.AllocEmbeds(inst, q1, nil, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.AllocPages(inst, q3, nil, 4); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			dst  *Controller
			want error
		}{{only1b, api.ErrNoSuchModel}, {small, api.ErrOutOfResources}} {
			if _, _, err := ctl.HandoffSession(inst, tc.dst); !errors.Is(err, tc.want) {
				t.Fatalf("handoff = %v, want %v", err, tc.want)
			}
			// Check: dst holds no grant, and the source's 5 pages and 1 embed
			// each have their handle.
			if err := errors.Join(ctl.Check(), tc.dst.Check()); inst.ID != 1 || ctl.instances[1] != inst || tc.dst.Instances() != 0 ||
				inst.pages.live != 5 || inst.embeds.live != 1 || err != nil {
				t.Fatalf("refused handoff moved instance %d, or left %d page and %d embed handles: %v", inst.ID, inst.pages.live, inst.embeds.live, err)
			}
		}
		ctl.ReleaseInstance(inst)
	})
}

// TestMigrateExportNamingAPageTwice: an export may name one page twice. A
// drain copies that page once and the destination registry holds both
// references, so dropping the export there frees it.
func TestMigrateExportNamingAPageTwice(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		dst := checkedAtEnd(t, newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{}))
		inst := ctl.RegisterInstance("t", nil, nil)
		q := mustQueue(t, ctl, inst, "llama-1b")
		pages, err := ctl.AllocPages(inst, q, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.ExportPages(inst, "x", []api.KvPage{pages[0], pages[0]}); err != nil {
			t.Fatal(err)
		}
		ctl.ReleaseInstance(inst)
		rt := ctl.ModelRuntime("llama-1b")
		if moved, cost := ctl.MigrateExportsTo(dst); moved != 1 || cost != 2*rt.Spec.SwapCost(1, rt.Info.PageSize) || dst.Check() != nil {
			t.Fatalf("migrated %d pages at %v, want 1 page at two crossings: %v", moved, cost, dst.Check())
		}
		if exports, refs := dst.DropExports(); exports != 1 || refs != 2 {
			t.Fatalf("DropExports = %d exports, %d refs; want 1, 2", exports, refs)
		}
	})
}

// TestMigrateSharesAPageAcrossExports: two exports name one page. The drain
// copies it with the first export and shares that copy with the second,
// although each export starts its own first-sight pass.
func TestMigrateSharesAPageAcrossExports(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		dst := checkedAtEnd(t, newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{}))
		inst := ctl.RegisterInstance("t", nil, nil)
		q := mustQueue(t, ctl, inst, "llama-1b")
		pages, err := ctl.AllocPages(inst, q, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.ExportPages(inst, "a", pages[:1]); err != nil {
			t.Fatal(err)
		}
		if err := ctl.ExportPages(inst, "b", pages); err != nil {
			t.Fatal(err)
		}
		ctl.ReleaseInstance(inst)
		if moved, _ := ctl.MigrateExportsTo(dst); moved != 2 || dst.Check() != nil {
			t.Fatalf("migrated %d pages, want 2: %v", moved, dst.Check())
		}
		if a, b := dst.exports["a"], dst.exports["b"]; a == nil || b == nil || a.phys[0] != b.phys[0] || b.phys[0] == b.phys[1] {
			t.Fatalf("exports on dst %+v and %+v: want a's page shared as b's first", a, b)
		}
		if exports, refs := dst.DropExports(); exports != 2 || refs != 3 {
			t.Fatalf("DropExports = %d exports, %d refs; want 2, 3", exports, refs)
		}
	})
}

// handoffSession registers a session on ctl that holds what a handoff
// moves: pages of one model, an imported export of four of them (each
// physical page then under two handles) and embeds of a second model.
func handoffSession(tb testing.TB, ctl *Controller) *Instance {
	tb.Helper()
	inst := ctl.RegisterInstance("t", nil, nil)
	q1, q3 := mustQueue(tb, ctl, inst, "llama-1b"), mustQueue(tb, ctl, inst, "llama-3b")
	pages, err := ctl.AllocPages(inst, q1, nil, 16)
	if err != nil {
		tb.Fatal(err)
	}
	if err := ctl.ExportPages(inst, "prefix", pages[:4]); err != nil {
		tb.Fatal(err)
	}
	if _, err := ctl.ImportPages(inst, q1, "prefix"); err != nil {
		tb.Fatal(err)
	}
	if _, err := ctl.AllocEmbeds(inst, q3, nil, 2); err != nil {
		tb.Fatal(err)
	}
	return inst
}

// TestHandoffAllocatesNothing: once both replicas have moved the session
// once, moving it back and forth allocates nothing: the page copy records
// its copies on the source pages, and the grants and ids live in the
// destination's scratch.
func TestHandoffAllocatesNothing(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		dst := checkedAtEnd(t, newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{}))
		inst := handoffSession(t, ctl)
		at, other := ctl, dst
		move := func() {
			moved, _, err := at.HandoffSession(inst, other)
			if err != nil || moved != 16 {
				t.Fatalf("handoff moved %d pages: %v; want 16", moved, err)
			}
			at, other = other, at
		}
		move()
		move()
		if allocs := testing.AllocsPerRun(100, move); allocs != 0 {
			t.Fatalf("a handoff made %v allocations, want 0", allocs)
		}
		at.ReleaseInstance(inst)
		ctl.DropExports()
	})
}

func TestInstanceQuiescent(t *testing.T) {
	ctl := &Controller{}
	inst := &Instance{}
	if !ctl.InstanceQuiescent(inst) {
		t.Fatal("instance with no queues reported busy")
	}
	q := &cmdQueue{inflight: 1}
	inst.queues = []*cmdQueue{q}
	if ctl.InstanceQuiescent(inst) {
		t.Fatal("in-flight call reported quiescent")
	}
	q.inflight = 0
	q.push(&call{})
	if ctl.InstanceQuiescent(inst) {
		t.Fatal("pending call reported quiescent")
	}
	q.pop()
	if !ctl.InstanceQuiescent(inst) {
		t.Fatal("drained queue reported busy")
	}
}

// spanLog is a test span sink: it keeps every span it is given.
type spanLog []trace.Span

func (l *spanLog) Span(s trace.Span) { *l = append(*l, s) }

// TestSetSpanSink: the installed sink is the one provided and gets the
// controller's spans stamped with its replica; nil emits nothing.
func TestSetSpanSink(t *testing.T) {
	ctl := &Controller{clock: sim.NewClock()}
	var got spanLog
	ctl.SetSpanSink(&got, 7)
	if ctl.spans != &got {
		t.Fatal("sink not installed")
	}
	inst := &Instance{ID: 3, Class: "c"}
	ctl.markPrefilled(inst)
	ctl.markPrefilled(inst)
	if want := (trace.Span{Kind: trace.Prefilled, Replica: 7, Instance: 3, Class: "c"}); len(got) != 1 || got[0] != want {
		t.Fatalf("spans %+v, want one %+v: the installed sink is not the one provided", got, want)
	}
	ctl.SetSpanSink(nil, 0)
	other := &Instance{ID: 4}
	if ctl.markPrefilled(other); other.prefilled || len(got) != 1 {
		t.Fatal("a controller with no sink emitted a span")
	}
}

// TestZeroPageExportStaysBehind: an export of no pages (alloc.Export(name,
// nil), or Context.Export on an empty context) belongs to no model. Every
// registry operation accepts it, and a replica drain leaves it on the
// source while the exports beside it move.
func TestZeroPageExportStaysBehind(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		dst := checkedAtEnd(t, newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{}))
		inst := ctl.RegisterInstance("t", nil, nil)
		defer ctl.ReleaseInstance(inst)
		q := mustQueue(t, ctl, inst, "llama-1b")
		pages, err := ctl.AllocPages(inst, q, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.ExportPages(inst, "empty", nil); err != nil {
			t.Fatalf("ExportPages(nil): %v", err)
		}
		if err := ctl.ExportPages(inst, "full", pages); err != nil {
			t.Fatal(err)
		}
		if got, err := ctl.ImportPages(inst, q, "empty"); err != nil || len(got) != 0 {
			t.Fatalf("ImportPages(empty) = %v, %v; want no pages", got, err)
		}
		if cost, ok := ctl.ExportFaultIn("empty"); !ok || cost != 0 {
			t.Fatalf("ExportFaultIn(empty) = %v, %v; want 0, true", cost, ok)
		}

		if moved, _ := ctl.MigrateExportsTo(dst); moved != len(pages) {
			t.Fatalf("migrated %d pages, want %d", moved, len(pages))
		}
		has := func(c *Controller, name string) bool { _, ok := c.exports[name]; return ok }
		if !has(dst, "full") || has(ctl, "full") {
			t.Fatal("the two-page export did not move")
		}
		if has(dst, "empty") || !has(ctl, "empty") {
			t.Fatal("the zero-page export did not stay on the source")
		}

		if err := ctl.ExportPages(inst, "empty2", []api.KvPage{}); err != nil {
			t.Fatal(err)
		}
		if err := ctl.ReleaseExport(inst, "empty2"); err != nil {
			t.Fatalf("ReleaseExport(empty2): %v", err)
		}
		if exports, refs := ctl.DropExports(); exports != 1 || refs != 0 {
			t.Fatalf("DropExports = %d exports, %d refs; want 1, 0", exports, refs)
		}
		dst.DropExports()
	})
}

// TestImportCountsAsFirstForward: the Prefilled span is emitted once per
// instance — at an import before its first completed forward (the exporter
// prefilled that KV), else at that forward, after its TTFT span — while
// the TTFT span still waits for the instance's first forward. Each batch
// that reaches the parser brings one Overhead span.
func TestImportCountsAsFirstForward(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		var spans spanLog
		ctl.SetSpanSink(&spans, 0)
		names := map[uint64]string{}
		count := func() (fired map[string]int, ttfts int) {
			fired = map[string]int{}
			for i, s := range spans {
				switch s.Kind {
				case trace.Prefilled:
					fired[names[s.Instance]]++
				case trace.TTFT:
					ttfts++
					next := trace.Span{}
					if i+1 < len(spans) {
						next = spans[i+1]
					}
					if fired[names[s.Instance]] == 0 && (next.Kind != trace.Prefilled || next.Instance != s.Instance) {
						t.Fatalf("the first TTFT of %s is not followed by its Prefilled span: %+v", names[s.Instance], spans)
					}
				case trace.Overhead:
					if s.Calls < 1 || s.End-s.Start < 2*infer.IPCCrossing+time.Duration(s.Calls)*infer.DeserPerCall {
						t.Fatalf("overhead span %+v is shorter than its own parse and both IPC hops", s)
					}
				}
			}
			return fired, ttfts
		}
		forward := func(inst *Instance, q api.Queue) []api.KvPage {
			pages, err := ctl.AllocPages(inst, q, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			embs, err := ctl.AllocEmbeds(inst, q, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctl.EmbedText(inst, q, []int{5}, []int{0}, embs); err != nil {
				t.Fatal(err)
			}
			done, err := issued(ctl, ctl.Forward(inst, q, api.ForwardArgs{InputKv: pages, InputEmb: embs, OutputKv: pages}))
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Await(done); err != nil {
				t.Fatal(err)
			}
			return pages
		}
		exporter := ctl.RegisterInstance("exporter", nil, nil)
		defer ctl.ReleaseInstance(exporter)
		names[exporter.ID] = "exporter"
		eq := mustQueue(t, ctl, exporter, "llama-1b")
		pages := forward(exporter, eq)
		if err := ctl.ExportPages(exporter, "prefix", pages); err != nil {
			t.Fatal(err)
		}
		// The exporter imports after its first forward: nothing more fires.
		if _, err := ctl.ImportPages(exporter, eq, "prefix"); err != nil {
			t.Fatal(err)
		}
		importer := ctl.RegisterInstance("importer", nil, nil)
		defer ctl.ReleaseInstance(importer)
		names[importer.ID] = "importer"
		iq := mustQueue(t, ctl, importer, "llama-1b")
		for range 2 {
			if _, err := ctl.ImportPages(importer, iq, "prefix"); err != nil {
				t.Fatal(err)
			}
		}
		fired, ttfts := count()
		if fired["importer"] != 1 || ttfts != 1 {
			t.Fatalf("after two imports the observer fired %d times for the importer and %d TTFTs were sampled, want 1 and 1 (the exporter's)", fired["importer"], ttfts)
		}
		forward(importer, iq)
		if fired, ttfts = count(); fired["exporter"] != 1 || fired["importer"] != 1 || ttfts != 2 {
			t.Fatalf("observer fired %v, %d TTFTs sampled: want once per instance and one TTFT each", fired, ttfts)
		}
		if exports, _ := ctl.DropExports(); exports != 1 {
			t.Fatalf("DropExports = %d, want the prefix", exports)
		}
	})
}

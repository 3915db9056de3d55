// Unit tests for moving state between replicas: the session handoff (the
// instance moves, or nothing does), the drain's export migration, the
// quiescence predicate the handoff gate relies on, the distinct-physical-page
// wire time the handoff target is scored with, and the first-token observer
// that marks sessions for handoff.
package core

import (
	"errors"
	"testing"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
)

// TestInstanceKVFootprintDedupes: import sharing maps several virtual
// handles onto one physical page, so the footprint's wire time counts
// physical pages, not handles, and a page already in the host tier crosses
// once, not twice. HandoffSession then charges exactly the footprint.
func TestInstanceKVFootprintDedupes(t *testing.T) {
	for _, offloaded := range []int{0, 1} {
		runCtl(t, infer.ExecTiming, 0, OffloadConfig{HostRatio: 1}, func(clock *sim.Clock, ctl *Controller) {
			dst := newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{})
			inst := ctl.RegisterInstance("t", nil, nil)
			q := mustQueue(t, ctl, inst, "llama-1b")
			pages, err := ctl.AllocPages(inst, q, 2)
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
		dst := newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{})
		defer dst.ReleaseInstance(dst.RegisterInstance("resident", nil, nil)) // dst's ids run ahead
		inst := ctl.RegisterInstance("t", nil, nil)
		inst.MaxQueues, inst.MaxKvPages, inst.DefaultPriority = 4, 64, 3
		inst.Class, inst.Degraded = "interactive", true
		q1, q3 := mustQueue(t, ctl, inst, "llama-1b"), mustQueue(t, ctl, inst, "llama-3b")
		pages, err := ctl.AllocPages(inst, q1, 13)
		if err != nil {
			t.Fatal(err)
		}
		embs, err := ctl.AllocEmbeds(inst, q3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() { ctl.InstanceKVFootprint(inst) }); allocs != 0 {
			t.Fatalf("InstanceKVFootprint of a 13-page session made %v allocations, want 0", allocs)
		}
		inst.ReportOutputTokens(5)
		inst.firstTokObserved, inst.HandoffPending = true, true
		srcID, counters := inst.ID, [3]int{inst.ControlCalls, inst.InferCalls, inst.OutputTokens}

		if _, _, err := ctl.HandoffSession(inst, dst); err != nil {
			t.Fatal(err)
		}
		if inst.ID != 2 || dst.instances[2] != inst || ctl.instances[srcID] != nil || ctl.Instances() != 0 {
			t.Fatalf("instance %d (was %d): dst lists %p, src still lists %p; want dst's next id 2 and the instance there only",
				inst.ID, srcID, dst.instances[2], ctl.instances[srcID])
		}
		if inst.Dead() || inst.HandoffPending || !inst.firstTokObserved {
			t.Fatalf("dead %v, HandoffPending %v, firstTokObserved %v; want false, false, true", inst.Dead(), inst.HandoffPending, inst.firstTokObserved)
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
		}
		for _, name := range []string{"llama-1b", "llama-3b"} {
			srcPages, _ := ctl.PoolStats(name)
			srcEmbeds, _ := ctl.EmbedPoolStats(name)
			if srcPages+srcEmbeds != 0 {
				t.Fatalf("source %s still holds %d pages and %d embeds", name, srcPages, srcEmbeds)
			}
		}
		if n, _ := dst.PoolStats("llama-1b"); n != len(pages) {
			t.Fatalf("dst holds %d pages, want %d", n, len(pages))
		}
		// The moved queues keep serving on dst, and dst numbers new ones past them.
		if _, err := dst.AllocPages(inst, q1, 1); err != nil {
			t.Fatal(err)
		}
		if q := mustQueue(t, dst, inst, "llama-1b"); q <= q3 {
			t.Fatalf("dst opened queue %d, reusing a moved id (<= %d)", q, q3)
		}
		dst.ReleaseInstance(inst)
		if n, _ := dst.PoolStats("llama-1b"); n != 0 {
			t.Fatalf("released instance left %d pages on dst", n)
		}
	})
}

// TestHandoffRefusedMovesNothing: a destination that lacks one of the
// session's models, or cannot host all of its pages, refuses the handoff
// typed; both replicas' pools and the instance stay as they were.
func TestHandoffRefusedMovesNothing(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		small := newTestController(clock, "gpu1", infer.ExecTiming, 2, OffloadConfig{})
		rt := infer.NewModelRuntime(model.StandardCatalog(42).Models["llama-1b"], infer.ExecTiming)
		only1b := NewController(clock, infer.NewBackend(clock, "gpu2"), []*infer.ModelRuntime{rt}, DefaultSchedConfig(), OffloadConfig{}, ArtifactConfig{})
		inst := ctl.RegisterInstance("t", nil, nil)
		q1, q3 := mustQueue(t, ctl, inst, "llama-1b"), mustQueue(t, ctl, inst, "llama-3b")
		if _, err := ctl.AllocPages(inst, q1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.AllocEmbeds(inst, q1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.AllocPages(inst, q3, 4); err != nil {
			t.Fatal(err)
		}
		inUse := func(c *Controller, name string) [2]int {
			pages, _ := c.PoolStats(name)
			embeds, _ := c.EmbedPoolStats(name)
			return [2]int{pages, embeds}
		}
		for _, tc := range []struct {
			dst  *Controller
			want error
		}{{only1b, api.ErrNoSuchModel}, {small, api.ErrOutOfResources}} {
			if _, _, err := ctl.HandoffSession(inst, tc.dst); !errors.Is(err, tc.want) {
				t.Fatalf("handoff = %v, want %v", err, tc.want)
			}
			if inst.ID != 1 || ctl.instances[1] != inst || tc.dst.Instances() != 0 {
				t.Fatalf("refused handoff moved instance %d", inst.ID)
			}
			if got := inUse(tc.dst, "llama-1b"); got != [2]int{} {
				t.Fatalf("refused handoff left %v pages and embeds on dst", got)
			}
			if got := [2][2]int{inUse(ctl, "llama-1b"), inUse(ctl, "llama-3b")}; got != [2][2]int{{1, 1}, {4, 0}} {
				t.Fatalf("refused handoff changed the source pools: %v", got)
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
		dst := newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{})
		inst := ctl.RegisterInstance("t", nil, nil)
		q := mustQueue(t, ctl, inst, "llama-1b")
		pages, err := ctl.AllocPages(inst, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.ExportPages(inst, "x", []api.KvPage{pages[0], pages[0]}); err != nil {
			t.Fatal(err)
		}
		ctl.ReleaseInstance(inst)
		rt := ctl.ModelRuntime("llama-1b")
		if moved, cost := ctl.MigrateExportsTo(dst); moved != 1 || cost != 2*rt.Spec.SwapCost(1, rt.Info.PageSize) {
			t.Fatalf("migrated %d pages at %v, want 1 page at two crossings", moved, cost)
		}
		if n, _ := ctl.PoolStats("llama-1b"); n != 0 {
			t.Fatalf("source holds %d pages after the migration", n)
		}
		if exports, refs := dst.DropExports(); exports != 1 || refs != 2 {
			t.Fatalf("DropExports = %d exports, %d refs; want 1, 2", exports, refs)
		}
		if n, _ := dst.PoolStats("llama-1b"); n != 0 {
			t.Fatalf("dropping every export on dst left %d pages in use", n)
		}
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

func TestSetFirstTokenObserver(t *testing.T) {
	ctl := &Controller{}
	fired := 0
	ctl.SetFirstTokenObserver(func(*Instance) { fired++ })
	if ctl.firstTokFn == nil {
		t.Fatal("observer not installed")
	}
	ctl.firstTokFn(nil)
	if fired != 1 {
		t.Fatal("installed observer is not the one provided")
	}
}

// TestZeroPageExportStaysBehind: an export of no pages (alloc.Export(name,
// nil), or Context.Export on an empty context) belongs to no model. Every
// registry operation accepts it, and a replica drain leaves it on the
// source while the exports beside it move.
func TestZeroPageExportStaysBehind(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		dst := newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{})
		inst := ctl.RegisterInstance("t", nil, nil)
		defer ctl.ReleaseInstance(inst)
		q := mustQueue(t, ctl, inst, "llama-1b")
		pages, err := ctl.AllocPages(inst, q, 2)
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
		if n, _ := dst.PoolStats("llama-1b"); n != len(pages) {
			t.Fatalf("dst pages in use = %d, want %d", n, len(pages))
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

// TestImportCountsAsFirstForward: the first-token observer runs once per
// instance — at an import before its first completed forward (the exporter
// prefilled that KV), else at that forward — while the TTFT sample still
// waits for the instance's first forward.
func TestImportCountsAsFirstForward(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		fired := map[string]int{}
		ctl.SetFirstTokenObserver(func(inst *Instance) { fired[inst.Name]++ })
		ttfts := 0
		ctl.SetLatencyObserver(func(_ string, ttft bool, _ time.Duration) {
			if ttft {
				ttfts++
			}
		})
		forward := func(inst *Instance, q api.Queue) []api.KvPage {
			pages, err := ctl.AllocPages(inst, q, 1)
			if err != nil {
				t.Fatal(err)
			}
			embs, err := ctl.AllocEmbeds(inst, q, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctl.EmbedText(inst, q, []int{5}, []int{0}, embs); err != nil {
				t.Fatal(err)
			}
			done, err := ctl.Forward(inst, q, api.ForwardArgs{InputKv: pages, InputEmb: embs, OutputKv: pages})
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
		iq := mustQueue(t, ctl, importer, "llama-1b")
		for range 2 {
			if _, err := ctl.ImportPages(importer, iq, "prefix"); err != nil {
				t.Fatal(err)
			}
		}
		if fired["importer"] != 1 || ttfts != 1 {
			t.Fatalf("after two imports the observer fired %d times for the importer and %d TTFTs were sampled, want 1 and 1 (the exporter's)", fired["importer"], ttfts)
		}
		forward(importer, iq)
		if fired["exporter"] != 1 || fired["importer"] != 1 || ttfts != 2 {
			t.Fatalf("observer fired %v, %d TTFTs sampled: want once per instance and one TTFT each", fired, ttfts)
		}
		if exports, _ := ctl.DropExports(); exports != 1 {
			t.Fatalf("DropExports = %d, want the prefix", exports)
		}
	})
}

// Unit tests for the handoff-facing instance inspectors: the quiescence
// predicate the migration gate relies on, the distinct-physical-page wire
// time the handoff target is scored with, and the first-token observer that
// marks sessions for migration.
package core

import (
	"testing"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/sim"
)

// TestInstanceKVFootprintDedupes: import sharing maps several virtual
// handles onto one physical page, so the footprint's wire time counts
// physical pages, not handles, and is what HandoffSession then charges.
func TestInstanceKVFootprintDedupes(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
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
		wire := ctl.InstanceKVFootprint(inst)
		rt := ctl.ModelRuntime("llama-1b")
		// Two distinct device-resident pages under four handles; each crosses
		// twice: device -> host -> peer device.
		if want := 2 * 2 * rt.Spec.SwapCost(1, rt.Info.PageSize); wire != want {
			t.Fatalf("footprint wire = %v, want 2 distinct physical pages over %v", wire, want)
		}
		ni, moved, cost, err := ctl.HandoffSession(inst, dst)
		if err != nil {
			t.Fatal(err)
		}
		if moved != 2 || cost != wire {
			t.Fatalf("HandoffSession moved %d pages at %v, the footprint predicted 2 at %v", moved, cost, wire)
		}
		dst.ReleaseInstance(ni)
		ctl.DropExports()
	})
	if wire := (&Controller{}).InstanceKVFootprint(&Instance{}); wire != 0 {
		t.Fatalf("empty instance footprint wire = %v", wire)
	}
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
		if device, total := ctl.ExportResidency("empty"); device != 0 || total != 0 {
			t.Fatalf("ExportResidency(empty) = %d/%d", device, total)
		}

		if moved, _ := ctl.MigrateExportsTo(dst); moved != len(pages) {
			t.Fatalf("migrated %d pages, want %d", moved, len(pages))
		}
		if !dst.HasExportNamed("full") || ctl.HasExportNamed("full") {
			t.Fatal("the two-page export did not move")
		}
		if dst.HasExportNamed("empty") || !ctl.HasExportNamed("empty") {
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

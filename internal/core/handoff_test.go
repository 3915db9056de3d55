// Unit tests for the handoff-facing instance inspectors: the quiescence
// predicate the migration gate relies on, and the distinct-physical-page
// footprint behind the min-pages floor.
package core

import (
	"testing"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/sim"
)

func TestInstanceKVFootprintDedupes(t *testing.T) {
	ctl := &Controller{}
	// Import sharing maps several virtual handles onto one physical page:
	// the footprint counts physical pages, not handles.
	m := &modelState{name: "m"}
	inst := &Instance{}
	for _, phys := range []int32{7, 7, 9} {
		inst.pages.issue(m, phys)
	}
	if got := ctl.InstanceKVFootprint(inst); got != 2 {
		t.Fatalf("footprint = %d, want 2 distinct physical pages", got)
	}
	if got := ctl.InstanceKVFootprint(&Instance{}); got != 0 {
		t.Fatalf("empty instance footprint = %d", got)
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
		if got, err := ctl.ImportPages(inst, "empty"); err != nil || len(got) != 0 {
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

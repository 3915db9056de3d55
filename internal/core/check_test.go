package core

import (
	"errors"
	"strings"
	"testing"

	"pie/internal/infer"
	"pie/internal/sim"
)

// TestCheckNamesTheBrokenClause breaks one clause of Controller.Check per
// row, on a session holding pages, embeds, an export and a dealloc queued
// behind an embed, and expects Check to name it. The quiescence row ends
// the session without releasing its instance.
func TestCheckNamesTheBrokenClause(t *testing.T) {
	type breaker func(m *modelState, ctl *Controller, inst *Instance)
	for _, row := range []struct {
		clause string
		breaks breaker
	}{
		{"page pool llama-1b", func(m *modelState, _ *Controller, _ *Instance) { m.pages.devInUse++ }}, // a tier counter off by one
		{"page pool llama-1b", func(m *modelState, _ *Controller, _ *Instance) { // an unheld id off the free list
			m.pages.meta, m.pages.next = append(m.pages.meta, pageMeta{}), m.pages.next+1
		}},
		{"page pool llama-1b", func(m *modelState, _ *Controller, inst *Instance) { // a pin released twice
			m.pages.meta[inst.pages.refs[1].phys].pins--
		}},
		{"page pool llama-1b", func(m *modelState, _ *Controller, inst *Instance) { // a pinned page offloaded
			id := inst.pages.refs[1].phys
			m.pages.pin(id)
			m.pages.offload([]int32{id})
		}},
		{"embed pool llama-1b", func(m *modelState, _ *Controller, inst *Instance) { // a live id on the free list
			m.embeds.free = append(m.embeds.free, inst.embeds.refs[1].phys)
		}},
		{"refcount", func(m *modelState, _ *Controller, inst *Instance) { m.pages.retain(inst.pages.refs[1].phys) }}, // a ref with no holder
		{"copy record", func(m *modelState, ctl *Controller, inst *Instance) { // a copy from a move not yet begun
			m.pages.copyOf(inst.pages.refs[1].phys).pass = ctl.copyPass + 1
		}},
		{"instance", func(_ *modelState, _ *Controller, inst *Instance) { inst.dead = true }}, // left in the table
		{"handles", func(_ *modelState, _ *Controller, inst *Instance) { inst.pages.live++ }}, // a live count off by one
		{"handles", func(_ *modelState, _ *Controller, inst *Instance) { // an embed owned by a queue never opened
			inst.embeds.refs[1].q += 100
		}},
		{"free record", func(_ *modelState, ctl *Controller, inst *Instance) { // the queued embed's record listed free
			ctl.freeCalls = append(ctl.freeCalls, inst.queues[0].head())
		}},
		{"quiescence", nil},
	} {
		clock := sim.NewClock()
		ctl := newTestController(clock, "gpu0", infer.ExecTiming, 0, OffloadConfig{})
		var err error
		clock.Go("session", func() {
			inst := ctl.RegisterInstance("t", nil, nil)
			q := mustQueue(t, ctl, inst, "llama-1b")
			pages, errP := ctl.AllocPages(inst, q, nil, 4)
			embs, errE := ctl.AllocEmbeds(inst, q, nil, 2)
			if err := errors.Join(errP, errE, ctl.ExportPages(inst, "x", pages[:2]), ctl.EmbedText(inst, q, []int{5}, []int{0}, embs[:1]),
				ctl.DeallocPages(inst, q, pages[2:]), ctl.Check()); err != nil || inst.queues[0].queued() != 2 {
				t.Fatalf("before breaking: %v, %d calls queued; want nil, the embed and the dealloc", err, inst.queues[0].queued())
			}
			if row.breaks != nil {
				row.breaks(ctl.models["llama-1b"], ctl, inst)
				err = ctl.Check()
			}
		})
		if err := clock.Run(); err != nil {
			t.Fatal(err)
		}
		if row.breaks == nil {
			err = ctl.Check()
		}
		if err == nil || !strings.HasPrefix(err.Error(), row.clause) {
			t.Errorf("Check = %v, want an error naming %q", err, row.clause)
		}
	}
}

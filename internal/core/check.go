package core

import (
	"fmt"
	"reflect"

	"pie/internal/infer"
)

// Check verifies the control layer's conservation laws, reading only, and
// returns an error prefixed with the first failing clause, or nil. Tests
// call it at teardown or from a Clock.Every timer (between process steps,
// where no operation is half done); eval calls it after every engine run.
//
//   - "page pool <model>": a meta row per id; the pages referenced or
//     pinned, per tier, equal the tier counters and fit its capacity; no
//     negative refcount or pin count; no pinned page on the host tier (a
//     pin is taken with the page faulted in and held until the kernel is
//     done); free ids materialized, listed once and unheld, and every
//     unheld id free.
//   - "embed pool <model>": ids within capacity, the referenced ones
//     numbering inUse; free ids listed once and unreferenced.
//   - "refcount": a page's or embed's refcount equals its holders here:
//     live handles, exports and queued dealloc records. (A handoff or an
//     export migration moves references within one step; a dispatched
//     call holds pins, not references.)
//   - "copy record": no page copy record (tieredPool.copies) stamped with a
//     pass ahead of the controller's last (copyPass), which would make a
//     later move read it as its own.
//   - "instance": no dead instance in the table.
//   - "handles": an instance's page and embed tables each map as many
//     handles as their live count, and each mapped handle's owner queue is
//     0 or one of the instance's open queues.
//   - "free record": each free call record listed once and blank.
//   - "quiescence": with no live process (sim.Clock.Stats), no instance,
//     outstanding call or page pin left.
func (ctl *Controller) Check() error {
	pins := 0
	for _, m := range ctl.order {
		if err := m.pages.check(); err != nil {
			return fmt.Errorf("page pool %s: %w", m.name, err)
		}
		if err := m.embeds.check(); err != nil {
			return fmt.Errorf("embed pool %s: %w", m.name, err)
		}
		for _, pm := range m.pages.meta {
			pins += pm.pins
		}
	}
	if err := ctl.checkRefs(); err != nil {
		return fmt.Errorf("refcount: %w", err)
	}
	for _, m := range ctl.order {
		for id, cm := range m.pages.copies {
			if cm.pass > ctl.copyPass {
				return fmt.Errorf("copy record: page %d of %s stamped with pass %d, ahead of pass %d", id, m.name, cm.pass, ctl.copyPass)
			}
		}
	}
	for _, id := range ctl.SortedInstanceIDs() {
		inst := ctl.instances[id]
		if inst.dead {
			return fmt.Errorf("instance: %d is dead but still in the table", id)
		}
		if err := inst.pages.check(inst); err != nil {
			return fmt.Errorf("handles: instance %d pages: %w", id, err)
		}
		if err := inst.embeds.check(inst); err != nil {
			return fmt.Errorf("handles: instance %d embeds: %w", id, err)
		}
	}
	seen := map[*call]bool{}
	for _, c := range ctl.freeCalls {
		blank := call{Call: infer.Call{Res: c.Res}, ctl: ctl, free: c.free[:0], pins: c.pins[:0], pageBuf: c.pageBuf[:0], embBuf: c.embBuf[:0], intBuf: c.intBuf[:0], boolBuf: c.boolBuf[:0]}
		if seen[c] || !c.Res.Blank() || !reflect.DeepEqual(*c, blank) {
			return fmt.Errorf("free record: %p listed twice or not blank: %+v", c, c)
		}
		seen[c] = true
	}
	if live, _, _, _ := ctl.clock.Stats(); live == 0 && len(ctl.instances)+ctl.outstandingCalls+pins > 0 {
		return fmt.Errorf("quiescence: no live process, but %d instances, %d outstanding calls, %d page pins",
			len(ctl.instances), ctl.outstandingCalls, pins)
	}
	return nil
}

// check is Check's "page pool" clause.
func (p *tieredPool) check() error {
	var held [2]int // by tier; a page with pins but no refs is held for its kernels
	for id, m := range p.meta {
		if m.refs < 0 || m.pins < 0 {
			return fmt.Errorf("page %d has refs %d, pins %d", id, m.refs, m.pins)
		}
		if m.pins > 0 && m.tier != tierDevice { // a kernel addresses it
			return fmt.Errorf("page %d pinned %d times on the host tier", id, m.pins)
		}
		if m.refs > 0 || m.pins > 0 {
			held[m.tier]++
		}
	}
	if int(p.next) != len(p.meta) || p.devInUse > p.devCap || p.hostInUse > p.hostCap || held != [2]int{p.devInUse, p.hostInUse} ||
		len(p.free)+held[0]+held[1] != int(p.next) {
		return fmt.Errorf("%d meta rows for %d ids, held %v, %d free, device %d/%d, host %d/%d", len(p.meta), p.next, held, len(p.free), p.devInUse, p.devCap, p.hostInUse, p.hostCap)
	}
	return checkFree(p.free, p.next, func(id int32) bool { return p.meta[id].refs != 0 || p.meta[id].pins != 0 })
}

// check is Check's "embed pool" clause.
func (p *pool) check() error {
	live := 0
	for _, r := range p.refs {
		if r > 0 {
			live++
		}
	}
	if int(p.next) > p.capacity || len(p.refs) != int(p.next) || live != p.inUse() {
		return fmt.Errorf("%d ids (%d refcounts, %d referenced) for capacity %d, inUse %d", p.next, len(p.refs), live, p.capacity, p.inUse())
	}
	return checkFree(p.free, p.next, func(id int32) bool { return p.refs[id] != 0 })
}

// check is Check's "handles" clause for one of inst's tables.
func (t *handleTable) check(inst *Instance) error {
	mapped := 0
	for h, r := range t.refs {
		if r.m == nil {
			continue
		}
		mapped++
		if i, ok := inst.queueIndex(r.q); r.q != 0 && (!ok || inst.queues[i].closed) {
			return fmt.Errorf("handle %d owned by queue %d, which is not open", h, r.q)
		}
	}
	if mapped != t.live {
		return fmt.Errorf("%d handles mapped, live count %d", mapped, t.live)
	}
	return nil
}

// checkFree reports a free-list id never materialized, listed twice or held.
func checkFree(free []int32, next int32, held func(int32) bool) error {
	seen := make([]bool, next)
	for _, id := range free {
		if id < 0 || id >= next || seen[id] || held(id) {
			return fmt.Errorf("free id %d unmaterialized, listed twice or live", id)
		}
		seen[id] = true
	}
	return nil
}

// checkRefs is Check's "refcount" clause.
func (ctl *Controller) checkRefs() error {
	pages, embeds := map[*modelState][]int{}, map[*modelState][]int32{}
	for _, m := range ctl.order {
		pages[m], embeds[m] = make([]int, m.pages.next), make([]int32, m.embeds.next)
	}
	stray := 0
	hold := func(refs []resRef, kv bool) {
		for _, r := range refs {
			switch {
			case r.m == nil: // slot 0, or a dead handle
			case kv && r.phys >= 0 && int(r.phys) < len(pages[r.m]):
				pages[r.m][r.phys]++
			case !kv && r.phys >= 0 && int(r.phys) < len(embeds[r.m]):
				embeds[r.m][r.phys]++
			default:
				stray++
			}
		}
	}
	for _, inst := range ctl.instances {
		hold(inst.pages.refs, true)
		hold(inst.embeds.refs, false)
		for _, q := range inst.queues {
			for _, c := range q.pending[q.first:] {
				hold(c.free, c.freeKv)
			}
		}
	}
	for _, e := range ctl.exports {
		for _, p := range e.phys {
			hold([]resRef{{m: e.m, phys: p}}, true)
		}
	}
	if stray > 0 {
		return fmt.Errorf("%d references point outside this controller's pools", stray)
	}
	for _, m := range ctl.order {
		for id, n := range pages[m] {
			if refs := m.pages.meta[id].refs; refs != n {
				return fmt.Errorf("page %d of %s has refcount %d and %d holders", id, m.name, refs, n)
			}
		}
		for id, n := range embeds[m] {
			if refs := m.embeds.refs[id]; refs != n {
				return fmt.Errorf("embed %d of %s has refcount %d and %d holders", id, m.name, refs, n)
			}
		}
	}
	return nil
}

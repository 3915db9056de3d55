package core

import (
	"fmt"
	"sort"
	"time"

	"pie/api"
	"pie/internal/model"
)

// MigrateExportsTo moves every KV export this controller holds to dst:
// pages are allocated in dst's pools, their contents copied, the export
// re-registered there, and the source registry references released. The
// cluster calls it when a drain completes, so cached context survives
// replica deactivation. Exports that dst cannot host (name taken, pool
// full) stay behind. A physical page named by several exports, or twice by
// one, moves once and stays shared on dst. Returns distinct pages moved and
// the modeled transfer cost: crossingCost per page, plus dst-side offload
// cost for pages its pool spilled to make room.
func (ctl *Controller) MigrateExportsTo(dst *Controller) (pages int, cost time.Duration) {
	if dst == nil || dst == ctl {
		return 0, 0
	}
	names := make([]string, 0, len(ctl.exports))
	for name := range ctl.exports {
		names = append(names, name)
	}
	sort.Strings(names)
	pc := ctl.newPageCopy()
	for _, name := range names {
		entry := ctl.exports[name]
		if _, taken := dst.exports[name]; taken {
			continue
		}
		if entry.m == nil {
			continue // zero-page export: belongs to no model, stays behind
		}
		dm, ok := dst.models[entry.m.name]
		if !ok {
			continue
		}
		fresh := 0
		entry.m.pages.firstSight()
		for _, src := range entry.phys {
			if pc.fresh(entry.m, src) {
				fresh++
			}
		}
		ids, swapped, allocOK := dm.pages.alloc(dst.ids[:0], fresh, 0)
		dst.ids = ids[:0]
		if !allocOK {
			continue
		}
		for i, src := range entry.phys {
			entry.phys[i] = pc.move(entry.m, src, dm, &ids)
		}
		entry.m = dm
		dst.exports[name] = entry
		delete(ctl.exports, name)
		cost += dm.rt.Spec.SwapCost(swapped, dm.rt.Info.PageSize)
	}
	return pc.pages, pc.cost + cost
}

// pageCopy is the one page-copy step of a move between replicas, shared by
// a session's handoff and a drain's export migration: each distinct source
// page is copied once and priced with crossingCost, and a page met again is
// shared on the destination. A copied page's destination id is kept in its
// source pool's copy records, stamped with the move's pass, so the record
// outlives the first-sight passes that count fresh pages and no stale one
// is ever read as current.
type pageCopy struct {
	pass  uint64 // the source controller's copy pass (copyMark.pass)
	pages int
	cost  time.Duration
}

// newPageCopy starts a move off this controller's pools.
func (ctl *Controller) newPageCopy() pageCopy {
	ctl.copyPass++
	return pageCopy{pass: ctl.copyPass}
}

// fresh reports whether moving src's page phys takes a fresh destination
// page: it was not copied before, and src's pool has not shown it since the
// caller started a first-sight pass there.
func (pc *pageCopy) fresh(src *modelState, phys int32) bool {
	return src.pages.mark(phys) && src.pages.copyOf(phys).pass != pc.pass
}

// move releases one reference to src's page phys and returns the dst page
// that replaces it: a copy into the next of ids the first time the page is
// met, a further reference to that copy after.
func (pc *pageCopy) move(src *modelState, phys int32, dst *modelState, ids *[]int32) int32 {
	m := src.pages.copyOf(phys)
	id := m.to
	if m.pass == pc.pass {
		dst.pages.retain(id)
	} else {
		id, *ids = (*ids)[0], (*ids)[1:]
		copyPage(src.rt.Page(phys), dst.rt.Page(id))
		m.pass, m.to = pc.pass, id
		pc.pages++
		pc.cost += crossingCost(src, phys)
	}
	src.pages.release(phys)
	return id
}

// crossingCost prices moving one page off this replica: two PCIe crossings
// when it is device-resident (device -> host -> peer device), one when it
// is already offloaded to the host tier.
func crossingCost(m *modelState, phys int32) time.Duration {
	crossings := 2
	if tier, ok := m.pages.resident(phys); ok && tier == tierHost {
		crossings = 1 // already offloaded: only the host -> peer leg remains
	}
	return time.Duration(crossings) * m.rt.Spec.SwapCost(1, m.rt.Info.PageSize)
}

// InstanceKVFootprint returns the wire time HandoffSession charges to copy
// a session's KV pages across the interconnect: crossingCost for each
// distinct physical page (a spill the destination's pool makes to take them
// is not included). Import sharing maps one physical page under several
// virtual handles, so the sum counts each page at its first sight.
func (ctl *Controller) InstanceKVFootprint(inst *Instance) (wire time.Duration) {
	for _, m := range ctl.order {
		m.pages.firstSight()
	}
	for _, ref := range inst.pages.refs {
		if ref.m != nil && ref.m.pages.mark(ref.phys) {
			wire += crossingCost(ref.m, ref.phys)
		}
	}
	return wire
}

// InstanceQuiescent reports whether the instance has no queued or
// in-flight inference work on any of its command queues — the pin-safe
// window in which a session handoff may run (no call holds page pins, no
// completion is racing the move).
func (ctl *Controller) InstanceQuiescent(inst *Instance) bool {
	for _, q := range inst.queues {
		if q.queued() > 0 || q.inflight > 0 {
			return false
		}
	}
	return true
}

// HandoffSession moves a quiescent instance from this controller to dst,
// returning the number of distinct physical pages copied and the modeled
// interconnect cost (charged by the caller, which holds the cluster's
// transfer budget). The prefill/decode handoff layer calls it at a forward
// boundary after the instance's first token completed on a prefill replica.
//
// The instance itself moves: it takes dst's next instance id and keeps
// everything else. Its handle tables are rewritten in place, embeds then
// pages in ascending handle order, so handle numbers and their owning
// queues survive and the source pools' free lists end as ReleaseInstance
// would leave them. Pages go through the page-copy step MigrateExportsTo
// uses, plus dst-side offload cost for pages its pool spilled to make room.
// Queues are re-created empty under their ids (quiescence guarantees
// nothing was pending), keeping any error held for their next synchronize,
// so the session's queue bindings keep working. KV
// exports the instance published stay registered on the source: the
// registry holds its own page references, so cached context remains where
// affinity routing expects it. On failure nothing moves and the session
// keeps running here.
func (ctl *Controller) HandoffSession(inst *Instance, dst *Controller) (pages int, cost time.Duration, err error) {
	if dst == nil || dst == ctl {
		return 0, 0, fmt.Errorf("%w: handoff needs a distinct destination", api.ErrBadArgument)
	}
	if inst == nil || inst.dead {
		return 0, 0, api.ErrTerminated
	}
	if !ctl.InstanceQuiescent(inst) {
		return 0, 0, fmt.Errorf("%w: instance has queued or in-flight work", api.ErrBadArgument)
	}
	for _, sm := range ctl.order {
		if dst.models[sm.name] == nil && inst.uses(sm) {
			return 0, 0, fmt.Errorf("%w: handoff destination lacks %q", api.ErrNoSuchModel, sm.name)
		}
	}

	// Allocate everything on dst up front, in model registration order, so
	// a refused handoff leaves both replicas untouched. The ids land in dst's
	// scratch list, each grant naming its spans of it.
	grants, ids := dst.grants[:0], dst.ids[:0]
	defer func() { dst.grants, dst.ids = grants[:0], ids[:0] }()
	pc := ctl.newPageCopy()
	for _, dm := range dst.order {
		sm := ctl.models[dm.name]
		if sm == nil {
			continue
		}
		freshPages, embeds := 0, 0
		sm.pages.firstSight()
		for _, ref := range inst.pages.refs {
			if ref.m == sm && pc.fresh(sm, ref.phys) {
				freshPages++
			}
		}
		for _, ref := range inst.embeds.refs {
			if ref.m == sm {
				embeds++
			}
		}
		g := grant{src: sm, dst: dm, lo: len(ids)}
		var ok bool
		ids, g.swapped, ok = dm.pages.alloc(ids, freshPages, 0)
		g.mid = len(ids)
		if ok {
			ids, ok = dm.embeds.alloc(ids, embeds)
		}
		g.hi = len(ids)
		grants = append(grants, g)
		if !ok {
			for _, g := range grants {
				for _, id := range ids[g.lo:g.mid] {
					g.dst.pages.release(id)
				}
				for _, id := range ids[g.mid:g.hi] {
					g.dst.embeds.release(id)
				}
			}
			return 0, 0, fmt.Errorf("%w: destination cannot host %d KV pages and %d embeds of %s",
				api.ErrOutOfResources, freshPages, embeds, dm.name)
		}
	}

	for _, g := range grants {
		embeds := ids[g.mid:g.hi]
		for i := range inst.embeds.refs {
			if ref := &inst.embeds.refs[i]; ref.m == g.src {
				id := embeds[0]
				embeds = embeds[1:]
				copyEmbed(g.src.rt.Embed(ref.phys), g.dst.rt.Embed(id))
				g.src.embeds.release(ref.phys)
				ref.m, ref.phys = g.dst, id
			}
		}
		pages := ids[g.lo:g.mid]
		for i := range inst.pages.refs {
			if ref := &inst.pages.refs[i]; ref.m == g.src {
				ref.m, ref.phys = g.dst, pc.move(g.src, ref.phys, g.dst, &pages)
			}
		}
		cost += g.dst.rt.Spec.SwapCost(g.swapped, g.dst.rt.Info.PageSize)
	}
	for _, q := range inst.queues {
		ctl.sched.forgetQueue(q)
		// Quiescent: nothing pending or in flight refers to the queue, so it
		// starts over in place, bound to dst's model.
		held := q.err
		q.init(q.id, inst, dst.models[q.m.name], q.priority)
		q.err = held
		if uint64(q.id) > dst.queueSeq {
			// Future CreateQueue calls on dst must not reuse a moved id.
			dst.queueSeq = uint64(q.id)
		}
	}

	delete(ctl.instances, inst.ID)
	dst.instSeq++
	inst.ID = dst.instSeq
	inst.HandoffPending = false
	dst.instances[inst.ID] = inst
	return pc.pages, pc.cost + cost, nil
}

// grant is one model's share of a handoff, allocated on the destination
// before anything moves: its fresh pages are ids[lo:mid] and its embeds
// ids[mid:hi] of the destination's scratch list, and swapped counts the
// pages the destination's pool spilled to make room.
type grant struct {
	src, dst    *modelState
	lo, mid, hi int
	swapped     int
}

// copyPage deep-copies one physical page's occupancy metadata and (in
// full mode) its KV vectors.
func copyPage(src, dst *model.KvPage) {
	for s := range src.Used {
		dst.SetSlot(s, src.Used[s], src.Masked[s])
		dst.Pos[s] = src.Pos[s]
		if len(src.K[s]) > 0 {
			dst.K[s] = append(dst.K[s][:0], src.K[s]...)
			dst.V[s] = append(dst.V[s][:0], src.V[s]...)
		}
	}
}

// copyEmbed deep-copies one embedding slot's vector and metadata.
func copyEmbed(src, dst *model.EmbedSlot) {
	dst.Vec = append(dst.Vec[:0], src.Vec...)
	dst.Pos = src.Pos
	dst.Valid = src.Valid
}

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
	var pc pageCopy
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
		ids, swapped, allocOK := dm.pages.alloc(nil, fresh, 0)
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

// physKey names one physical page of one model's pool.
type physKey struct {
	m    *modelState
	phys int32
}

// pageCopy is the one page-copy step of a move between replicas, shared by
// a session's handoff and a drain's export migration: each distinct source
// page is copied once and priced with crossingCost, and a page met again is
// shared on the destination.
type pageCopy struct {
	to    map[physKey]int32 // source page -> its copy on the destination
	pages int
	cost  time.Duration
}

// fresh reports whether moving src's page phys takes a fresh destination
// page: it was not copied before, and src's pool has not shown it since the
// caller started a first-sight pass there.
func (pc *pageCopy) fresh(src *modelState, phys int32) bool {
	_, copied := pc.to[physKey{src, phys}]
	return src.pages.mark(phys) && !copied
}

// move releases one reference to src's page phys and returns the dst page
// that replaces it: a copy into the next of ids the first time the page is
// met, a further reference to that copy after.
func (pc *pageCopy) move(src *modelState, phys int32, dst *modelState, ids *[]int32) int32 {
	key := physKey{src, phys}
	id, copied := pc.to[key]
	if copied {
		dst.pages.retain(id)
	} else {
		id, *ids = (*ids)[0], (*ids)[1:]
		copyPage(src.rt.Page(phys), dst.rt.Page(id))
		if pc.to == nil {
			pc.to = make(map[physKey]int32)
		}
		pc.to[key] = id
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
// nothing was pending), so the session's queue bindings keep working. KV
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
	// a refused handoff leaves both replicas untouched.
	type grant struct {
		src, dst      *modelState
		pages, embeds []int32
		swapped       int
	}
	grants := make([]grant, 0, len(dst.order))
	var pc pageCopy
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
		g := grant{src: sm, dst: dm}
		var ok bool
		if g.pages, g.swapped, ok = dm.pages.alloc(nil, freshPages, 0); ok {
			g.embeds, ok = dm.embeds.alloc(nil, embeds)
		}
		grants = append(grants, g)
		if !ok {
			for _, g := range grants {
				for _, id := range g.pages {
					g.dst.pages.release(id)
				}
				for _, id := range g.embeds {
					g.dst.embeds.release(id)
				}
			}
			return 0, 0, fmt.Errorf("%w: destination cannot host %d KV pages and %d embeds of %s",
				api.ErrOutOfResources, freshPages, embeds, dm.name)
		}
	}

	for _, g := range grants {
		for i := range inst.embeds.refs {
			if ref := &inst.embeds.refs[i]; ref.m == g.src {
				id := g.embeds[0]
				g.embeds = g.embeds[1:]
				copyEmbed(g.src.rt.Embed(ref.phys), g.dst.rt.Embed(id))
				g.src.embeds.release(ref.phys)
				ref.m, ref.phys = g.dst, id
			}
		}
		for i := range inst.pages.refs {
			if ref := &inst.pages.refs[i]; ref.m == g.src {
				ref.m, ref.phys = g.dst, pc.move(g.src, ref.phys, g.dst, &g.pages)
			}
		}
		cost += g.dst.rt.Spec.SwapCost(g.swapped, g.dst.rt.Info.PageSize)
	}
	for i, q := range inst.queues {
		ctl.sched.forgetQueue(q)
		inst.queues[i] = &cmdQueue{id: q.id, inst: inst, m: dst.models[q.m.name], priority: q.priority}
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

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
// full) stay behind. A physical page shared by several exports moves
// once and stays shared on dst. Returns distinct pages moved and the
// modeled transfer cost: two PCIe crossings for device-resident source
// pages (device -> host -> peer device), one for pages already in the
// host tier.
func (ctl *Controller) MigrateExportsTo(dst *Controller) (pages int, cost time.Duration) {
	if dst == nil || dst == ctl {
		return 0, 0
	}
	names := make([]string, 0, len(ctl.exports))
	for name := range ctl.exports {
		names = append(names, name)
	}
	sort.Strings(names)
	moved := make(map[physKey]int32) // src page -> dst phys
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
		for _, src := range entry.phys {
			if _, done := moved[physKey{entry.m, src}]; !done {
				fresh++
			}
		}
		ids, swapped, allocOK := dm.pages.alloc(nil, fresh, 0)
		if !allocOK {
			continue
		}
		srcRT, dstRT := entry.m.rt, dm.rt
		dstPhys := make([]int32, len(entry.phys))
		next := 0
		for i, src := range entry.phys {
			key := physKey{entry.m, src}
			if id, done := moved[key]; done {
				dm.pages.retain(id) // shared across exports: share on dst too
				dstPhys[i] = id
			} else {
				id := ids[next]
				next++
				copyPage(srcRT.Page(src), dstRT.Page(id))
				moved[key] = id
				dstPhys[i] = id
				pages++
				cost += crossingCost(entry.m, src)
			}
			entry.m.pages.release(src)
		}
		dst.exports[name] = &exportEntry{m: dm, phys: dstPhys}
		delete(ctl.exports, name)
		cost += dstRT.Spec.SwapCost(swapped, dstRT.Info.PageSize)
	}
	return pages, cost
}

// physKey names one physical page of one model's pool.
type physKey struct {
	m    *modelState
	phys int32
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
// virtual handles, so the sum dedupes by physical reference.
func (ctl *Controller) InstanceKVFootprint(inst *Instance) (wire time.Duration) {
	seen := make(map[physKey]bool, inst.pages.live)
	for _, ref := range inst.pages.refs {
		if key := (physKey{ref.m, ref.phys}); ref.m != nil && !seen[key] {
			seen[key] = true
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

// HandoffSession migrates a quiescent instance's session state — KV
// pages, embedding slots, and command queues — from this controller to
// dst, returning the replacement instance registered there, the number of
// distinct physical pages copied, and the modeled interconnect cost
// (charged by the caller, which holds the cluster's transfer budget).
// The prefill/decode handoff layer calls it at a forward boundary after
// the instance's first token completed on a prefill replica.
//
// Mechanics mirror MigrateExportsTo: pages allocate in dst's pools and
// copy with two PCIe crossings when device-resident at the source
// (device -> host -> peer device), one when already offloaded to the host
// tier, plus dst-side offload cost for pages its pool spilled to make
// room. Virtual handle ids are preserved — the session's queue bindings
// keep working unmodified — and queues are re-created empty under their
// original ids (quiescence guarantees nothing was pending). KV exports
// the instance published stay registered on the source: the registry
// holds its own page references, so cached context remains where affinity
// routing expects it. On success the source instance is released; on
// failure nothing moves and the session keeps running here.
func (ctl *Controller) HandoffSession(inst *Instance, dst *Controller) (*Instance, int, time.Duration, error) {
	if dst == nil || dst == ctl {
		return nil, 0, 0, fmt.Errorf("%w: handoff needs a distinct destination", api.ErrBadArgument)
	}
	if inst == nil || inst.dead {
		return nil, 0, 0, api.ErrTerminated
	}
	if !ctl.InstanceQuiescent(inst) {
		return nil, 0, 0, fmt.Errorf("%w: instance has queued or in-flight work", api.ErrBadArgument)
	}

	// Every model the session touches must exist on dst; count distinct
	// physical pages (import sharing maps one page under several handles)
	// and embeds per model. Handle tables are walked in ascending handle
	// order, so same-seed runs copy in identical order.
	lacks := func(m *modelState) error {
		if dst.models[m.name] == nil {
			return fmt.Errorf("%w: handoff destination lacks %q", api.ErrNoSuchModel, m.name)
		}
		return nil
	}
	freshPages := make(map[*modelState]int)
	movedTo := make(map[physKey]int32, inst.pages.live) // src page -> dst phys; -1 until copied
	for _, ref := range inst.pages.refs {
		if ref.m == nil {
			continue
		}
		if err := lacks(ref.m); err != nil {
			return nil, 0, 0, err
		}
		if _, seen := movedTo[physKey{ref.m, ref.phys}]; !seen {
			movedTo[physKey{ref.m, ref.phys}] = -1
			freshPages[ref.m]++
		}
	}
	embedCount := make(map[*modelState]int)
	for _, ref := range inst.embeds.refs {
		if ref.m == nil {
			continue
		}
		if err := lacks(ref.m); err != nil {
			return nil, 0, 0, err
		}
		embedCount[ref.m]++
	}
	for _, q := range inst.queues {
		if err := lacks(q.m); err != nil {
			return nil, 0, 0, err
		}
	}

	// Allocate everything on dst up front, in model registration order,
	// rolling back on failure so a refused handoff leaves both replicas
	// untouched.
	type grant struct {
		pages, embeds []int32
		swapped       int
	}
	grants := make(map[*modelState]*grant) // keyed by dst's model
	rollback := func() {
		for _, dm := range dst.order {
			if g := grants[dm]; g != nil {
				for _, id := range g.pages {
					dm.pages.release(id)
				}
				for _, id := range g.embeds {
					dm.embeds.release(id)
				}
			}
		}
	}
	for _, dm := range dst.order {
		sm := ctl.models[dm.name]
		if sm == nil {
			continue
		}
		g := &grant{}
		grants[dm] = g
		if n := freshPages[sm]; n > 0 {
			var ok bool
			if g.pages, g.swapped, ok = dm.pages.alloc(nil, n, 0); !ok {
				rollback()
				return nil, 0, 0, fmt.Errorf("%w: destination cannot host %d KV pages of %s", api.ErrOutOfResources, n, dm.name)
			}
		}
		if n := embedCount[sm]; n > 0 {
			var ok bool
			if g.embeds, ok = dm.embeds.alloc(nil, n); !ok {
				rollback()
				return nil, 0, 0, fmt.Errorf("%w: destination cannot host %d embeds of %s", api.ErrOutOfResources, n, dm.name)
			}
		}
	}

	dst.instSeq++
	ni := &Instance{
		ID:         dst.instSeq,
		Name:       inst.Name,
		CreatedSeq: dst.instSeq,
		Proc:       inst.Proc,
		embeds:     inst.embeds.clone(),
		pages:      inst.pages.clone(),
		queues:     make([]*cmdQueue, 0, len(inst.queues)),
		onKill:     inst.onKill,

		MaxQueues:       inst.MaxQueues,
		MaxKvPages:      inst.MaxKvPages,
		DefaultPriority: inst.DefaultPriority,
		Class:           inst.Class,
		Degraded:        inst.Degraded,

		launchedAt:       inst.launchedAt,
		sawFirstTok:      inst.sawFirstTok,
		lastTokenAt:      inst.lastTokenAt,
		firstTokObserved: inst.firstTokObserved,

		ControlCalls: inst.ControlCalls,
		InferCalls:   inst.InferCalls,
		OutputTokens: inst.OutputTokens,
	}
	dst.instances[ni.ID] = ni

	var pages int
	var cost time.Duration
	for vid, ref := range inst.pages.refs {
		if ref.m == nil {
			continue
		}
		dm, key := dst.models[ref.m.name], physKey{ref.m, ref.phys}
		dstPhys := movedTo[key]
		if dstPhys >= 0 {
			dm.pages.retain(dstPhys) // shared within the session: share on dst too
		} else {
			g := grants[dm]
			dstPhys, g.pages = g.pages[0], g.pages[1:]
			movedTo[key] = dstPhys
			copyPage(ref.m.rt.Page(ref.phys), dm.rt.Page(dstPhys))
			pages++
			cost += crossingCost(ref.m, ref.phys)
		}
		ni.pages.refs[vid] = resRef{m: dm, phys: dstPhys}
	}
	for _, dm := range dst.order {
		if g := grants[dm]; g != nil && g.swapped > 0 {
			cost += dm.rt.Spec.SwapCost(g.swapped, dm.rt.Info.PageSize)
		}
	}
	for vid, ref := range inst.embeds.refs {
		if ref.m == nil {
			continue
		}
		dm := dst.models[ref.m.name]
		g := grants[dm]
		var dstPhys int32
		dstPhys, g.embeds = g.embeds[0], g.embeds[1:]
		copyEmbed(ref.m.rt.Embed(ref.phys), dm.rt.Embed(dstPhys))
		ni.embeds.refs[vid] = resRef{m: dm, phys: dstPhys}
	}
	for _, q := range inst.queues {
		dm := dst.models[q.m.name]
		ni.queues = append(ni.queues, &cmdQueue{id: q.id, inst: ni, m: dm, priority: q.priority})
		if uint64(q.id) > dst.queueSeq {
			// Future CreateQueue calls on dst must not reuse a mirrored id.
			dst.queueSeq = uint64(q.id)
		}
	}

	ctl.ReleaseInstance(inst)
	return ni, pages, cost, nil
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

package core

import (
	"fmt"
	"strings"
	"time"
)

// Tiered KV-cache pool. The device pool (§5.3) gains a second, host-memory
// tier sized as a ratio of the device capacity, following "Pie: Pooling
// CPU Memory for LLM Inference": cold pages spill over PCIe to a pinned
// host pool and fault back in when a forward references them, recovering
// effective KV capacity at a bounded transfer cost. Residency is a
// per-physical-page property; handles, refcounts, export/import sharing,
// and queue-scoped reclamation are tier-agnostic and unchanged.

// pageTier is a page's current residency.
type pageTier uint8

const (
	tierDevice pageTier = iota
	tierHost
)

// EvictionPolicy names an offload victim-selection strategy
// (pie.Config.KVEviction).
type EvictionPolicy int

const (
	// EvictLRU offloads the least-recently-used device page.
	EvictLRU EvictionPolicy = iota
	// EvictPriority offloads pages of the lowest-priority command queue
	// first (the Inferlet v2 queue priority), LRU within a priority class.
	EvictPriority
)

func (p EvictionPolicy) String() string {
	if p == EvictPriority {
		return "priority"
	}
	return "lru"
}

// ParseEviction resolves a policy name (CLI flags).
func ParseEviction(s string) (EvictionPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "lru":
		return EvictLRU, nil
	case "priority", "pri", "priority-lru":
		return EvictPriority, nil
	}
	return 0, fmt.Errorf("core: unknown eviction policy %q", s)
}

// OffloadConfig parameterizes the host-memory KV tier. The zero value
// disables offload: the pool is the paper's device-only single tier.
type OffloadConfig struct {
	// HostRatio sizes the host tier as a multiple of the device page
	// capacity (1.0 doubles effective capacity). 0 disables the tier.
	HostRatio float64
	// Eviction selects the offload victim policy.
	Eviction EvictionPolicy
}

// OffloadStats snapshots a pool's tier occupancy and swap traffic.
// Aggregated across models by Controller.OffloadStats and across replicas
// by pie.Engine.Stats.
type OffloadStats struct {
	DeviceInUse    int
	DeviceCapacity int
	HostInUse      int
	HostCapacity   int
	SwapInPages    int // pages faulted host -> device
	SwapOutPages   int // pages offloaded device -> host
	PeakInUse      int // high-water mark of live pages across both tiers
	XferTime       time.Duration
}

func (s *OffloadStats) add(o OffloadStats) {
	s.DeviceInUse += o.DeviceInUse
	s.DeviceCapacity += o.DeviceCapacity
	s.HostInUse += o.HostInUse
	s.HostCapacity += o.HostCapacity
	s.SwapInPages += o.SwapInPages
	s.SwapOutPages += o.SwapOutPages
	s.PeakInUse += o.PeakInUse
	s.XferTime += o.XferTime
}

// Evictor ranks device-resident pages for offload. Implementations must
// induce a total, deterministic order (ties are broken by page id at the
// pool), so same-seed runs pick identical victims.
type Evictor interface {
	Name() string
	// Prefer reports whether candidate a should be offloaded before b.
	Prefer(a, b *pageMeta) bool
}

type lruEvictor struct{}

func (lruEvictor) Name() string               { return "lru" }
func (lruEvictor) Prefer(a, b *pageMeta) bool { return a.lastUse < b.lastUse }

type priorityEvictor struct{}

func (priorityEvictor) Name() string { return "priority" }
func (priorityEvictor) Prefer(a, b *pageMeta) bool {
	if a.pri != b.pri {
		return a.pri < b.pri // lower queue priority offloads first
	}
	return a.lastUse < b.lastUse
}

func evictorFor(p EvictionPolicy) Evictor {
	if p == EvictPriority {
		return priorityEvictor{}
	}
	return lruEvictor{}
}

// pageMeta tracks one materialized physical page id. refs == 0 marks an id
// no handle or export holds: free, or — while pins > 0 — held for the
// dispatched kernels that still address it, and freed at their last unpin.
type pageMeta struct {
	refs    int
	tier    pageTier
	lastUse uint64 // recency stamp (pool-wide monotone counter)
	pri     int    // allocating queue's scheduler priority
	pins    int    // referencing calls in flight or queued; pinned pages never offload
	seen    uint64 // == the pool's epoch once the current dedupe pass met the page
}

// tieredPool allocates physical KV page ids across a device tier and an
// optional host tier. Fresh pages always materialize on the device (they
// are about to be written); when device slots run out, cold unpinned
// pages offload to the host tier. Refcounts (export/import sharing) and
// the free list span both tiers. Ids are dense (free list first, then the
// high-water mark), so per-page state is a slice indexed by id.
type tieredPool struct {
	devCap  int
	hostCap int
	next    int32      // high-water mark of materialized ids
	free    []int32    // released ids available for reuse
	meta    []pageMeta // by id, len == next
	evict   Evictor
	epoch   uint64  // dedupe pass counter (pageMeta.seen)
	cands   []int32 // victims' working set, reused

	devInUse  int
	hostInUse int
	useSeq    uint64

	// Swap traffic counters (OffloadStats).
	swapIn    int
	swapOut   int
	peakInUse int
}

func newTieredPool(devCap, hostCap int, evict Evictor) *tieredPool {
	if evict == nil {
		evict = lruEvictor{}
	}
	return &tieredPool{devCap: devCap, hostCap: hostCap, evict: evict}
}

// live returns the metadata of a live page id, or nil.
func (p *tieredPool) live(id int32) *pageMeta {
	if id < 0 || id >= p.next || p.meta[id].refs == 0 {
		return nil
	}
	return &p.meta[id]
}

// firstSight starts a dedupe pass; mark then reports, once per pass, each
// live page it is shown.
func (p *tieredPool) firstSight() { p.epoch++ }

func (p *tieredPool) mark(id int32) bool {
	m := p.live(id)
	if m == nil || m.seen == p.epoch {
		return false
	}
	m.seen = p.epoch
	return true
}

// capacity is the pool's total page capacity across both tiers.
func (p *tieredPool) capacity() int { return p.devCap + p.hostCap }

// inUse reports live pages across both tiers.
func (p *tieredPool) inUse() int { return p.devInUse + p.hostInUse }

// available reports how many pages can be handed out right now, assuming
// cold pages may offload. Pinned pages can make this optimistic: alloc
// re-checks that enough device room can actually be cleared.
func (p *tieredPool) available() int { return p.capacity() - p.inUse() }

// touch stamps a page most-recently-used.
func (p *tieredPool) touch(id int32) {
	if m := p.live(id); m != nil {
		p.useSeq++
		m.lastUse = p.useSeq
	}
}

// pin marks a page referenced by a queued or in-flight call; pinned pages
// are never offload victims (their memory is addressed by a kernel), and a
// pinned page whose last reference is released is not recycled until its
// last unpin (release). It reports whether the page is live.
func (p *tieredPool) pin(id int32) bool {
	m := p.live(id)
	if m == nil {
		return false
	}
	m.pins++
	return true
}

// pinAll pins every page of a call's pin set and stamps it
// most-recently-used. It reports whether any of them is host-resident, i.e.
// whether the call needs faultIn.
func (p *tieredPool) pinAll(pins []int32) (hostResident bool) {
	for _, id := range pins {
		p.pin(id)
		p.touch(id)
		hostResident = hostResident || p.meta[id].tier == tierHost
	}
	return hostResident
}

// unpinAll releases a pin set taken by pinAll.
func (p *tieredPool) unpinAll(pins []int32) {
	for _, id := range pins {
		p.unpin(id)
	}
}

// unpin releases one pin. The last unpin of a page nothing references any
// more frees it.
func (p *tieredPool) unpin(id int32) {
	m := &p.meta[id]
	if m.pins == 0 {
		return
	}
	m.pins--
	if m.pins == 0 && m.refs == 0 {
		p.freeID(id)
	}
}

// victims picks up to k offload candidates — device-resident, unpinned —
// in evictor order with page-id tie-break. The scan walks materialized
// ids in order, so the choice is deterministic. The result is valid until
// the next call.
func (p *tieredPool) victims(k int) []int32 {
	if k <= 0 {
		return nil
	}
	cands := p.cands[:0]
	for id := range p.meta {
		if m := &p.meta[id]; m.refs > 0 && m.tier == tierDevice && m.pins == 0 {
			cands = append(cands, int32(id))
		}
	}
	p.cands = cands
	// Selection sort of the k best: k is small (pages needed by one call).
	for i := 0; i < k && i < len(cands); i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			a, b := &p.meta[cands[j]], &p.meta[cands[best]]
			if p.evict.Prefer(a, b) || (!p.evict.Prefer(b, a) && cands[j] < cands[best]) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// makeDeviceRoom offloads victims until n device slots are free. It
// reports the number of pages swapped out, or ok=false — leaving the
// pool untouched, since feasibility is checked before any swap — when
// the host tier cannot absorb enough cold pages or too few unpinned
// victims exist.
func (p *tieredPool) makeDeviceRoom(n int) (swapped int, ok bool) {
	devFree := p.devCap - p.devInUse
	if devFree >= n {
		return 0, true
	}
	need := n - devFree
	if p.hostCap-p.hostInUse < need {
		return 0, false
	}
	vs := p.victims(need)
	if len(vs) < need {
		return 0, false
	}
	p.offload(vs)
	return need, true
}

// offload moves the given device-resident pages to the host tier,
// updating tier counters and swap stats.
func (p *tieredPool) offload(ids []int32) {
	for _, id := range ids {
		p.meta[id].tier = tierHost
		p.devInUse--
		p.hostInUse++
		p.swapOut++
	}
}

// alloc appends to dst n fresh device-resident ids with refcount 1 and the
// given queue priority, offloading cold pages to the host tier as needed.
// It reports the pages swapped out (for transfer-cost charging) and
// failure — leaving the pool untouched — when total capacity or
// clearable device room is insufficient.
func (p *tieredPool) alloc(dst []int32, n, pri int) (ids []int32, swappedOut int, ok bool) {
	if p.available() < n {
		return dst, 0, false
	}
	swappedOut, ok = p.makeDeviceRoom(n)
	if !ok {
		return dst, 0, false
	}
	ids = dst
	for i := 0; i < n; i++ {
		var id int32
		if k := len(p.free); k > 0 {
			id, p.free = p.free[k-1], p.free[:k-1]
		} else {
			id = p.next
			p.next++
			p.meta = append(p.meta, pageMeta{})
		}
		p.useSeq++
		p.meta[id] = pageMeta{refs: 1, tier: tierDevice, lastUse: p.useSeq, pri: pri}
		ids = append(ids, id)
	}
	p.devInUse += n
	if p.inUse() > p.peakInUse {
		p.peakInUse = p.inUse()
	}
	return ids, swappedOut, true
}

// faultIn brings every host-resident page of a call's pin set back to the
// device tier (prefetch for a forward/copy/mask that references them),
// offloading other cold pages to make room. A pin set names each page
// once (resolvePages), so every host-resident entry is one page to move.
// It reports pages swapped in and out; a fault that cannot clear device
// room fails with ok=false and performs no swaps. Callers pin the set
// first, so room-making never victimizes it.
func (p *tieredPool) faultIn(pins []int32) (in, out int, ok bool) {
	need := 0
	for _, id := range pins {
		if m := p.live(id); m != nil && m.tier == tierHost {
			need++
		}
	}
	if need == 0 {
		return 0, 0, true
	}
	// Faulting k pages to the device frees k host slots, so host room is
	// never the constraint here — only clearable device room is.
	if evict := need - (p.devCap - p.devInUse); evict > 0 {
		vs := p.victims(evict)
		if len(vs) < evict {
			return 0, 0, false
		}
		p.offload(vs)
		out = evict
	}
	for _, id := range pins {
		if m := p.live(id); m != nil && m.tier == tierHost {
			m.tier = tierDevice
			p.hostInUse--
			p.devInUse++
			p.swapIn++
			p.useSeq++
			m.lastUse = p.useSeq
			in++
		}
	}
	return in, out, true
}

// retain bumps an id's refcount (export/import sharing).
func (p *tieredPool) retain(id int32) {
	if m := p.live(id); m != nil {
		m.refs++
	}
}

// release drops one reference; the id returns to the free list at zero,
// unless a queued or dispatched call still pins it: a kernel may yet write
// it, so it stays held, in its tier, until its last unpin. It reports
// whether the id was freed now.
func (p *tieredPool) release(id int32) bool {
	m := p.live(id)
	if m == nil {
		return false
	}
	if m.refs--; m.refs > 0 || m.pins > 0 {
		return false
	}
	p.freeID(id)
	return true
}

// freeID returns an id that nothing references or pins to the free list.
func (p *tieredPool) freeID(id int32) {
	m := &p.meta[id]
	if m.tier == tierDevice {
		p.devInUse--
	} else {
		p.hostInUse--
	}
	*m = pageMeta{}
	p.free = append(p.free, id)
}

// resident reports the page's tier; ok=false for unknown/free ids.
func (p *tieredPool) resident(id int32) (pageTier, bool) {
	m := p.live(id)
	if m == nil {
		return 0, false
	}
	return m.tier, true
}

// stats snapshots the pool's offload counters.
func (p *tieredPool) stats() OffloadStats {
	return OffloadStats{
		DeviceInUse:    p.devInUse,
		DeviceCapacity: p.devCap,
		HostInUse:      p.hostInUse,
		HostCapacity:   p.hostCap,
		SwapInPages:    p.swapIn,
		SwapOutPages:   p.swapOut,
		PeakInUse:      p.peakInUse,
	}
}

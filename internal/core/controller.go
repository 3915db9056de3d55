package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/sim"
)

// Controller is the heart of the control layer: it owns resource pools,
// virtual address mappings, command queues, the export registry, and the
// batch scheduler, and it routes completed batches back to inferlets.
type Controller struct {
	clock     *sim.Clock
	backend   *infer.Backend
	models    map[string]*modelState
	order     []*modelState // registration order
	exports   map[string]*exportEntry
	offload   OffloadConfig
	artifacts *artifactCache

	instances map[uint64]*Instance
	instSeq   uint64
	queueSeq  uint64
	callSeq   uint64

	sched *Scheduler

	// Per-call working memory no inferlet can hold: recycled call records,
	// a physical-id scratch list (valid until the next sleep), and the
	// stamp that refreshes each queue once per completed batch.
	freeCalls []*call
	ids       []int32
	doneEpoch uint64

	// Outstanding inference-layer work, maintained incrementally on
	// enqueue/complete/close. The cluster router's least-loaded placement
	// and the scalers' saturation signals read these; control-side ops
	// (dealloc, sync) never count.
	outstandingCalls   int
	outstandingTokens  int
	outstandingPrefill int // fresh tokens of admitted bulk-prefill forwards

	// latencyFn, when set, observes every completed forward pass: the
	// instance's service class, whether the sample is a TTFT (first forward
	// of the instance) or an ITL (gap since its previous forward), and the
	// measured duration. The cluster's SLO tracker installs it.
	latencyFn func(class string, ttft bool, d time.Duration)

	// firstTokFn, when set, observes each instance's first completed
	// forward pass, or its import of prefilled KV before one. The cluster
	// installs it on prefill-role replicas to mark sessions ready for KV
	// handoff to decode capacity.
	firstTokFn func(inst *Instance)

	// Stats.
	Terminations int
	Aborts       int           // instances cancelled via their launch handle
	Downgrades   int           // degraded sessions moved to a cheaper model variant
	xferTime     time.Duration // cumulative PCIe swap time charged to callers
}

// NewController wires a controller to its backend and models. The offload
// config sizes each model's host-memory KV tier; the zero value keeps the
// paper's device-only pools.
func NewController(clock *sim.Clock, backend *infer.Backend, models []*infer.ModelRuntime, cfg SchedConfig, offload OffloadConfig, artifacts ArtifactConfig) *Controller {
	ctl := &Controller{
		clock:     clock,
		backend:   backend,
		models:    make(map[string]*modelState),
		exports:   make(map[string]*exportEntry),
		instances: make(map[uint64]*Instance),
		offload:   offload,
	}
	artCap := artifacts.CapacityBytes
	if artCap == 0 && len(models) > 0 {
		artCap = models[0].Spec.ArtifactCacheBytes
	}
	ctl.artifacts = newArtifactCache(artCap)
	for _, rt := range models {
		hostCap := int(offload.HostRatio * float64(rt.PageCapacity))
		if hostCap < 0 {
			hostCap = 0 // a negative ratio must not shrink total capacity below the device tier
		}
		m := &modelState{
			name:   string(rt.Info.ID),
			rt:     rt,
			pages:  newTieredPool(rt.PageCapacity, hostCap, evictorFor(offload.Eviction)),
			embeds: newPool(rt.EmbedCapacity),
			room:   sim.NewWaitList(clock, nil),
		}
		m.wakeHead = func() {
			m.wakeArmed = false
			m.room.Wake()
		}
		ctl.models[m.name] = m
		ctl.order = append(ctl.order, m)
	}
	ctl.sched = newScheduler(clock, ctl, cfg)
	backend.SetCompleteFunc(ctl.onBatchComplete)
	backend.Device.SetIdleFunc(ctl.sched.onDeviceIdle)
	return ctl
}

// Scheduler exposes the batch scheduler (for tests and stats).
func (ctl *Controller) Scheduler() *Scheduler { return ctl.sched }

// SetLatencyObserver installs the per-forward completion observer feeding
// the cluster's per-class TTFT/ITL attainment tracker. Pass nil to remove.
func (ctl *Controller) SetLatencyObserver(fn func(class string, ttft bool, d time.Duration)) {
	ctl.latencyFn = fn
}

// SetFirstTokenObserver installs the per-instance first-forward observer:
// fn runs once per instance, when its first forward pass completes or,
// earlier, when it imports KV pages before that forward (an imported
// context was prefilled by its exporter). The cluster's prefill/decode
// handoff layer installs it on prefill-role replicas. Pass nil to remove.
func (ctl *Controller) SetFirstTokenObserver(fn func(inst *Instance)) {
	ctl.firstTokFn = fn
}

// observeFirstTok runs the first-token observer for inst unless it already
// ran.
func (ctl *Controller) observeFirstTok(inst *Instance) {
	if ctl.firstTokFn != nil && !inst.firstTokObserved {
		inst.firstTokObserved = true
		ctl.firstTokFn(inst)
	}
}

// chargeControl prices a control-layer-handled API call in the caller's
// process and bumps instrumentation.
func (ctl *Controller) chargeControl(inst *Instance) {
	inst.ControlCalls++
	ctl.clock.Sleep(controlCallBase + time.Duration(len(ctl.instances))*controlCallPerInst)
}

// --- Instance lifecycle -------------------------------------------------

// RegisterInstance creates the control-layer state for a new inferlet.
// onKill runs when the FCFS contention policy terminates the instance.
func (ctl *Controller) RegisterInstance(name string, proc *sim.Proc, onKill func(error)) *Instance {
	ctl.instSeq++
	inst := &Instance{
		ID:         ctl.instSeq,
		Name:       name,
		Proc:       proc,
		onKill:     onKill,
		launchedAt: ctl.clock.Now(),
	}
	ctl.instances[inst.ID] = inst
	return inst
}

// ReleaseInstance frees every resource the instance holds: queues are
// closed (pending calls fail), virtual mappings are dropped, and physical
// references are released. Idempotent. The order is fixed — queues by
// ascending id, then embeds and pages by ascending handle — because it
// decides the pools' free lists (every later physical id) and the order
// the failed calls' waiters wake: same-seed runs must agree on both.
func (ctl *Controller) ReleaseInstance(inst *Instance) {
	if inst.dead {
		return
	}
	inst.dead = true
	for _, q := range inst.queues {
		q.closed = true
		ctl.failPending(q, api.ErrTerminated)
	}
	inst.embeds.release(0, false)
	inst.pages.release(0, true)
	inst.embeds, inst.pages = handleTable{}, handleTable{}
	delete(ctl.instances, inst.ID)
	ctl.allRoomFreed()
}

// allRoomFreed reports pages released in any model's pool (roomFreed).
func (ctl *Controller) allRoomFreed() {
	for _, m := range ctl.order {
		ctl.roomFreed(m)
	}
}

// ensurePages enforces the resource-contention policy (§5.2, §8): when a
// KvPage allocation cannot be satisfied, the most recently created live
// inferlets are terminated until enough pages are free. If the requester
// itself is the newest, it is the victim and receives ErrTerminated.
func (ctl *Controller) ensurePages(requester *Instance, m *modelState, n int) error {
	p, modelName := m.pages, m.name
	for p.available() < n {
		victim := ctl.newestInstance()
		if victim == nil {
			return api.ErrOutOfResources
		}
		ctl.Terminations++
		if victim == requester {
			ctl.terminate(victim, errTerminated(n, modelName))
			return errTerminated(n, modelName)
		}
		ctl.terminate(victim, errTerminated(n, modelName))
		if p.available() >= n {
			break
		}
	}
	return nil
}

func (ctl *Controller) newestInstance() *Instance {
	var newest *Instance
	for _, inst := range ctl.instances {
		if newest == nil || inst.ID > newest.ID {
			newest = inst
		}
	}
	return newest
}

func (ctl *Controller) terminate(inst *Instance, reason error) {
	onKill := inst.onKill
	ctl.ReleaseInstance(inst)
	if onKill != nil {
		onKill(reason)
	}
}

// AbortInstance cancels a live instance through its launch handle
// (Handle.Abort): queue-scoped reclamation runs exactly as for FCFS
// termination — pending calls fail, page pins drop, pages/embeds return
// to their pools, the export registry keeps its own references — and the
// inferlet process unwinds with the given reason. Idempotent: aborting a
// released instance is a no-op.
func (ctl *Controller) AbortInstance(inst *Instance, reason error) bool {
	if inst == nil || inst.dead {
		return false
	}
	ctl.Aborts++
	ctl.terminate(inst, reason)
	return true
}

// AbortAllInstances aborts every live instance with the given reason, in
// instance-ID order so same-seed runs unwind identically. The cluster
// health layer calls it when a replica is declared dead: every in-flight
// inferlet fails typed (api.ErrReplicaLost) instead of parking forever on
// a device that will never answer. Returns the number aborted.
func (ctl *Controller) AbortAllInstances(reason error) int {
	n := 0
	for _, id := range ctl.SortedInstanceIDs() {
		if ctl.AbortInstance(ctl.instances[id], reason) {
			n++
		}
	}
	return n
}

// DropExports declares every KV export on this controller lost — the
// registry's page references release and the names vanish — and reports
// how many exports and physical page references were dropped. Called when
// a replica dies: its cached context is unrecoverable, and affinity
// routing must stop finding it here.
func (ctl *Controller) DropExports() (exports, pages int) {
	names := make([]string, 0, len(ctl.exports))
	for name := range ctl.exports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		entry := ctl.exports[name]
		for _, p := range entry.phys {
			entry.m.pages.release(p)
		}
		pages += len(entry.phys)
		delete(ctl.exports, name)
		exports++
	}
	return exports, pages
}

// KVLoad reports aggregate KV page occupancy across every model pool,
// both tiers. The cluster's saturation guard reads it to decide when to
// shed best-effort launches.
func (ctl *Controller) KVLoad() (inUse, capacity int) {
	for _, m := range ctl.order {
		inUse += m.pages.inUse()
		capacity += m.pages.capacity()
	}
	return inUse, capacity
}

// Instances returns the number of live instances.
func (ctl *Controller) Instances() int { return len(ctl.instances) }

// --- Model discovery ----------------------------------------------------

// ModelInfos lists servable model descriptors in registration order,
// without charging any instance: the ILM validates program manifests
// against this catalog view at register and launch time.
func (ctl *Controller) ModelInfos() []api.ModelInfo {
	out := make([]api.ModelInfo, 0, len(ctl.order))
	for _, m := range ctl.order {
		out = append(out, m.rt.Info)
	}
	return out
}

// Models lists servable models in registration order (available_models).
func (ctl *Controller) Models(inst *Instance) []api.ModelInfo {
	ctl.chargeControl(inst)
	return ctl.ModelInfos()
}

// Traits reports a model's trait set (available_traits).
func (ctl *Controller) Traits(inst *Instance, m api.ModelID) ([]api.Trait, error) {
	ctl.chargeControl(inst)
	ms, ok := ctl.models[string(m)]
	if !ok {
		return nil, api.ErrNoSuchModel
	}
	return append([]api.Trait(nil), ms.rt.Info.Traits...), nil
}

// --- Queues ---------------------------------------------------------------

// CreateQueue makes a command queue bound to a model (create_queue).
func (ctl *Controller) CreateQueue(inst *Instance, m api.ModelID) (api.Queue, error) {
	ctl.chargeControl(inst)
	ms, ok := ctl.models[string(m)]
	if !ok {
		return 0, api.ErrNoSuchModel
	}
	if inst.MaxQueues > 0 && len(inst.queues) >= inst.MaxQueues {
		return 0, fmt.Errorf("%w: manifest allows %d open queues", api.ErrLimitExceeded, inst.MaxQueues)
	}
	ctl.queueSeq++
	q := &cmdQueue{id: api.Queue(ctl.queueSeq), inst: inst, m: ms, priority: inst.DefaultPriority}
	inst.queues = append(inst.queues, q) // ids only grow: the slice stays sorted
	return q.id, nil
}

// SetQueuePriority hints the scheduler (set_queue_priority).
func (ctl *Controller) SetQueuePriority(inst *Instance, qid api.Queue, pri int) error {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	q.priority = pri
	return nil
}

// Synchronize returns a signal that fires when every call enqueued on the
// queue before this point has completed (synchronize).
func (ctl *Controller) Synchronize(inst *Instance, qid api.Queue) (*sim.Signal, error) {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return nil, err
	}
	s := sim.NewSignal(ctl.clock)
	if q.queued() == 0 && q.inflight == 0 {
		sim.Fire(s)
		return s, nil
	}
	op := ctl.newOp(q, infer.OpSync)
	op.sync = s
	ctl.enqueue(q, op)
	return s, nil
}

func (ctl *Controller) queue(inst *Instance, qid api.Queue) (*cmdQueue, error) {
	if i, ok := inst.queueIndex(qid); ok && !inst.queues[i].closed {
		return inst.queues[i], nil
	}
	return nil, api.ErrQueueClosed
}

// CloseQueue closes a command queue (close_queue). Callers that want a
// graceful close synchronize first; anything still pending fails with
// ErrQueueClosed. Then the handles allocated or imported through the queue
// and still live are released, embeds then pages, each in ascending handle
// order: handles are instance-scoped, so one freed through a sibling queue
// is simply gone, and exports keep the registry's own references. The queue
// leaves the scheduler and its id dies.
func (ctl *Controller) CloseQueue(inst *Instance, qid api.Queue) error {
	ctl.chargeControl(inst)
	q, err := ctl.queue(inst, qid)
	if err != nil {
		return err
	}
	q.closed = true
	ctl.failPending(q, api.ErrQueueClosed)
	inst.embeds.release(qid, false)
	inst.pages.release(qid, true)
	i, _ := inst.queueIndex(qid)
	inst.queues = slices.Delete(inst.queues, i, i+1)
	ctl.allRoomFreed()
	return nil
}

// --- Export / import ------------------------------------------------------

// ExportPages publishes the pages under a global name (export_kvpage). The
// registry takes its own reference on each page, so the export outlives
// the exporter.
func (ctl *Controller) ExportPages(inst *Instance, name string, ids []api.KvPage) error {
	ctl.chargeControl(inst)
	if _, exists := ctl.exports[name]; exists {
		return fmt.Errorf("%w: export name %q taken", api.ErrBadArgument, name)
	}
	entry := &exportEntry{}
	for _, id := range ids {
		ref := inst.pages.get(uint64(id))
		if ref == nil {
			return api.ErrBadHandle
		}
		if entry.m == nil {
			entry.m = ref.m
		} else if entry.m != ref.m {
			return fmt.Errorf("%w: export mixes models", api.ErrBadArgument)
		}
		entry.phys = append(entry.phys, ref.phys)
	}
	for _, p := range entry.phys {
		entry.m.pages.retain(p)
	}
	ctl.exports[name] = entry
	return nil
}

// ImportPages maps an export into the caller's address space through
// queue qid, whose close releases the pages (import_kvpage); they are
// shared, not copied. An import before the instance's first completed
// forward counts as its prefill for the first-token observer.
func (ctl *Controller) ImportPages(inst *Instance, qid api.Queue, name string) ([]api.KvPage, error) {
	ctl.chargeControl(inst)
	if _, err := ctl.queue(inst, qid); err != nil {
		return nil, err
	}
	entry, ok := ctl.exports[name]
	if !ok {
		return nil, api.ErrNoSuchExport
	}
	if inst.MaxKvPages > 0 && inst.pages.live+len(entry.phys) > inst.MaxKvPages {
		// Imports map pages into the instance's address space too: the
		// manifest cap bounds live pages however they arrive.
		return nil, fmt.Errorf("%w: manifest allows %d KV pages (%d live, %d imported)",
			api.ErrLimitExceeded, inst.MaxKvPages, inst.pages.live, len(entry.phys))
	}
	out := make([]api.KvPage, len(entry.phys))
	for i, p := range entry.phys {
		entry.m.pages.retain(p)
		out[i] = api.KvPage(inst.pages.issue(entry.m, p, qid))
	}
	if !inst.sawFirstTok {
		ctl.observeFirstTok(inst)
	}
	return out, nil
}

// HasExport reports whether name is registered (used for cache probing).
func (ctl *Controller) HasExport(inst *Instance, name string) bool {
	ctl.chargeControl(inst)
	_, ok := ctl.exports[name]
	return ok
}

// ReleaseExport drops the registry's references (release_export).
func (ctl *Controller) ReleaseExport(inst *Instance, name string) error {
	ctl.chargeControl(inst)
	entry, ok := ctl.exports[name]
	if !ok {
		return api.ErrNoSuchExport
	}
	for _, p := range entry.phys {
		entry.m.pages.release(p)
	}
	delete(ctl.exports, name)
	if entry.m != nil {
		ctl.roomFreed(entry.m)
	}
	return nil
}

// CheaperModel returns the cheapest installed model that is strictly
// cheaper (by weight bytes) than name and whose trait closure covers every
// trait name declares — so anything a program negotiated against the
// original model still negotiates against the substitute. Empty when no
// such model exists. Graceful degradation uses it to downgrade Degradable
// launches near saturation.
func (ctl *Controller) CheaperModel(name string) string {
	ms, ok := ctl.models[name]
	if !ok {
		return ""
	}
	cur := ms.rt
	best := ""
	var bestBytes int64
	for _, cand := range ctl.order {
		rt := cand.rt
		if rt.Spec.WeightBytes >= cur.Spec.WeightBytes {
			continue
		}
		covered := true
		for _, t := range cur.Info.Traits {
			if !rt.Info.HasTraitClosure(t) {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		if best == "" || rt.Spec.WeightBytes < bestBytes {
			best, bestBytes = cand.name, rt.Spec.WeightBytes
		}
	}
	return best
}

// PoolStats reports page occupancy for a model across both tiers (tests,
// Fig. 7 analysis).
func (ctl *Controller) PoolStats(modelName string) (inUse, capacity int) {
	p := ctl.models[modelName].pages
	return p.inUse(), p.capacity()
}

// EmbedPoolStats reports embedding-slot occupancy for a model (abort and
// reclamation tests).
func (ctl *Controller) EmbedPoolStats(modelName string) (inUse, capacity int) {
	p := ctl.models[modelName].embeds
	return p.inUse(), p.capacity
}

// OffloadStats aggregates tier occupancy and swap traffic across models,
// plus the cumulative PCIe transfer time charged to callers.
func (ctl *Controller) OffloadStats() OffloadStats {
	var out OffloadStats
	for _, m := range ctl.order {
		out.add(m.pages.stats())
	}
	out.XferTime = ctl.xferTime
	return out
}

// ExportFaultIn prices bringing an export's host-tier pages back to the
// device (one SwapCost of them; zero when every page is device-resident).
// ok is false when no export is registered under name. The cluster's
// kv-affinity placement adds it to a holder's load: an export whose pages
// were offloaded to host memory is a colder hit than one still resident.
func (ctl *Controller) ExportFaultIn(name string) (cost time.Duration, ok bool) {
	entry, ok := ctl.exports[name]
	if !ok || entry.m == nil { // absent, or exported with no pages
		return 0, ok
	}
	host := 0
	for _, id := range entry.phys {
		if tier, ok := entry.m.pages.resident(id); ok && tier == tierHost {
			host++
		}
	}
	return entry.m.rt.Spec.SwapCost(host, entry.m.rt.Info.PageSize), true
}

// ModelRuntime returns the runtime for a model id.
func (ctl *Controller) ModelRuntime(name string) *infer.ModelRuntime {
	if m := ctl.models[name]; m != nil {
		return m.rt
	}
	return nil
}

// PerTokenDecode is what one more decode sequence adds to a forward on
// this replica's device class (its first model's cost model).
func (ctl *Controller) PerTokenDecode() time.Duration {
	return ctl.order[0].rt.Spec.PerTokenDecode
}

// SortedInstanceIDs aids deterministic test assertions.
func (ctl *Controller) SortedInstanceIDs() []uint64 {
	ids := make([]uint64, 0, len(ctl.instances))
	for id := range ctl.instances {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

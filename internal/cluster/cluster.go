// Package cluster is the multi-backend layer between the application layer
// and N single-device serving replicas. The paper's Pie engine virtualizes
// one GPU behind inferlet APIs; production deployments front many such
// engines with a router. Here each replica owns a full inference stack —
// an infer.Backend (its own device and ingress), a core.Controller (its own
// scheduler ready-buckets and KV page pools) — and the Cluster decides, per
// inferlet launch, which replica hosts the instance.
//
// Cluster is the repository's one cluster engine, the one behind
// pie.Engine: router, health monitor, fault injection, shedding, scalers,
// service classes, roles with KV handoff and the fleet controller's
// operations each exist once, in this package. Every replica's stack runs
// as processes of the engine's single sim.Clock, so a fleet of any size is
// one deterministic event loop on one goroutine (512 replicas replay in
// about half a second: EXPERIMENTS.md, "Scale"); what spreads over cores is
// independent experiment legs (eval.parallelFor), not replicas.
//
// Placement policies:
//
//   - round-robin: cycle over active replicas.
//   - least-outstanding-tokens: place on the replica with the least
//     token-weighted outstanding inference work (llm-d-style load-aware
//     dispatch).
//   - kv-affinity: route an inferlet to the replica already holding the KV
//     export it will import (probed via explicit cache_key/affinity hints
//     in the launch params); cold keys hash-stick to a replica so racing
//     launches of the same key converge, and hint-less launches fall back
//     to least-outstanding-tokens.
//   - program-affinity: route a launch to a replica whose warm-artifact
//     cache already holds the program binary (name@version), so repeat
//     launches skip the upload + JIT pipeline (Fig. 9's cold/warm gap);
//     cold programs hash-stick to a replica so their second launch is
//     already warm.
//
// The active replica set changes only through the fleet ops (fleetops.go):
// the SLO scaler, the health monitor, the fleet controller and placement's
// last-resort revive all call them. Everything runs on the engine's virtual
// clock, so same-seed runs make identical placement and scaling decisions.
package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"pie/api"
	"pie/internal/core"
	"pie/internal/infer"
	"pie/internal/metrics"
	"pie/internal/sim"
)

// PlacementPolicy selects the routing strategy.
type PlacementPolicy int

const (
	// PlaceRoundRobin cycles launches over active replicas.
	PlaceRoundRobin PlacementPolicy = iota
	// PlaceLeastLoaded places on the replica with the fewest outstanding
	// tokens (queued + in-flight, token-weighted).
	PlaceLeastLoaded
	// PlaceKVAffinity routes to the replica holding the launch's KV export
	// hint, hash-sticking cold keys; falls back to least-loaded.
	PlaceKVAffinity
	// PlaceProgramAffinity routes to a replica whose artifact cache holds
	// the program binary warm (launch skips upload + JIT), hash-sticking
	// cold programs; ties break by least outstanding tokens.
	PlaceProgramAffinity
)

func (p PlacementPolicy) String() string {
	switch p {
	case PlaceRoundRobin:
		return "round-robin"
	case PlaceLeastLoaded:
		return "least-outstanding-tokens"
	case PlaceKVAffinity:
		return "kv-affinity"
	case PlaceProgramAffinity:
		return "program-affinity"
	}
	return "unknown"
}

// ParsePlacement resolves a policy name (CLI flags).
func ParsePlacement(s string) (PlacementPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "rr", "round-robin", "roundrobin":
		return PlaceRoundRobin, nil
	case "llt", "least", "least-loaded", "least-outstanding-tokens":
		return PlaceLeastLoaded, nil
	case "affinity", "kv", "kv-affinity", "prefix":
		return PlaceKVAffinity, nil
	case "program", "program-affinity", "artifact":
		return PlaceProgramAffinity, nil
	}
	return 0, fmt.Errorf("cluster: unknown placement policy %q", s)
}

// Replica is one serving stack: a backend with its own device, and a
// controller with its own scheduler and resource pools.
type Replica struct {
	ID      int
	Backend *infer.Backend
	Ctl     *core.Controller

	// Heterogeneous-pool attributes (scaler.go). Zero values mean the
	// default variant: reference speed at one cost unit per second.
	Variant     string
	CostRate    float64
	SpeedFactor float64

	// Role assigns the replica's serving phase (roles.go): unified (the
	// zero value — both phases), prefill, or decode.
	Role Role

	// Prefill/decode handoff counters (handoff.go): sessions received
	// from prefill replicas and sessions handed off to decode replicas.
	HandoffsIn  int
	HandoffsOut int

	active   bool
	draining bool
	// Cost and cold-start bookkeeping (scaler.go): activation epoch,
	// accumulated active time from earlier activations, and the end of the
	// post-activation warming window.
	activeSince time.Duration
	activeAccum time.Duration
	warmUntil   time.Duration
	// Placements counts inferlet instances routed here.
	Placements int

	// Health machinery (see health.go / faults.go).
	health    HealthState
	crashed   bool          // crash fault applied: heartbeats have stopped
	crashedAt time.Duration // when they stopped
	slowdown  float64       // slow fault applied: kernel cost multiplier
	// Progress watchdog bookkeeping.
	lastKernels int
	progressAt  time.Duration
	// Evacuations counts in-flight instances aborted off this replica by
	// the health layer when it died — the requeue candidates.
	Evacuations int
}

// Active reports whether the replica accepts or serves work.
func (r *Replica) Active() bool { return r.active }

// Draining reports whether the replica is finishing existing work only.
func (r *Replica) Draining() bool { return r.draining }

// Health reports the replica's position in the failure state machine.
func (r *Replica) Health() HealthState { return r.health }

// Cluster routes inferlet launches across replicas and keeps the active
// set.
type Cluster struct {
	clock    *sim.Clock
	policy   PlacementPolicy
	replicas []*Replica
	rr       int

	// OnPlace, when set, observes every placement decision (stress tests
	// and instrumentation). It runs synchronously in the placing process
	// with the chosen replica.
	OnPlace func(r *Replica)

	// OnFleetOp, when set, observes every active-set change but a death
	// (fleetops.go): op is "activate", "drain", "drain-done" or
	// "deactivate". It runs synchronously in the mutating process.
	OnFleetOp func(op string, r *Replica)

	// Scaling stats.
	ScaleUps   int // replicas activated (or un-drained) by the SLO scaler
	DrainStart int // drains initiated
	DrainDone  int // drains completed (replica deactivated)

	// Drain-migration stats: KV exports moved off replicas as their
	// drains completed, so cached context survives deactivation.
	ExportsMigrated int // drain completions that moved at least one page
	PagesMigrated   int

	// Fault layer (health.go, faults.go, shed.go).
	health   HealthConfig
	shed     ShedConfig
	faults   FaultPlan
	faultRNG *sim.RNG

	// Service classes and the SLO scaler (serviceclass.go, scaler.go).
	classes     map[string]api.ServiceClass
	slo         *sloTracker
	scaler      ScalerConfig
	lastBusyAt  time.Duration
	lowSatTicks int // consecutive scaler ticks below SatLow (hysteresis)

	// Prefill/decode disaggregation (roles.go, handoff.go): whether any
	// replica carries a non-unified role, the handoff config, the
	// controller -> replica index sessions resolve their host through, and
	// the bounded in-flight transfer budget (FIFO waiters).
	hasRoles       bool
	stick          []*Replica // hashStick's domain: every replica a launch may start on, ID order
	handoff        HandoffConfig
	ctlIndex       map[*core.Controller]*Replica
	handoffActive  int
	handoffWaiters []*handoffWaiter

	// Handoff stats.
	Handoffs        int           // sessions migrated prefill -> decode
	HandoffPages    int           // distinct physical pages copied across
	HandoffTime     time.Duration // cumulative modeled interconnect time
	HandoffDenied   int           // handoffs denied (no decode capacity or refused alloc)
	HandoffQueued   int           // handoffs that waited on the transfer budget
	HandoffRequests int           // quiescent first-token sessions that sought a target
	HandoffSkipped  int           // sessions kept in place below the min-pages floor

	// Decisions is the bounded scale/degrade/shed decision log: one line
	// per scaling action, degradation, or shed, byte-identical across
	// same-seed runs (the determinism test contract).
	Decisions []string

	// SLO-layer stats.
	Degradations      int // launches admitted degraded instead of shed
	ScaleToZeroEvents int // idle-fleet drains initiated by the scaler

	// Fault-layer stats.
	FaultsInjected  int           // replica fault events applied
	TransientFaults int           // injected transient launch failures
	Suspects        int           // healthy -> suspect transitions
	ReplicasLost    int           // replicas declared dead
	Replacements    int           // cold spares activated to replace the dead
	ExportsLost     int           // KV exports declared lost on dead replicas
	PagesLost       int           // their physical page references
	Sheds           int           // best-effort launches rejected at admission
	DetectTime      time.Duration // cumulative failure-onset -> declared-dead latency
}

// New builds a cluster over the prebuilt replica set, activating the first
// `active` replicas.
func New(clock *sim.Clock, policy PlacementPolicy, replicas []*Replica, active int) *Cluster {
	if len(replicas) == 0 {
		panic("cluster: no replicas")
	}
	active = min(max(active, 1), len(replicas))
	c := &Cluster{clock: clock, policy: policy, replicas: replicas}
	for _, r := range replicas {
		if r.Role != RoleUnified {
			c.hasRoles = true
		}
		if r.prefillEligible() {
			c.stick = append(c.stick, r)
		}
	}
	for i := 0; i < active; i++ {
		c.markActive(replicas[i])
	}
	return c
}

// Replicas exposes the full replica set (including inactive ones).
func (c *Cluster) Replicas() []*Replica { return c.replicas }

// Policy reports the placement policy.
func (c *Cluster) Policy() PlacementPolicy { return c.policy }

// ActiveReplicas counts replicas currently serving (draining included).
func (c *Cluster) ActiveReplicas() int {
	n := 0
	for _, r := range c.replicas {
		if r.active {
			n++
		}
	}
	return n
}

// placeable returns replicas eligible for new work, in ID order. With
// roles assigned, new launches (which begin with prefill) prefer
// prefill-eligible replicas and spill onto the decode pool only when no
// prefill capacity survives — better to colocate than to refuse service.
func (c *Cluster) placeable() []*Replica {
	if c.hasRoles {
		if out := c.placeableFor((*Replica).prefillEligible); len(out) > 0 {
			return out
		}
	}
	return c.placeableFor(nil)
}

// placeableFor runs the placement eligibility ladder over replicas
// matching the role predicate (nil admits every role), in ID order:
// healthy, active, not draining. Suspect replicas are avoided but serve
// as a last resort; dead ones never return. May be empty when every
// matching replica is dead.
func (c *Cluster) placeableFor(eligible func(*Replica) bool) []*Replica {
	ok := func(r *Replica) bool { return eligible == nil || eligible(r) }
	out := make([]*Replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		if r.active && !r.draining && r.health == HealthHealthy && ok(r) {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		// No healthy serving replica. Fall back to suspects (they may be
		// merely stalled) before giving up.
		for _, r := range c.replicas {
			if r.active && !r.draining && r.health == HealthSuspect && ok(r) {
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		// Every active replica is draining (or none is active): revive the
		// lowest-ID live replica so placement still succeeds.
		for _, r := range c.replicas {
			if ok(r) && c.Activate(r) {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// Place picks a replica for a new inferlet instance and returns its
// controller (the ilm.Placer contract). artifact is the program's
// name@version cache key, the program-affinity policy's routing signal.
// When every replica is dead it fails typed with api.ErrReplicaLost —
// retried by launches carrying a retry policy, surfaced otherwise.
func (c *Cluster) Place(program, artifact string, args []string) (*core.Controller, error) {
	r := c.pick(artifact, args)
	if r == nil {
		return nil, fmt.Errorf("%w: no live replica to place %q on", api.ErrReplicaLost, program)
	}
	r.Placements++
	if c.OnPlace != nil {
		c.OnPlace(r)
	}
	return r.Ctl, nil
}

func (c *Cluster) pick(artifact string, args []string) *Replica {
	cands := c.placeable()
	if len(cands) == 0 {
		return nil
	}
	switch c.policy {
	case PlaceRoundRobin:
		r := cands[c.rr%len(cands)]
		c.rr++
		return r
	case PlaceKVAffinity:
		return c.pickAffinity(affinityHints(args), cands)
	case PlaceProgramAffinity:
		return c.pickProgramAffinity(artifact, cands)
	default:
		return pickLeastLoaded(cands)
	}
}

// pickProgramAffinity routes a launch toward a replica holding the
// program artifact warm, so it skips the upload + JIT pipeline. Several
// warm holders tie-break by least outstanding tokens (a hot program's
// launches spread over every replica that has paid its JIT). A cold
// artifact hash-sticks to a stable replica — exactly the kv-affinity
// cold-key trick — so concurrent and repeat launches of a new program
// converge on one replica, which then stays its warm home.
func (c *Cluster) pickProgramAffinity(artifact string, cands []*Replica) *Replica {
	var warm []*Replica
	for _, r := range cands {
		if r.Ctl.HasArtifact(artifact) {
			warm = append(warm, r)
		}
	}
	if len(warm) > 0 {
		return pickLeastLoaded(warm)
	}
	return c.hashStick(artifact, cands)
}

// hashStick maps a key onto the stable set of replicas a launch may start
// on — all of them, or the prefill-eligible ones when roles are assigned —
// and walks to the nearest placeable member. Hashing the placeable set
// directly would move every key whenever a scaler resizes it;
// hashing over decode-only replicas too would walk most keys onto the
// first prefill replica.
func (c *Cluster) hashStick(key string, cands []*Replica) *Replica {
	if len(c.stick) == 0 {
		return cands[0]
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	start := int(h.Sum64() % uint64(len(c.stick)))
	for i := range c.stick {
		r := c.stick[(start+i)%len(c.stick)]
		if r.active && !r.draining && r.health == HealthHealthy {
			return r
		}
	}
	return cands[0]
}

// pickLeastLoaded places on the fewest outstanding tokens; ties break by
// live instance count. Instances register at placement time — before a
// cold launch's JIT completes — so a burst of simultaneous launches
// spreads across replicas instead of piling onto the first zero-token tie
// while everyone's work is still compiling.
func pickLeastLoaded(cands []*Replica) *Replica {
	best := cands[0]
	for _, r := range cands[1:] {
		bt, rt := best.Ctl.OutstandingTokens(), r.Ctl.OutstandingTokens()
		if rt < bt || (rt == bt && r.Ctl.Instances() < best.Ctl.Instances()) {
			best = r
		}
	}
	return best
}

func (c *Cluster) pickAffinity(hints []string, cands []*Replica) *Replica {
	// Among replicas holding a hinted export, score by residency tier:
	// device-resident cached pages serve immediately, host-offloaded ones
	// pay a fault-in, so a warmer holder wins. Ties (including the common
	// single-tier case, where every holder scores 1.0) keep the first
	// holder in replica-ID order — the pre-offload behavior.
	for _, h := range hints {
		var best *Replica
		bestScore := -1.0
		for _, r := range cands {
			if !r.Ctl.HasExportNamed(h) {
				continue
			}
			dev, total := r.Ctl.ExportResidency(h)
			score := 1.0
			if total > 0 {
				score = float64(dev) / float64(total)
			}
			if score > bestScore {
				best, bestScore = r, score
			}
		}
		if best != nil {
			return best
		}
	}
	if len(hints) > 0 {
		// Cold key: stick it to a replica by hash so concurrent launches
		// of the same key converge before the first export even lands.
		return c.hashStick(hints[0], cands)
	}
	return pickLeastLoaded(cands)
}

// affinityHints extracts KV-affinity keys from a launch's first argument,
// the JSON parameter blob every app takes: an explicit "affinity" routing
// hint, or the "cache_key" the prefix-caching apps export under.
func affinityHints(args []string) []string {
	if len(args) == 0 || args[0] == "" {
		return nil
	}
	var params struct {
		Affinity string `json:"affinity"`
		CacheKey string `json:"cache_key"`
	}
	if err := json.Unmarshal([]byte(args[0]), &params); err != nil {
		return nil
	}
	var hints []string
	if params.Affinity != "" {
		hints = append(hints, params.Affinity)
	}
	if params.CacheKey != "" {
		hints = append(hints, params.CacheKey)
	}
	return hints
}

// --- Stats --------------------------------------------------------------

// ReplicaStats snapshots every replica's counters in ID order.
func (c *Cluster) ReplicaStats() []metrics.ReplicaStats {
	out := make([]metrics.ReplicaStats, 0, len(c.replicas))
	for _, r := range c.replicas {
		s := r.Ctl.Scheduler()
		off := r.Ctl.OffloadStats()
		art := r.Ctl.ArtifactStats()
		out = append(out, metrics.ReplicaStats{
			ID:           r.ID,
			Device:       r.Backend.Name,
			Active:       r.active,
			Draining:     r.draining,
			Placements:   r.Placements,
			Instances:    r.Ctl.Instances(),
			Outstanding:  r.Ctl.OutstandingCalls(),
			OutTokens:    r.Ctl.OutstandingTokens(),
			Batches:      s.Batches,
			BatchedCalls: s.BatchedCalls,
			MaxBatch:     s.MaxBatch,
			Kernels:      r.Backend.Device.Kernels(),
			GPUBusyMS:    float64(r.Backend.Device.BusyTime()) / float64(time.Millisecond),
			Terminations: r.Ctl.Terminations,
			KVDevPages:   off.DeviceInUse,
			KVHostPages:  off.HostInUse,
			KVPeakPages:  off.PeakInUse,
			SwapInPages:  off.SwapInPages,
			SwapOutPages: off.SwapOutPages,

			Artifacts:         art.Resident,
			ArtifactHits:      art.Hits,
			ArtifactMisses:    art.Misses,
			ArtifactEvictions: art.Evictions,
			Aborts:            r.Ctl.Aborts,

			Health:   r.health.String(),
			Requeues: r.Evacuations,

			Variant:    r.variantName(),
			CostRate:   r.costRate(),
			CostUnits:  r.costRate() * r.activeFor(c.now()).Seconds(),
			Warming:    c.now() < r.warmUntil,
			Downgrades: r.Ctl.Downgrades,

			Role:        r.Role.String(),
			HandoffsIn:  r.HandoffsIn,
			HandoffsOut: r.HandoffsOut,
		})
	}
	return out
}

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
// A policy only names the candidates. Every policy but round-robin ranks
// them with the one scorer (argmin) the prefill/decode handoff uses too:
// a delay plus the replica's outstanding tokens' decode cost.
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
	"pie/internal/trace"
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
	// sample is the role balancer's view of the replica's counters at the
	// last window edge (roles.go).
	sample roleSample

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

// serving reports whether the replica takes new work: active, not
// draining, healthy.
func (r *Replica) serving() bool { return r.active && !r.draining && r.health == HealthHealthy }

// Cluster routes inferlet launches across replicas and keeps the active
// set.
type Cluster struct {
	clock    *sim.Clock
	policy   PlacementPolicy
	replicas []*Replica
	rr       int

	// OnDecision, when set, receives every decision of the cluster and of
	// the fleet controller driving it, one trace.Decision each: placements,
	// handoffs, scaling, admission verdicts, fleet ops and health
	// transitions. It runs synchronously in the deciding process. Nil
	// builds nothing; a set hook owns retention.
	OnDecision func(trace.Decision)

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
	slo         *sloTracker
	scaler      ScalerConfig
	lastBusyAt  time.Duration
	lowSatTicks int // consecutive scaler ticks below SatLow (hysteresis)

	// Prefill/decode disaggregation (roles.go, handoff.go): whether any
	// replica carries a non-unified role, the handoff config, the
	// controller -> replica index sessions resolve their host through, and
	// the bounded in-flight transfer budget (slots held, FIFO waiters).
	hasRoles      bool
	stick         []*Replica // hashStick's domain: every replica a launch may start on, ID order
	roleVote      Role       // the role the last balancer window wanted a replica moved to; unified for none
	handoff       HandoffConfig
	ctlIndex      map[*core.Controller]*Replica
	handoffActive int
	transferWait  *sim.WaitList // nil until EnableHandoff arms the coordinator
	placeBuf      []*Replica    // placeable's result, reused per launch

	// Handoff stats.
	Handoffs        int           // sessions migrated prefill -> decode
	HandoffPages    int           // distinct physical pages copied across
	HandoffTime     time.Duration // cumulative modeled interconnect time
	HandoffDenied   int           // handoffs denied (no decode capacity or refused alloc)
	HandoffQueued   int           // handoffs that waited on the transfer budget
	HandoffRequests int           // quiescent first-token sessions that sought a target
	RoleFlips       int           // replicas the role balancer moved between prefill and decode

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
// The slice is the cluster's scratch, valid until the next call.
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
// serving ones first. Suspect replicas are avoided but serve as a last
// resort; dead ones never return. May be empty when every matching replica
// is dead.
func (c *Cluster) placeableFor(eligible func(*Replica) bool) []*Replica {
	ok := func(r *Replica) bool { return eligible == nil || eligible(r) }
	out := c.placeBuf[:0]
	for _, r := range c.replicas {
		if r.serving() && ok(r) {
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
	c.placeBuf = out
	return out
}

// Place picks a replica for a new inferlet instance and returns its
// controller (the ilm.Placer contract). artifact is the program's
// name@version cache key, the program-affinity policy's routing signal.
// Each policy keeps its own candidates — every placeable replica for
// least-loaded, the holders of the first hinted KV export for kv-affinity,
// the replicas holding the artifact warm for program-affinity — and one
// scorer picks among them (argmin): the least delay plus outstanding load.
// Round-robin cycles, and cold keys and artifacts hash-stick. When every
// replica is dead it fails typed with api.ErrReplicaLost — retried by
// launches carrying a retry policy, surfaced otherwise.
func (c *Cluster) Place(program, artifact string, args []string) (*core.Controller, error) {
	r := c.pick(artifact, args)
	if r == nil {
		return nil, fmt.Errorf("%w: no live replica to place %q on", api.ErrReplicaLost, program)
	}
	r.Placements++
	if c.OnDecision != nil {
		c.OnDecision(trace.Decision{T: c.now(), Kind: trace.Place, Replica: r.ID, Program: program})
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
		if hints := affinityHints(args); len(hints) > 0 {
			return c.pickAffinity(hints, cands)
		}
	case PlaceProgramAffinity:
		return c.pickProgramAffinity(artifact, cands)
	}
	pick, _ := argmin(cands, noDelay)
	return pick.r
}

// pickProgramAffinity routes a launch toward a replica holding the
// program artifact warm, so it skips the upload + JIT pipeline; several
// warm holders are scored on load alone (a hot program's launches spread
// over every replica that has paid its JIT). A cold artifact hash-sticks
// to a stable replica — exactly the kv-affinity cold-key trick — so
// concurrent and repeat launches of a new program converge on one replica,
// which then stays its warm home.
func (c *Cluster) pickProgramAffinity(artifact string, cands []*Replica) *Replica {
	pick, _ := argmin(cands, func(r *Replica) (time.Duration, bool) { return 0, r.Ctl.HasArtifact(artifact) })
	if pick.r != nil {
		return pick.r
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
		if r.serving() {
			return r
		}
	}
	return cands[0]
}

// pickAffinity routes to a holder of the first hinted export any candidate
// holds. Its delay is the export's fault-in: host-offloaded pages pay a
// swap before they serve, so a warmer holder wins at equal load. A cold key
// hash-sticks so concurrent launches of it converge before the first
// export even lands.
func (c *Cluster) pickAffinity(hints []string, cands []*Replica) *Replica {
	for _, h := range hints {
		if pick, _ := argmin(cands, func(r *Replica) (time.Duration, bool) { return r.Ctl.ExportFaultIn(h) }); pick.r != nil {
			return pick.r
		}
	}
	return c.hashStick(hints[0], cands)
}

// scored is a candidate replica for a unit of work: the delay before it
// could take the work, and the load ahead of it there — each outstanding
// token one decode sequence's share of a forward (PerTokenDecode).
type scored struct {
	r           *Replica
	delay, load time.Duration
}

// before orders candidates: the lower delay plus load first, and on an
// exact tie the fewer live instances. Instances register at placement
// time — before a cold launch's JIT completes — so a burst of simultaneous
// launches spreads across replicas instead of piling onto the first
// zero-token tie while everyone's work is still compiling.
func (s scored) before(o scored) bool {
	a, b := s.delay+s.load, o.delay+o.load
	return a < b || (a == b && s.r.Ctl.Instances() < o.r.Ctl.Instances())
}

// candidate is the decision record's view of s; Replica -1 for none.
func (s scored) candidate() trace.Candidate {
	if s.r == nil {
		return trace.Candidate{Replica: -1}
	}
	return trace.Candidate{Replica: s.r.ID, Pred: s.delay, Load: s.load}
}

// noDelay scores every candidate on its load alone.
func noDelay(*Replica) (time.Duration, bool) { return 0, true }

// argmin is the cluster's one replica scorer, behind every placement
// policy but round-robin and behind the handoff. delay reports whether a
// replica is a candidate and, if so, how long before it could take the
// work; argmin returns the candidate first in before's order, and the
// runner-up, in cands order on full ties. A result's r is nil when there is
// none.
func argmin(cands []*Replica, delay func(*Replica) (time.Duration, bool)) (pick, runnerUp scored) {
	for _, r := range cands {
		d, ok := delay(r)
		if !ok {
			continue
		}
		s := scored{r: r, delay: d, load: time.Duration(r.Ctl.OutstandingTokens()) * r.Ctl.PerTokenDecode()}
		switch {
		case pick.r == nil || s.before(pick):
			pick, runnerUp = s, pick
		case runnerUp.r == nil || s.before(runnerUp):
			runnerUp = s
		}
	}
	return pick, runnerUp
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

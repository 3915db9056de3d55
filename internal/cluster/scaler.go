package cluster

import (
	"time"

	"pie/internal/trace"
)

// The SLO scaler is the library's scaling loop: saturation-guarded and
// cost-aware, changing the active set only through the fleet ops
// (fleetops.go). Each tick it:
//
//   - computes per-replica saturation — the max of KV-pool utilization,
//     normalized queue depth, and normalized in-flight prefill — and
//     averages it over healthy serving replicas;
//   - reads per-class SLO attainment over the recent sample window (the
//     sloTracker fed by live TTFT/ITL observations);
//   - scales up when saturation crosses SatHigh or a class misses its
//     attainment target under load, but never while a replica activated
//     inside the cold-start window is still warming (no cascade scale-up
//     on capacity that has not had a chance to absorb load yet);
//   - picks the cheapest hardware variant whose projected latency meets
//     the strictest class target (heterogeneous pools, llm-d style);
//   - scales down the most expensive replica when the fleet is both slack
//     and attaining, and drains the whole fleet to zero after sustained
//     idleness when ScaleToZero is set.
//
// Every decision is one OnDecision record; same-seed runs produce identical
// records (the determinism test contract).

// ScalerConfig tunes the SLO scaler. The zero value disables it.
type ScalerConfig struct {
	Enabled bool
	// Min and Max bound the serving replica count (defaults: 1 and the
	// replica set size). ScaleToZero may drain below Min when idle.
	Min, Max int
	// Interval is the evaluation period on the virtual clock (default 10ms).
	Interval time.Duration
	// SatHigh adds capacity when mean saturation reaches it (default 0.75);
	// SatLow removes capacity when saturation falls to it (default 0.20).
	SatHigh, SatLow float64
	// AttainTarget is the recent-window SLO attainment fraction below which
	// a class counts as missing (default 0.95).
	AttainTarget float64
	// ScaleToZero drains the entire fleet (below Min) once the cluster has
	// been idle — no instances, no outstanding calls — for IdleAfter
	// (default 250ms). Placement revives a replica on the next launch.
	ScaleToZero bool
	IdleAfter   time.Duration
}

// queueRef and prefillRef normalize a replica's outstanding calls and
// in-flight prefill tokens into saturation fractions. coldStartWindow holds
// further scale-up while any replica activated within it is still warming —
// newly added capacity pays artifact upload + JIT before it absorbs load,
// and scaling into that shadow cascades.
const (
	queueRef        = 32
	prefillRef      = 4096
	coldStartWindow = 40 * time.Millisecond
)

func (s ScalerConfig) withDefaults(total int) ScalerConfig {
	if s.Min <= 0 {
		s.Min = 1
	}
	if s.Max <= 0 || s.Max > total {
		s.Max = total
	}
	if s.Min > s.Max {
		s.Min = s.Max
	}
	if s.Interval <= 0 {
		s.Interval = 10 * time.Millisecond
	}
	if s.SatHigh <= 0 || s.SatHigh > 1 {
		s.SatHigh = 0.75
	}
	if s.SatLow <= 0 || s.SatLow >= s.SatHigh {
		s.SatLow = 0.20
		if s.SatLow >= s.SatHigh {
			s.SatLow = s.SatHigh / 2
		}
	}
	if s.AttainTarget <= 0 || s.AttainTarget > 1 {
		s.AttainTarget = 0.95
	}
	if s.IdleAfter <= 0 {
		s.IdleAfter = 250 * time.Millisecond
	}
	return s
}

// EnableScaler installs the SLO scaler and starts its daemon. Call before
// Engine.Run.
func (c *Cluster) EnableScaler(cfg ScalerConfig) {
	cfg.Enabled = true
	c.scaler = cfg.withDefaults(len(c.replicas))
	if c.slo == nil {
		c.slo = newSLOTracker(nil)
	}
	for _, r := range c.replicas {
		c.slo.noteVariant(r.Variant, r.speedFactor())
	}
	c.clock.GoDaemon("cluster:scaler", func() {
		for {
			c.clock.Sleep(c.scaler.Interval)
			c.scalerTick()
		}
	})
}

// ScalerEnabled reports whether the SLO scaler is running.
func (c *Cluster) ScalerEnabled() bool { return c.scaler.Enabled }

// replicaSaturation folds one replica's three load signals into a single
// fraction: the binding constraint governs (a full KV pool saturates a
// replica whose queue is short, and vice versa).
func (c *Cluster) replicaSaturation(r *Replica) float64 {
	inUse, capacity := r.Ctl.KVLoad()
	kv := 0.0
	if capacity > 0 {
		kv = float64(inUse) / float64(capacity)
	}
	queue := float64(r.Ctl.OutstandingCalls()) / queueRef
	prefill := float64(r.Ctl.OutstandingPrefillTokens()) / prefillRef
	sat := kv
	if queue > sat {
		sat = queue
	}
	if prefill > sat {
		sat = prefill
	}
	return sat
}

// scalerTick runs one scaling decision. All iteration is in replica-ID
// order and all class iteration in sorted-name order, so same-seed runs
// decide identically.
func (c *Cluster) scalerTick() {
	c.CompleteDrains()
	now := c.clock.Now()
	serving, warming := 0, 0
	var satSum float64
	var satByRole [3]float64
	var cntByRole [3]int
	var totByRole [3]int
	busy := false
	for _, r := range c.replicas {
		totByRole[r.Role]++
		// Busyness counts work anywhere — including draining replicas still
		// finishing instances — so scale-to-zero never fires on a fleet
		// whose remaining work happens to sit on a drain.
		if r.Ctl.Instances() > 0 || r.Ctl.OutstandingCalls() > 0 {
			busy = true
		}
		if !r.serving() {
			continue
		}
		serving++
		rsat := c.replicaSaturation(r)
		satSum += rsat
		satByRole[r.Role] += rsat
		cntByRole[r.Role]++
		if now < r.warmUntil {
			warming++
		}
	}
	if busy {
		c.lastBusyAt = now
	}
	if serving == 0 {
		// No healthy serving replica anywhere — the fleet-mean denominator
		// is empty. With work still owed this is an outage, not idleness:
		// attempt recovery scale-up instead of silently returning until the
		// load drains into timeouts. (Spares are usually activated by the
		// death protocol; this covers crashes outrunning it, e.g. every
		// serving replica draining or dead within one tick.) A fleet with
		// no serving replica reads as fully saturated, as an empty role
		// does in starvedRoleSat.
		if busy && c.scaler.Max > 0 {
			c.scaleUpCostAware(trace.Decision{Sat: 1, Role: RoleUnified.String()}, RoleUnified)
		}
		return
	}
	sat := satSum / float64(serving)
	starved := RoleUnified
	if c.hasRoles {
		// Disaggregated pools: the fleet mean hides a starving phase (two
		// idle decode replicas average away a saturated prefill pool), so
		// scale on the hungriest role's mean and grow that role.
		sat, starved = starvedRoleSat(busy, satByRole, cntByRole, totByRole)
	}
	missClass, missAtt := "", 1.0
	if busy && sat > c.scaler.SatLow {
		// Attainment only drives scaling when the fleet is actually
		// loaded: a stale window of misses from a past burst must not pin
		// an idle fleet up, and misses on an unsaturated fleet (intrinsic
		// prompt latency) are not a capacity problem money can fix.
		missClass, missAtt = c.slo.worstRecent(c.scaler.AttainTarget)
	}
	// Scale-down hysteresis: one quiet tick between bursts must not shed
	// a replica the next tick will claw back (and pay a cold start for).
	if sat <= c.scaler.SatLow && missClass == "" {
		c.lowSatTicks++
	} else {
		c.lowSatTicks = 0
	}
	switch {
	case (sat >= c.scaler.SatHigh || missClass != "") && serving < c.scaler.Max:
		why := trace.Decision{Sat: sat, Role: starved.String(), Class: missClass, Att: missAtt}
		if warming > 0 {
			if c.OnDecision != nil {
				why.T, why.Kind, why.Count = now, trace.ScaleHold, warming
				c.OnDecision(why)
			}
			return
		}
		c.scaleUpCostAware(why, starved)
	case c.scaler.ScaleToZero && !busy && now-c.lastBusyAt >= c.scaler.IdleAfter:
		drained := 0
		for _, r := range c.replicas {
			if r.health == HealthHealthy && c.BeginDrain(r) {
				drained++
			}
		}
		if drained > 0 {
			c.ScaleToZeroEvents++
			if c.OnDecision != nil {
				c.OnDecision(trace.Decision{T: now, Kind: trace.ScaleToZero, Count: drained, Wait: now - c.lastBusyAt})
			}
		}
	case c.lowSatTicks >= scaleDownPatience && serving > c.scaler.Min:
		c.scaleDownCostAware(sat)
	}
}

// starvedRoleSat folds per-role saturation into the scaling signal for a
// disaggregated fleet: the hungriest role's mean governs. A role with
// replicas assigned (totByRole > 0) but none healthy-and-serving
// (cntByRole == 0) while the fleet is busy counts as fully saturated, not
// absent — its phase's demand cannot shift to the other pool, so the mean
// over zero replicas must read as starvation, never as zero. (Before this
// guard, an all-dead prefill pool averaged away against idle decode
// replicas and the scaler never replaced it.) An empty role on an idle
// fleet stays invisible: scale-to-zero drains must not re-trigger growth.
func starvedRoleSat(busy bool, satByRole [3]float64, cntByRole, totByRole [3]int) (sat float64, starved Role) {
	starved = RoleUnified
	for i, cnt := range cntByRole {
		switch {
		case cnt > 0:
			if m := satByRole[i] / float64(cnt); m > sat {
				sat, starved = m, Role(i)
			}
		case busy && totByRole[i] > 0 && sat < 1:
			sat, starved = 1, Role(i)
		}
	}
	return sat, starved
}

// scaleUpCostAware adds one replica: first un-drain a still-warm draining
// replica, else activate an inactive spare. Candidates order by (cost rate
// ascending, ID ascending) among variants whose projected latency meets
// the strictest class target; when no variant qualifies, the fastest one
// is taken — an SLO miss wants the best hardware available, whatever it
// costs. With roles assigned, spares matching the starved role are
// preferred (growing decode when prefill starves just moves the queue),
// falling back to any spare when that role has none left. why carries the
// tick's signal into the scale-up record.
func (c *Cluster) scaleUpCostAware(why trace.Decision, prefer Role) {
	pick := func(eligible func(*Replica) bool) *Replica {
		var best *Replica
		bestQualifies := false
		for _, r := range c.replicas {
			if !eligible(r) {
				continue
			}
			q := c.variantMeetsTargets(r)
			switch {
			case best == nil:
				best, bestQualifies = r, q
			case q && !bestQualifies:
				best, bestQualifies = r, true
			case q == bestQualifies && c.cheaperOrFaster(r, best, q):
				best = r
			}
		}
		return best
	}
	pickRoleAware := func(eligible func(*Replica) bool) *Replica {
		if c.hasRoles {
			if r := pick(func(r *Replica) bool { return eligible(r) && r.Role == prefer }); r != nil {
				return r
			}
		}
		return pick(eligible)
	}
	r := pickRoleAware(func(r *Replica) bool {
		return r.active && r.draining && r.health == HealthHealthy && !r.crashed
	})
	if r == nil {
		r = pickRoleAware(func(r *Replica) bool {
			return !r.active && r.health == HealthHealthy && !r.crashed
		})
	}
	if r == nil {
		return
	}
	c.Activate(r)
	c.ScaleUps++
	if c.OnDecision != nil {
		why.T, why.Kind, why.Replica, why.Variant, why.CostRate = c.now(), trace.ScaleUp, r.ID, r.variantName(), r.costRate()
		c.OnDecision(why)
	}
}

// cheaperOrFaster orders two candidates of equal qualification: qualifying
// candidates compete on price (cheapest first), non-qualifying ones on
// speed (fastest first); ties break by lowest ID.
func (c *Cluster) cheaperOrFaster(r, best *Replica, qualifies bool) bool {
	if qualifies {
		if r.costRate() != best.costRate() {
			return r.costRate() < best.costRate()
		}
	} else {
		if r.speedFactor() != best.speedFactor() {
			return r.speedFactor() < best.speedFactor()
		}
	}
	return r.ID < best.ID
}

// variantMeetsTargets projects the replica's variant latency against the
// strictest registered class targets.
func (c *Cluster) variantMeetsTargets(r *Replica) bool {
	if c.slo == nil {
		return true
	}
	ttftTarget, itlTarget := c.slo.strictestTargets()
	if ttftTarget == 0 && itlTarget == 0 {
		return true
	}
	estTTFT, estITL := c.slo.estimate(r.Variant, r.speedFactor())
	if ttftTarget > 0 && estTTFT > ttftTarget {
		return false
	}
	if itlTarget > 0 && estITL > itlTarget {
		return false
	}
	return true
}

// scaleDownCostAware drains the most expensive healthy serving replica
// (ties break by highest ID — mirror of activation order). With roles
// assigned, the victim comes from the slackest role that still has more
// than one serving replica — draining a role's last replica would strand
// its phase (prefill: no placements; decode: every handoff denied).
func (c *Cluster) scaleDownCostAware(sat float64) {
	victim := c.scaleDownVictim(nil)
	if c.hasRoles {
		var satByRole [3]float64
		var cntByRole [3]int
		for _, r := range c.replicas {
			if r.serving() {
				satByRole[r.Role] += c.replicaSaturation(r)
				cntByRole[r.Role]++
			}
		}
		slack, slackSat, found := RoleUnified, 0.0, false
		for i, cnt := range cntByRole {
			if cnt <= 1 {
				continue
			}
			if m := satByRole[i] / float64(cnt); !found || m < slackSat {
				slack, slackSat, found = Role(i), m, true
			}
		}
		if !found {
			return // every role is down to its last serving replica
		}
		victim = c.scaleDownVictim(func(r *Replica) bool { return r.Role == slack })
	}
	if victim == nil {
		return
	}
	c.BeginDrain(victim)
	if c.OnDecision != nil {
		c.OnDecision(trace.Decision{T: c.now(), Kind: trace.ScaleDown, Replica: victim.ID, Variant: victim.variantName(), CostRate: victim.costRate(), Sat: sat})
	}
}

// scaleDownVictim picks the most expensive healthy serving replica
// matching the predicate (nil admits all), ties by highest ID.
func (c *Cluster) scaleDownVictim(eligible func(*Replica) bool) *Replica {
	var victim *Replica
	for _, r := range c.replicas {
		if !r.serving() {
			continue
		}
		if eligible != nil && !eligible(r) {
			continue
		}
		if victim == nil || r.costRate() > victim.costRate() ||
			(r.costRate() == victim.costRate() && r.ID > victim.ID) {
			victim = r
		}
	}
	return victim
}

// --- Heterogeneous variants ---------------------------------------------

// defaultVariant names the hardware class of a replica built without a
// variant: the reference device.
const defaultVariant = "l4"

// ReplicaVariant describes one hardware class in a heterogeneous replica
// pool (llm-d's Accelerator: a name, a unit cost, and a relative speed).
type ReplicaVariant struct {
	// Name labels the variant; replica devices are named "<name>-<id>".
	Name string
	// CostRate is the cost-units-per-second price of keeping one replica
	// of this variant active (default 1).
	CostRate float64
	// Slowdown multiplies every kernel cost relative to the reference
	// device (1 = reference speed, 2 = half speed; default 1).
	Slowdown float64
	// Count is how many replicas take this variant, assigned in replica-ID
	// order; <= 0 means all remaining replicas.
	Count int
}

func (v ReplicaVariant) withDefaults() ReplicaVariant {
	if v.Name == "" {
		v.Name = defaultVariant
	}
	if v.CostRate <= 0 {
		v.CostRate = 1
	}
	if v.Slowdown < 1 {
		v.Slowdown = 1
	}
	return v
}

// ExpandVariants assigns a variant to each of total replicas in ID order:
// each variant covers Count replicas (<= 0 meaning the remainder), and the
// last variant pads out the pool. An empty spec yields the default
// homogeneous pool.
func ExpandVariants(variants []ReplicaVariant, total int) []ReplicaVariant {
	if len(variants) == 0 {
		variants = []ReplicaVariant{{}}
	}
	out := make([]ReplicaVariant, 0, total)
	for _, v := range variants {
		v = v.withDefaults()
		n := v.Count
		if n <= 0 || n > total-len(out) {
			n = total - len(out)
		}
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
		if len(out) == total {
			break
		}
	}
	for len(out) < total {
		out = append(out, variants[len(variants)-1].withDefaults())
	}
	return out
}

// --- Cost accounting ----------------------------------------------------

// scaleDownPatience is how many consecutive below-SatLow ticks the scaler
// waits before shedding capacity — cold starts make scale-down much more
// expensive to regret than to delay.
const scaleDownPatience = 3

// now is the cluster's virtual time, zero for clockless unit-test
// clusters (which never run daemons).
func (c *Cluster) now() time.Duration {
	if c.clock == nil {
		return 0
	}
	return c.clock.Now()
}

// markActive (re)activates a replica for placement, stamping cost and
// cold-start bookkeeping. Un-draining keeps the original activation epoch:
// the replica never stopped costing. A replica activated while no scaler
// runs (New's initial set included) starts warm. Only New and Activate
// call it.
func (c *Cluster) markActive(r *Replica) {
	if !r.active {
		r.activeSince = c.now()
		r.warmUntil = r.activeSince
		if c.scaler.Enabled {
			r.warmUntil += coldStartWindow
		}
	}
	r.active, r.draining = true, false
}

// markInactive retires a replica from the serving set, folding its active
// span into the cost accumulator.
func (c *Cluster) markInactive(r *Replica) {
	if r.active {
		r.activeAccum += c.now() - r.activeSince
	}
	r.active, r.draining = false, false
}

// activeFor reports the replica's cumulative active time as of now.
func (r *Replica) activeFor(now time.Duration) time.Duration {
	d := r.activeAccum
	if r.active {
		d += now - r.activeSince
	}
	return d
}

// costRate reports the replica's price per active second (default 1 for
// replicas built without a variant).
func (r *Replica) costRate() float64 {
	if r.CostRate > 0 {
		return r.CostRate
	}
	return 1
}

// speedFactor reports the variant's kernel slowdown (>= 1).
func (r *Replica) speedFactor() float64 {
	if r.SpeedFactor > 1 {
		return r.SpeedFactor
	}
	return 1
}

func (r *Replica) variantName() string {
	if r.Variant != "" {
		return r.Variant
	}
	return defaultVariant
}

// CostUnits reports the fleet's cumulative cost: each replica's cost rate
// times its active seconds, as of now. Every scaler driving the fleet is
// priced identically, so legs compare.
func (c *Cluster) CostUnits(now time.Duration) float64 {
	var units float64
	for _, r := range c.replicas {
		units += r.costRate() * r.activeFor(now).Seconds()
	}
	return units
}

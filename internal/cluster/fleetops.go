package cluster

import (
	"time"

	"pie/internal/trace"
)

// Fleet ops: the one mutation surface of the active replica set and of the
// replicas' roles. Sizing policies — the fleet controller (internal/fleet),
// the SLO scaler and eval's comparator — name a target serving count and
// Resize moves the fleet to it; the health monitor's spare activation and
// placement's last-resort revive call Activate directly. Every caller
// honors the same invariants — activation only of healthy replicas,
// retirement only through the two-phase drain — and each change is one
// decision record. A death, the one retirement outside these verbs, is the
// health monitor's dead record (health.go).

// Activate brings a replica into the serving set, or cancels its drain if
// one is in progress (the replica never left the serving set, and keeps its
// activation epoch). It refuses unhealthy or crashed replicas. Reports
// whether the replica's state changed.
func (c *Cluster) Activate(r *Replica) bool {
	if !r.activatable() {
		return false
	}
	c.markActive(r)
	c.Decide(trace.Decision{Kind: trace.Activate, Replica: r.ID})
	return true
}

// activatable reports whether Activate would change the replica: healthy,
// not crashed, and draining or inactive.
func (r *Replica) activatable() bool {
	return r.health == HealthHealthy && !r.crashed && (!r.active || r.draining)
}

// Resize moves the pool's serving count toward target, one Activate or
// BeginDrain at a time, and returns the last replica it moved (nil if
// none could move). To grow it cancels drains first — the replica never
// left, while a spare pays a cold start — and then activates spares. To
// shrink it drains serving replicas. Candidates are taken first-to-grow
// and last-to-shrink in before order, ties in pool order; a nil before is
// pool order. Each move is the one record its fleet op writes.
func (c *Cluster) Resize(pool []*Replica, target int, before func(a, b *Replica) bool) (moved *Replica) {
	if before == nil {
		before = func(a, b *Replica) bool { return false }
	}
	serving := 0
	for _, r := range pool {
		if r.Serving() {
			serving++
		}
	}
	for ; serving < target; serving++ {
		var up *Replica
		for _, r := range pool {
			if r.activatable() && (up == nil || r.draining && !up.draining || r.draining == up.draining && before(r, up)) {
				up = r
			}
		}
		if up == nil {
			break
		}
		c.Activate(up)
		moved = up
	}
	for ; serving > max(target, 0); serving-- {
		var down *Replica
		for _, r := range pool {
			if r.Serving() && (down == nil || !before(r, down)) {
				down = r
			}
		}
		c.BeginDrain(down)
		moved = down
	}
	return moved
}

// BeginDrain starts phase one of a two-phase drain: the replica stops
// receiving placements but keeps serving its in-flight sessions. Phase
// two (CompleteDrains) migrates its KV exports and retires it once idle.
// Reports whether a drain was started.
func (c *Cluster) BeginDrain(r *Replica) bool {
	if !r.active || r.draining {
		return false
	}
	r.draining = true
	c.Decide(trace.Decision{Kind: trace.Drain, Replica: r.ID})
	return true
}

// CompleteDrains runs phase two for every draining replica that has gone
// idle: migrate its KV exports to a serving peer over the modeled
// interconnect, then retire it. It never blocks: the replica retires at
// once and the migration's span is added to its active time, as if it had
// stayed on until its pages left. The cluster tick calls it before the
// fleet controller's pass and the scaler; iteration is in replica-ID order
// so same-seed runs decide identically.
func (c *Cluster) CompleteDrains() {
	for _, r := range c.replicas {
		if r.active && r.draining && r.health == HealthHealthy && r.Ctl.Instances() == 0 && r.Ctl.OutstandingCalls() == 0 {
			// Before the replica goes dark, migrate its KV exports to the
			// lowest-ID serving replica: application-managed prompt caches
			// survive the drain, and the kv-affinity router keeps finding
			// them on a placeable replica.
			pages, cost := 0, time.Duration(0)
			if dst := c.migrationTarget(r); dst != nil {
				pages, cost = r.Ctl.MigrateExportsTo(dst.Ctl)
			}
			c.markInactive(r)
			r.activeAccum += cost
			c.Decide(trace.Decision{Kind: trace.DrainDone, Replica: r.ID, Pages: pages, Cost: cost})
		}
	}
}

// migrationTarget picks the replica that inherits a drained replica's KV
// exports: the lowest-ID healthy serving replica other than the drained
// one. With roles assigned, decode-eligible replicas are preferred —
// exports hold decoded context, and parking them on a prefill-only
// replica would strand them where sessions cannot stay.
func (c *Cluster) migrationTarget(drained *Replica) (dst *Replica) {
	for _, r := range c.replicas {
		if r != drained && r.Serving() && (dst == nil || r.decodeEligible() && !dst.decodeEligible()) {
			dst = r
		}
	}
	return dst
}

// flipRole moves a serving replica to the other pool, as the role balancer
// decided on window bal. Launches place by the new role from now on, and
// hashStick's domain follows. Nothing on the replica moves: a session that
// began there as prefill decodes in place (MaybeHandoff clears its mark),
// one that arrived to decode keeps decoding, and its KV exports stay put.
func (c *Cluster) flipRole(r *Replica, role Role, bal trace.RoleBalance) {
	r.Role = role
	c.stick = c.stick[:0]
	for _, x := range c.replicas {
		if x.prefillEligible() {
			c.stick = append(c.stick, x)
		}
	}
	c.Decide(trace.Decision{Kind: trace.RoleFlip, Replica: r.ID, Role: role.String(), Balance: bal})
}

// Deactivate retires an idle replica immediately, without the drain
// phase. It is for set-up before any traffic exists — the fleet
// controller's initial alignment, or an engine built with cold spares; a
// loaded replica is refused (use BeginDrain). Reports whether the replica
// was retired.
func (c *Cluster) Deactivate(r *Replica) bool {
	if !r.active || r.Ctl.Instances() > 0 || r.Ctl.OutstandingCalls() > 0 {
		return false
	}
	c.markInactive(r)
	c.Decide(trace.Decision{Kind: trace.Deactivate, Replica: r.ID})
	return true
}

// SetPlacement swaps the routing policy live (manifest hot reload).
func (c *Cluster) SetPlacement(p PlacementPolicy) { c.policy = p }

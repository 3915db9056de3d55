package cluster

import "pie/internal/trace"

// Fleet ops: the one mutation surface of the active replica set and of the
// replicas' roles. The SLO
// scaler, the health monitor's spare activation, placement's last-resort
// revive and the declarative fleet controller (internal/fleet) all change
// the set through these verbs, so every caller honors the same invariants
// — activation only of healthy replicas, retirement only through the
// two-phase drain — and each change is one OnDecision record. A death,
// the one retirement outside these verbs, is the health monitor's dead
// record (health.go).

func (c *Cluster) fleetOp(op trace.Kind, r *Replica) {
	if c.OnDecision != nil {
		c.OnDecision(trace.Decision{T: c.now(), Kind: op, Replica: r.ID})
	}
}

// Activate brings a replica into the serving set, or cancels its drain if
// one is in progress. It refuses unhealthy or crashed replicas. Reports
// whether the replica's state changed.
func (c *Cluster) Activate(r *Replica) bool {
	if r.health != HealthHealthy || r.crashed {
		return false
	}
	if r.active && !r.draining {
		return false
	}
	if r.active && r.draining {
		// Cancel the drain: the replica never left the serving set.
		r.draining = false
		c.fleetOp(trace.Activate, r)
		return true
	}
	c.markActive(r)
	c.fleetOp(trace.Activate, r)
	return true
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
	c.DrainStart++
	c.fleetOp(trace.Drain, r)
	return true
}

// CompleteDrains runs phase two for every draining replica that has gone
// idle: migrate its KV exports to a serving peer over the modeled
// interconnect, then retire it. Scalers and the fleet controller call it
// on each tick; iteration is in replica-ID order so same-seed runs decide
// identically.
func (c *Cluster) CompleteDrains() {
	for _, r := range c.replicas {
		if r.active && r.draining && r.health == HealthHealthy && r.Ctl.Instances() == 0 && r.Ctl.OutstandingCalls() == 0 {
			// Before the replica goes dark, migrate its KV exports to the
			// lowest-ID serving replica: application-managed prompt caches
			// survive the drain, and the kv-affinity router keeps finding
			// them on a placeable replica. The transfer time (device ->
			// host -> peer) is charged to the calling tick.
			if dst := c.migrationTarget(r); dst != nil {
				pages, cost := r.Ctl.MigrateExportsTo(dst.Ctl)
				if pages > 0 {
					c.ExportsMigrated++
					c.PagesMigrated += pages
					c.clock.Sleep(cost)
				}
			}
			c.markInactive(r)
			c.DrainDone++
			c.fleetOp(trace.DrainDone, r)
		}
	}
}

// migrationTarget picks the replica that inherits a drained replica's KV
// exports: the lowest-ID healthy serving replica other than the drained
// one. With roles assigned, decode-eligible replicas are preferred —
// exports hold decoded context, and parking them on a prefill-only
// replica would strand them where sessions cannot stay.
func (c *Cluster) migrationTarget(drained *Replica) *Replica {
	if c.hasRoles {
		for _, r := range c.replicas {
			if r != drained && r.serving() && r.decodeEligible() {
				return r
			}
		}
	}
	for _, r := range c.replicas {
		if r != drained && r.serving() {
			return r
		}
	}
	return nil
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
	c.RoleFlips++
	if c.OnDecision != nil {
		c.OnDecision(trace.Decision{T: c.now(), Kind: trace.RoleFlip, Replica: r.ID, Role: role.String(), Balance: bal})
	}
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
	c.fleetOp(trace.Deactivate, r)
	return true
}

// SetPlacement swaps the routing policy live (manifest hot reload).
func (c *Cluster) SetPlacement(p PlacementPolicy) { c.policy = p }

// Placement reports the routing policy in effect.
func (c *Cluster) Placement() PlacementPolicy { return c.policy }

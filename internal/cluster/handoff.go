package cluster

import (
	"pie/api"
	"pie/internal/core"
	"pie/internal/sim"
)

// Prefill/decode KV handoff. A session launched onto a prefill replica
// runs through its first forward pass there, or only until it imports a
// prefilled prefix; the controller's first-token observer marks the
// instance HandoffPending at whichever comes first, and at the session's next
// forward boundary — when it is quiescent, with no queued or in-flight
// calls anywhere — MaybeHandoff migrates its KV pages to the least-loaded
// decode replica over the modeled interconnect and rebinds the session.
// Concurrent transfers share a bounded budget (a FIFO of sim signals), so
// a handoff storm queues rather than multiplying modeled PCIe bandwidth.

// HandoffConfig tunes prefill -> decode session migration.
type HandoffConfig struct {
	Enabled bool
	// Budget bounds concurrent in-flight KV transfers (default 2); excess
	// handoffs queue FIFO and are charged the wait.
	Budget int
	// MinPages keeps small sessions on their prefill replica: a session
	// whose distinct physical KV footprint is below the floor decodes in
	// place, because moving a near-empty cache costs more in rebind and
	// batch-join misses than the decode interference it avoids. 0 migrates
	// everything.
	MinPages int
}

// EnableHandoff arms the handoff coordinator: every prefill-role replica
// gets a first-token observer that marks its sessions for migration, and
// sessions resolve their host replica through the controller index.
func (c *Cluster) EnableHandoff(cfg HandoffConfig) {
	cfg.Enabled = true
	if cfg.Budget <= 0 {
		cfg.Budget = 2
	}
	c.handoff = cfg
	c.ctlIndex = make(map[*core.Controller]*Replica, len(c.replicas))
	for _, r := range c.replicas {
		c.ctlIndex[r.Ctl] = r
		if r.Role == RolePrefill {
			r.Ctl.SetFirstTokenObserver(func(inst *core.Instance) {
				inst.HandoffPending = true
			})
		}
	}
}

// HandoffEnabled reports whether the coordinator is armed.
func (c *Cluster) HandoffEnabled() bool { return c.handoff.Enabled }

// MaybeHandoff migrates a HandoffPending session off its prefill replica
// to the least-loaded decode-eligible replica, returning the session's new
// controller and instance. It runs synchronously in the session's own
// process (the ilm.HandoffCoordinator contract), so the transfer time and
// any budget wait are charged to the session. A false return means the
// session stays put: nothing pending, not yet quiescent (retried at the
// next forward boundary), or no decode capacity (pending is cleared and
// the denial counted — the session finishes where it started rather than
// stall, per api.ErrNoDecodeCapacity).
func (c *Cluster) MaybeHandoff(ctl *core.Controller, inst *core.Instance) (*core.Controller, *core.Instance, bool) {
	if !c.handoff.Enabled || inst == nil || !inst.HandoffPending || inst.Dead() {
		return nil, nil, false
	}
	src := c.ctlIndex[ctl]
	if src == nil || src.Role != RolePrefill {
		inst.HandoffPending = false
		return nil, nil, false
	}
	if !ctl.InstanceQuiescent(inst) {
		// Calls are still queued or in flight (pipelined forwards); keep the
		// mark and retry at the next forward boundary.
		return nil, nil, false
	}
	if min := c.handoff.MinPages; min > 0 {
		if pages := ctl.InstanceKVFootprint(inst); pages < min {
			inst.HandoffPending = false
			c.HandoffSkipped++
			c.logDecision("handoff skipped: %s#%d replica=%d pages=%d<%d",
				inst.Name, inst.ID, src.ID, pages, min)
			return nil, nil, false
		}
	}
	c.HandoffRequests++
	dst := c.handoffTarget(src)
	if dst == nil {
		return c.denyHandoff(inst, src, api.ErrNoDecodeCapacity)
	}
	// The slot is released by the deferred closure on every exit — including
	// the session's process dying mid-transfer (replica death aborts it with
	// a Killed unwind inside HandoffSession or the Sleep below). Before the
	// defer, a killed holder leaked its slot and every later handoff on a
	// saturated budget parked forever.
	release := c.acquireTransferSlot()
	defer release()
	// The wait may have been long: revalidate the session and re-pick the
	// destination under current load before touching any pages.
	if inst.Dead() || !ctl.InstanceQuiescent(inst) {
		return nil, nil, false
	}
	if dst = c.handoffTarget(src); dst == nil {
		return c.denyHandoff(inst, src, api.ErrNoDecodeCapacity)
	}
	ni, pages, cost, err := ctl.HandoffSession(inst, dst.Ctl)
	if err != nil {
		return c.denyHandoff(inst, src, err)
	}
	// Hold the transfer slot for the modeled interconnect time: the budget
	// bounds concurrent wire occupancy, not merely concurrent setup.
	c.clock.Sleep(cost)
	c.Handoffs++
	c.HandoffPages += pages
	c.HandoffTime += cost
	src.HandoffsOut++
	dst.HandoffsIn++
	dst.Placements++
	c.logDecision("handoff: %s#%d replica=%d->%d pages=%d cost=%v",
		ni.Name, ni.ID, src.ID, dst.ID, pages, cost)
	return dst.Ctl, ni, true
}

// denyHandoff clears the pending mark (the session decodes in place) and
// records the denial.
func (c *Cluster) denyHandoff(inst *core.Instance, src *Replica, err error) (*core.Controller, *core.Instance, bool) {
	inst.HandoffPending = false
	c.HandoffDenied++
	c.logDecision("handoff denied: %s#%d replica=%d: %v", inst.Name, inst.ID, src.ID, err)
	return nil, nil, false
}

// handoffTarget picks the least-loaded healthy serving decode-eligible
// replica other than the source, or nil when none survives.
func (c *Cluster) handoffTarget(src *Replica) *Replica {
	var cands []*Replica
	for _, r := range c.replicas {
		if r != src && r.active && !r.draining && r.health == HealthHealthy && r.decodeEligible() {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return pickLeastLoaded(cands)
}

// handoffWaiter is one FIFO entry for a session queued on the transfer
// budget. The flags cover the two ways a waiter can die instead of
// transferring: abandoned marks a waiter killed while parked (its replica
// died), so release skips the ghost instead of handing it the slot; granted
// marks the hand-over instant, so a waiter killed between the grant and its
// wake-up knows it owns a slot it must pass on.
type handoffWaiter struct {
	s         *sim.Signal
	granted   bool
	abandoned bool
}

// acquireTransferSlot blocks until a transfer-budget slot frees, FIFO, and
// returns an idempotent release. Callers defer it so the slot survives no
// code path — including a Killed unwind while the session holds it.
func (c *Cluster) acquireTransferSlot() (release func()) {
	released := false
	release = func() {
		if released {
			return
		}
		released = true
		c.releaseTransferSlot()
	}
	if c.handoffActive < c.handoff.Budget {
		c.handoffActive++
		return release
	}
	w := &handoffWaiter{s: sim.NewSignal(c.clock)}
	c.handoffWaiters = append(c.handoffWaiters, w)
	c.HandoffQueued++
	acquired := false
	defer func() {
		if acquired {
			return
		}
		// Killed while queued: either the slot was never handed over (mark
		// the entry so release skips it) or it was granted in the instant
		// between hand-over and wake-up — then this waiter owns it and must
		// pass it on, or the budget shrinks by one forever.
		if w.granted {
			c.releaseTransferSlot()
		} else {
			w.abandoned = true
		}
	}()
	_ = sim.Await(w.s)
	acquired = true
	return release
}

// TransferBudgetState reports the transfer budget's occupancy: slots held
// plus waiters still eligible for a grant (abandoned entries — waiters
// that died while queued — are excluded). After every session resolves,
// both must be zero; tests use this as the no-leak invariant.
func (c *Cluster) TransferBudgetState() (active, liveWaiters int) {
	for _, w := range c.handoffWaiters {
		if !w.abandoned {
			liveWaiters++
		}
	}
	return c.handoffActive, liveWaiters
}

// releaseTransferSlot hands the slot to the first live waiter if any (the
// slot transfers: handoffActive stays constant), else frees it. Waiters
// that died while queued are dropped, not granted.
func (c *Cluster) releaseTransferSlot() {
	for len(c.handoffWaiters) > 0 {
		w := c.handoffWaiters[0]
		c.handoffWaiters = c.handoffWaiters[1:]
		if w.abandoned {
			continue
		}
		w.granted = true
		sim.Fire(w.s)
		return
	}
	c.handoffActive--
}

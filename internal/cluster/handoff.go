package cluster

import (
	"time"

	"pie/api"
	"pie/internal/core"
	"pie/internal/sim"
	"pie/internal/trace"
)

// Prefill/decode KV handoff. A session launched onto a prefill replica
// runs through its first forward pass there, or only until it imports a
// prefilled prefix; its Prefilled span, folded by Span, marks the
// instance HandoffPending at whichever comes first, and at the session's
// next forward boundary — when it is quiescent, with no queued or in-flight
// calls anywhere — MaybeHandoff migrates its KV pages over the modeled
// interconnect to the decode replica whose next forward after the pages
// land completes first, and rebinds the session. Concurrent transfers share
// a bounded budget (slots, with a sim.WaitList of waiters), so a handoff
// storm queues rather than multiplying modeled PCIe bandwidth.

// HandoffConfig tunes prefill -> decode session migration.
type HandoffConfig struct {
	// Budget bounds concurrent in-flight KV transfers (default 2); excess
	// handoffs queue FIFO and are charged the wait.
	Budget int
}

// EnableHandoff arms the handoff coordinator: a Prefilled span on a
// replica whose role is prefill marks its session for migration (Span),
// and sessions resolve their host replica through the controller index.
// On a fleet with roles it also puts the role balancer (roles.go) on the
// cluster tick.
func (c *Cluster) EnableHandoff(cfg HandoffConfig) {
	if cfg.Budget <= 0 {
		cfg.Budget = 2
	}
	c.handoff = cfg
	c.transferWait = sim.NewWaitList(c.clock, func() { c.handoffActive-- })
	c.ctlIndex = make(map[*core.Controller]*Replica, len(c.replicas))
	for _, r := range c.replicas {
		c.ctlIndex[r.Ctl] = r
	}
	if c.hasRoles {
		c.windowAt = c.now()
		c.policies[tickBalance] = policy{period: roleWindow, run: c.balanceRoles}
	}
}

// MaybeHandoff moves a HandoffPending session's instance off its prefill
// replica to the decode-eligible replica handoffTarget picks, returning the
// session's new controller. It runs synchronously in the session's own
// process (the ilm.HandoffCoordinator contract), so the transfer time and
// any budget wait are charged to the session. A false
// return means the session stays put: nothing pending, not yet quiescent
// (retried at the next forward boundary), or no decode capacity (pending
// is cleared and the denial counted — the session finishes where it
// started rather than stall, per api.ErrNoDecodeCapacity).
func (c *Cluster) MaybeHandoff(ctl *core.Controller, inst *core.Instance) (*core.Controller, bool) {
	if c.transferWait == nil || inst == nil || !inst.HandoffPending || inst.Dead() {
		return nil, false
	}
	src := c.ctlIndex[ctl]
	if src == nil || src.Role != RolePrefill {
		inst.HandoffPending = false
		return nil, false
	}
	if !ctl.InstanceQuiescent(inst) {
		// Calls are still queued or in flight (pipelined forwards); keep the
		// mark and retry at the next forward boundary.
		return nil, false
	}
	wire := ctl.InstanceKVFootprint(inst)
	if pick, _ := c.handoffTarget(src, wire); pick.r == nil {
		return c.denyHandoff(inst, src, api.ErrNoDecodeCapacity)
	}
	// The slot is released by the deferred release on every exit — including
	// the session's process dying mid-transfer (replica death aborts it with
	// a Killed unwind inside HandoffSession or the Sleep below). Before the
	// defer, a killed holder leaked its slot and every later handoff on a
	// saturated budget parked forever.
	slot := c.acquireTransferSlot()
	defer slot.release()
	// The wait may have been long: revalidate the session and re-pick the
	// destination under current load before touching any pages.
	if inst.Dead() || !ctl.InstanceQuiescent(inst) {
		return nil, false
	}
	pick, runnerUp := c.handoffTarget(src, wire)
	dst := pick.r
	if dst == nil {
		return c.denyHandoff(inst, src, api.ErrNoDecodeCapacity)
	}
	pages, cost, err := ctl.HandoffSession(inst, dst.Ctl)
	if err != nil {
		return c.denyHandoff(inst, src, err)
	}
	// Hold the transfer slot for the modeled interconnect time: the budget
	// bounds concurrent wire occupancy, not merely concurrent setup.
	c.clock.Sleep(cost)
	c.Decide(trace.Decision{Kind: trace.Handoff, Session: inst.Session, Replica: src.ID, Dest: dst.ID,
		Pages: pages, Cost: cost, Chosen: pick.candidate(), RunnerUp: runnerUp.candidate()})
	return dst.Ctl, true
}

// denyHandoff clears the pending mark (the session decodes in place) and
// records the denial.
func (c *Cluster) denyHandoff(inst *core.Instance, src *Replica, err error) (*core.Controller, bool) {
	inst.HandoffPending = false
	c.Decide(trace.Decision{Kind: trace.HandoffDeny, Session: inst.Session, Replica: src.ID, Err: err})
	return nil, false
}

// handoffTarget picks, among the serving decode-eligible replicas other
// than the source, the one whose first forward after the session lands
// completes soonest: argmin with the delay NextForwardDone(now+wire) − now.
// The session lands once its KV footprint's wire time has passed; the
// adaptive batch former takes it into the first forward that starts after
// that, and the load term adds one decode sequence's cost per outstanding
// token. It returns the pick and the runner-up; a result's r is nil when
// there is none.
func (c *Cluster) handoffTarget(src *Replica, wire time.Duration) (pick, runnerUp scored) {
	now := c.now()
	return argmin(c.replicas, func(r *Replica) (time.Duration, bool) {
		if r == src || !r.Serving() || !r.decodeEligible() {
			return 0, false
		}
		return r.Backend.NextForwardDone(now+wire) - now, true
	})
}

// acquireTransferSlot blocks until a transfer-budget slot frees, FIFO, and
// returns it held. Callers defer its release so the slot survives no code
// path — including a Killed unwind while the session holds it. A release
// hands the slot over with its wake (handoffActive stays put); the wait
// list skips waiters killed while queued, and one killed between the
// hand-over and its wake-up passes the slot on or frees it.
func (c *Cluster) acquireTransferSlot() transferSlot {
	if c.handoffActive < c.handoff.Budget {
		c.handoffActive++
		return transferSlot{c: c}
	}
	c.HandoffQueued++
	c.transferWait.Wait(false, 0)
	return transferSlot{c: c}
}

// transferSlot is one held slot of the transfer budget.
type transferSlot struct {
	c        *Cluster
	released bool
}

// release gives the slot up: to the head waiter, or back to the budget when
// nobody waits. A second release does nothing.
func (s *transferSlot) release() {
	if s.released {
		return
	}
	s.released = true
	if !s.c.transferWait.Wake() {
		s.c.handoffActive--
	}
}

package cluster

import (
	"strconv"
	"time"

	"pie/api"
	"pie/internal/core"
	"pie/internal/sim"
	"pie/internal/trace"
)

// Prefill/decode KV handoff. A session launched onto a prefill replica
// runs through its first forward pass there, or only until it imports a
// prefilled prefix; the controller's first-token observer marks the
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

// EnableHandoff arms the handoff coordinator: every replica gets a
// first-token observer that marks the session for migration while the
// replica's role is prefill, and sessions resolve their host replica
// through the controller index. On a fleet with roles it also arms the
// role balancer (roles.go).
func (c *Cluster) EnableHandoff(cfg HandoffConfig) {
	if cfg.Budget <= 0 {
		cfg.Budget = 2
	}
	c.handoff = cfg
	c.transferWait = sim.NewWaitList(c.clock, func() { c.handoffActive-- })
	c.ctlIndex = make(map[*core.Controller]*Replica, len(c.replicas))
	for _, r := range c.replicas {
		c.ctlIndex[r.Ctl] = r
		r.Ctl.SetFirstTokenObserver(func(inst *core.Instance) {
			if r.Role == RolePrefill {
				inst.HandoffPending = true
			}
		})
	}
	if c.hasRoles {
		c.clock.Every(roleWindow, c.balanceRoles)
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
	c.HandoffRequests++
	if pick, _ := c.handoffTarget(src, wire); pick.r == nil {
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
	c.Handoffs++
	c.HandoffPages += pages
	c.HandoffTime += cost
	src.HandoffsOut++
	dst.HandoffsIn++
	dst.Placements++
	if c.OnDecision != nil {
		c.OnDecision(trace.Decision{T: c.now(), Kind: trace.Handoff, Session: session(inst), Replica: src.ID, Dest: dst.ID,
			Pages: pages, Cost: cost, Chosen: pick.candidate(), RunnerUp: runnerUp.candidate()})
	}
	return dst.Ctl, true
}

// denyHandoff clears the pending mark (the session decodes in place) and
// records the denial.
func (c *Cluster) denyHandoff(inst *core.Instance, src *Replica, err error) (*core.Controller, bool) {
	inst.HandoffPending = false
	c.HandoffDenied++
	if c.OnDecision != nil {
		c.OnDecision(trace.Decision{T: c.now(), Kind: trace.HandoffDeny, Session: session(inst), Replica: src.ID, Err: err})
	}
	return nil, false
}

// session names an instance in decision records.
func session(inst *core.Instance) string {
	return inst.Name + "#" + strconv.FormatUint(inst.ID, 10)
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
		if r == src || !r.serving() || !r.decodeEligible() {
			return 0, false
		}
		return r.Backend.NextForwardDone(now+wire) - now, true
	})
}

// acquireTransferSlot blocks until a transfer-budget slot frees, FIFO, and
// returns an idempotent release. Callers defer it so the slot survives no
// code path — including a Killed unwind while the session holds it. A
// release hands the slot over with its wake (handoffActive stays put); the
// wait list skips waiters killed while queued, and one killed between the
// hand-over and its wake-up passes the slot on or frees it.
func (c *Cluster) acquireTransferSlot() (release func()) {
	released := false
	release = func() {
		if released {
			return
		}
		released = true
		if !c.transferWait.Wake() {
			c.handoffActive--
		}
	}
	if c.handoffActive < c.handoff.Budget {
		c.handoffActive++
		return release
	}
	c.HandoffQueued++
	c.transferWait.Wait(false, 0)
	return release
}

// TransferBudgetState reports the transfer budget's occupancy: slots held
// and sessions queued for one. After every session resolves, both must be
// zero; tests use this as the no-leak invariant.
func (c *Cluster) TransferBudgetState() (active, waiting int) {
	return c.handoffActive, c.transferWait.Len()
}

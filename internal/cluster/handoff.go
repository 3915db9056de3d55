package cluster

import (
	"cmp"
	"slices"
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
// a bounded budget (a FIFO of sim signals), so a handoff storm queues
// rather than multiplying modeled PCIe bandwidth.

// HandoffConfig tunes prefill -> decode session migration.
type HandoffConfig struct {
	Enabled bool
	// Budget bounds concurrent in-flight KV transfers (default 2); excess
	// handoffs queue FIFO and are charged the wait.
	Budget int
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
// to the decode-eligible replica handoffTarget picks, returning the
// session's new controller and instance. It runs synchronously in the
// session's own process (the ilm.HandoffCoordinator contract), so the
// transfer time and any budget wait are charged to the session. A false
// return means the session stays put: nothing pending, not yet quiescent
// (retried at the next forward boundary), or no decode capacity (pending
// is cleared and the denial counted — the session finishes where it
// started rather than stall, per api.ErrNoDecodeCapacity).
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
		return nil, nil, false
	}
	pick, runnerUp := c.handoffTarget(src, wire)
	dst := pick.r
	if dst == nil {
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
	if c.OnDecision != nil {
		c.OnDecision(trace.Decision{T: c.now(), Kind: trace.Handoff, Session: session(ni), Replica: src.ID, Dest: dst.ID,
			Pages: pages, Cost: cost, Chosen: pick.candidate(), RunnerUp: runnerUp.candidate()})
	}
	return dst.Ctl, ni, true
}

// denyHandoff clears the pending mark (the session decodes in place) and
// records the denial.
func (c *Cluster) denyHandoff(inst *core.Instance, src *Replica, err error) (*core.Controller, *core.Instance, bool) {
	inst.HandoffPending = false
	c.HandoffDenied++
	if c.OnDecision != nil {
		c.OnDecision(trace.Decision{T: c.now(), Kind: trace.HandoffDeny, Session: session(inst), Replica: src.ID, Err: err})
	}
	return nil, nil, false
}

// session names an instance in decision records.
func session(inst *core.Instance) string {
	return inst.Name + "#" + strconv.FormatUint(inst.ID, 10)
}

// handoffCand is a decode replica a session may move to, scored by when its
// first forward after the session lands completes (pred, from now) plus
// what its outstanding tokens add to that forward (load).
type handoffCand struct {
	r          *Replica
	pred, load time.Duration
}

func (h handoffCand) score() time.Duration { return h.pred + h.load }

func (h handoffCand) candidate() trace.Candidate {
	if h.r == nil {
		return trace.Candidate{Replica: -1}
	}
	return trace.Candidate{Replica: h.r.ID, Pred: h.pred, Load: h.load}
}

// handoffTarget picks, among the healthy serving decode-eligible replicas
// other than the source, the one whose first forward after the session lands
// completes soonest. The session lands once its KV footprint's wire time has
// passed; the adaptive batch former takes it into the first forward that
// starts after that, and each token a replica has outstanding adds one
// decode sequence's cost to the forward. Exact ties go to the least-loaded
// replica. It returns the pick and the runner-up; a candidate's r is nil
// when there is none.
func (c *Cluster) handoffTarget(src *Replica, wire time.Duration) (pick, runnerUp handoffCand) {
	now := c.now()
	cands := make([]handoffCand, 0, len(c.replicas))
	for _, r := range c.replicas {
		if r != src && r.active && !r.draining && r.health == HealthHealthy && r.decodeEligible() {
			cands = append(cands, handoffCand{
				r:    r,
				pred: r.Backend.NextForwardDone(now+wire) - now,
				load: time.Duration(r.Ctl.OutstandingTokens()) * r.Ctl.PerTokenDecode(),
			})
		}
	}
	if len(cands) == 0 {
		return pick, runnerUp
	}
	slices.SortStableFunc(cands, func(a, b handoffCand) int { return cmp.Compare(a.score(), b.score()) })
	tied := 1
	for tied < len(cands) && cands[tied].score() == cands[0].score() {
		tied++
	}
	if tied > 1 {
		rs := make([]*Replica, tied)
		for i := range rs {
			rs[i] = cands[i].r
		}
		i := slices.Index(rs, pickLeastLoaded(rs))
		cands[0], cands[i] = cands[i], cands[0]
	}
	pick = cands[0]
	if len(cands) > 1 {
		runnerUp = cands[1]
	}
	return pick, runnerUp
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

// White-box unit tests for the handoff coordinator's guard branches and
// the role-aware corners of scaling and drain migration that engine-level
// tests cannot steer into: foreign controllers, non-prefill sources, the
// starved-role scale-up preference, and the decode-eligible migration
// target.
package cluster

import (
	"testing"
	"time"

	"pie/internal/core"
	"pie/internal/sim"
	"pie/internal/trace"
)

func TestMaybeHandoffGuards(t *testing.T) {
	c := &Cluster{}
	if c.HandoffEnabled() {
		t.Fatal("zero-value cluster reports handoff enabled")
	}
	// Disabled coordinator: nothing moves, no counters tick.
	if _, ok := c.MaybeHandoff(nil, nil); ok {
		t.Fatal("disabled coordinator migrated")
	}
	c.handoff = HandoffConfig{Enabled: true}
	if !c.HandoffEnabled() {
		t.Fatal("armed coordinator reports disabled")
	}
	// Nil instance (a session that never bound a queue).
	if _, ok := c.MaybeHandoff(nil, nil); ok {
		t.Fatal("nil instance migrated")
	}
	// A controller the coordinator does not index (e.g. a replica added
	// after arming): the pending mark clears and the session stays put.
	inst := &core.Instance{HandoffPending: true}
	if _, ok := c.MaybeHandoff(nil, inst); ok {
		t.Fatal("unknown source controller migrated")
	}
	if inst.HandoffPending {
		t.Fatal("pending mark survived an unknown source")
	}
	// A non-prefill source: only prefill replicas hand sessions off.
	ctl := &core.Controller{}
	c.ctlIndex = map[*core.Controller]*Replica{ctl: {ID: 3, Role: RoleDecode}}
	inst.HandoffPending = true
	if _, ok := c.MaybeHandoff(ctl, inst); ok {
		t.Fatal("decode-role source migrated")
	}
	if inst.HandoffPending {
		t.Fatal("pending mark survived a non-prefill source")
	}
}

// TestTransferSlotKillPaths scripts the three ways a replica death can
// intersect the transfer budget, on a bare clock with Budget=1:
//
//   - the slot holder is killed mid-transfer (the deferred release must
//     pass the slot on, not leak it);
//   - a queued waiter is killed while parked (release must skip the ghost,
//     not grant a dead process the slot);
//   - a waiter is killed in the instant between being granted the slot and
//     waking (its unwind must release the slot it now owns).
//
// Before the deferred-release fix, the first two paths each leaked a slot:
// every later handoff on the saturated budget parked forever and the run
// deadlocked.
func TestTransferSlotKillPaths(t *testing.T) {
	clock := sim.NewClock()
	c := &Cluster{clock: clock, handoff: HandoffConfig{Enabled: true, Budget: 1}}
	var log []string
	use := func(name string, hold time.Duration) func() {
		return func() {
			release := c.acquireTransferSlot()
			defer release()
			log = append(log, name)
			clock.Sleep(hold)
		}
	}
	a := clock.Go("a", use("a", 10*time.Millisecond))
	var b *sim.Proc
	clock.Go("script", func() {
		clock.Sleep(time.Millisecond)
		b = clock.Go("b", use("b", 10*time.Millisecond))
		clock.Sleep(time.Millisecond)
		clock.Go("c", use("c", 2*time.Millisecond))
		clock.Sleep(time.Millisecond)
		// t=3ms: waiter b dies while parked on the budget.
		clock.Kill(b)
		clock.Sleep(time.Millisecond)
		// t=4ms: holder a dies mid-transfer. Its deferred release must skip
		// the dead b and grant c.
		clock.Kill(a)
		clock.Sleep(10 * time.Millisecond)
		// t=14ms: the slot is free again (c released at ~6ms).
		clock.Go("d", use("d", time.Millisecond))
	})
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v (a leaked transfer slot deadlocks the clock)", err)
	}
	want := "a,c,d"
	got := ""
	for i, s := range log {
		if i > 0 {
			got += ","
		}
		got += s
	}
	if got != want {
		t.Fatalf("acquisition order = %q, want %q", got, want)
	}
	if active, waiting := c.TransferBudgetState(); active != 0 || waiting != 0 {
		t.Fatalf("budget state after drain = %d active, %d live waiters; want 0/0", active, waiting)
	}
	if c.HandoffQueued != 2 {
		t.Fatalf("HandoffQueued = %d, want 2", c.HandoffQueued)
	}
}

// TestTransferSlotGrantedThenKilled covers the razor's edge: the head
// waiter is granted the slot by a releasing holder and killed at the same
// virtual instant, before it wakes. Its unwind owns the slot and must pass
// it on.
func TestTransferSlotGrantedThenKilled(t *testing.T) {
	clock := sim.NewClock()
	c := &Cluster{clock: clock, handoff: HandoffConfig{Enabled: true, Budget: 1}}
	var order []string
	use := func(name string, hold time.Duration) func() {
		return func() {
			release := c.acquireTransferSlot()
			defer release()
			order = append(order, name)
			clock.Sleep(hold)
		}
	}
	clock.Go("a", use("a", 10*time.Millisecond))
	var b *sim.Proc
	clock.Go("script", func() {
		clock.Sleep(time.Millisecond)
		b = clock.Go("b", use("b", 10*time.Millisecond))
		// Sleep to the exact instant a's hold ends: a wakes first (older
		// event), releases, grants b; then this kill lands before b's
		// wake-up event dispatches.
		clock.Sleep(9 * time.Millisecond)
		clock.Kill(b)
		clock.Sleep(time.Millisecond)
		clock.Go("d", use("d", time.Millisecond))
	})
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "d" {
		t.Fatalf("acquisition order = %v, want [a d]", order)
	}
	if active, waiting := c.TransferBudgetState(); active != 0 || waiting != 0 {
		t.Fatalf("budget state = %d active, %d live waiters; want 0/0", active, waiting)
	}
}

func TestScaleUpPrefersStarvedRole(t *testing.T) {
	c := &Cluster{hasRoles: true, replicas: []*Replica{
		{ID: 0, Role: RolePrefill, CostRate: 0.5, health: HealthHealthy},
		{ID: 1, Role: RoleDecode, CostRate: 1.0, health: HealthHealthy},
	}}
	// The decode spare wins despite the prefill spare being cheaper and
	// lower-ID: capacity must land on the starving phase.
	c.scaleUpCostAware(trace.Decision{}, RoleDecode)
	if c.replicas[0].active || !c.replicas[1].active {
		t.Fatalf("scale-up ignored the starved role: %+v", c.replicas)
	}
	// With no spare of the starved role left, any spare still serves —
	// capacity beats phase purity.
	c.scaleUpCostAware(trace.Decision{}, RoleDecode)
	if !c.replicas[0].active {
		t.Fatal("scale-up refused the off-role spare")
	}
}

func TestMigrationTargetPrefersDecodeEligible(t *testing.T) {
	drained := &Replica{ID: 0, Role: RolePrefill, active: true, draining: true, health: HealthHealthy}
	pre := &Replica{ID: 1, Role: RolePrefill, active: true, health: HealthHealthy}
	dec := &Replica{ID: 2, Role: RoleDecode, active: true, health: HealthHealthy}
	c := &Cluster{hasRoles: true, replicas: []*Replica{drained, pre, dec}}
	// Exports from a draining replica land where handed-off sessions may
	// follow them: decode-eligible first.
	if got := c.migrationTarget(drained); got != dec {
		t.Fatalf("migration target = %+v, want the decode replica", got)
	}
	// No decode-eligible survivor: any healthy serving replica will do.
	c = &Cluster{hasRoles: true, replicas: []*Replica{drained, pre}}
	if got := c.migrationTarget(drained); got != pre {
		t.Fatalf("migration fallback = %+v, want the prefill replica", got)
	}
	// No survivor at all.
	c = &Cluster{replicas: []*Replica{drained}}
	if got := c.migrationTarget(drained); got != nil {
		t.Fatalf("migration target = %+v, want nil", got)
	}
}

func TestRoleNames(t *testing.T) {
	if RoleUnified.String() != "unified" || RolePrefill.String() != "prefill" || RoleDecode.String() != "decode" {
		t.Fatalf("role names: %v %v %v", RoleUnified, RolePrefill, RoleDecode)
	}
	for in, want := range map[string]Role{
		"both": RoleUnified, "": RoleUnified,
		"p": RolePrefill, "Prefill": RolePrefill,
		"d": RoleDecode, " decode ": RoleDecode,
	} {
		got, err := ParseRole(in)
		if err != nil || got != want {
			t.Fatalf("ParseRole(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseRole("frontend"); err == nil {
		t.Fatal("ParseRole accepted an unknown role")
	}
}

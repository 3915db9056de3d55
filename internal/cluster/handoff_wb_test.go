// White-box unit tests for the handoff coordinator's guard branches, its
// transfer slots under kills, and the role-aware corners of scaling and drain migration that engine-level
// tests cannot steer into: foreign controllers, non-prefill sources, the
// starved-role scale-up preference, and the decode-eligible migration
// target.
package cluster

import (
	"slices"
	"testing"
	"time"

	"pie/internal/core"
	"pie/internal/sim"
	"pie/internal/trace"
)

func TestMaybeHandoffGuards(t *testing.T) {
	c := &Cluster{}
	// Disabled coordinator: nothing moves, no counters tick.
	inst := &core.Instance{HandoffPending: true}
	if _, ok := c.MaybeHandoff(nil, inst); ok || !inst.HandoffPending {
		t.Fatal("disabled coordinator migrated or cleared the pending mark")
	}
	c.EnableHandoff(HandoffConfig{})
	// Nil instance (a session that never bound a queue).
	if _, ok := c.MaybeHandoff(nil, nil); ok {
		t.Fatal("nil instance migrated")
	}
	// A controller the coordinator does not index (e.g. a replica added
	// after arming): the pending mark clears and the session stays put.
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

func TestScaleUpPrefersStarvedRole(t *testing.T) {
	c := &Cluster{hasRoles: true, replicas: []*Replica{
		{ID: 0, Role: RolePrefill, CostRate: 0.5, health: HealthHealthy},
		{ID: 1, Role: RoleDecode, CostRate: 1.0, health: HealthHealthy},
	}}
	// The decode spare wins despite the prefill spare being cheaper and
	// lower-ID: capacity must land on the starving phase.
	c.scaleUpCostAware(0, trace.Decision{}, RoleDecode)
	if c.replicas[0].active || !c.replicas[1].active {
		t.Fatalf("scale-up ignored the starved role: %+v", c.replicas)
	}
	// With no spare of the starved role left, any spare still serves —
	// capacity beats phase purity.
	c.scaleUpCostAware(1, trace.Decision{}, RoleDecode)
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

// slotCluster is a cluster with nothing but a one-slot transfer budget, and
// use makes a process body that holds a slot of it for hold, as a handoff
// does, logging the order the slots were granted in.
func slotCluster(clock *sim.Clock, log *[]string) (c *Cluster, use func(name string, hold time.Duration) func()) {
	c = &Cluster{clock: clock}
	c.EnableHandoff(HandoffConfig{Budget: 1})
	return c, func(name string, hold time.Duration) func() {
		return func() {
			slot := c.acquireTransferSlot()
			defer slot.release()
			*log = append(*log, name)
			clock.Sleep(hold)
		}
	}
}

// TestTransferSlotKillPaths scripts the three ways a kill can meet a
// one-slot budget: the holder is killed mid-transfer (its deferred release
// must pass the slot on), a queued waiter is killed while parked (the
// release must skip it), and both in one run. A leaked slot parks every
// later acquirer forever and the run deadlocks.
func TestTransferSlotKillPaths(t *testing.T) {
	clock := sim.NewClock()
	var log []string
	c, use := slotCluster(clock, &log)
	a := clock.Go("a", use("a", 10*time.Millisecond))
	clock.Go("script", func() {
		clock.Sleep(time.Millisecond)
		b := clock.Go("b", use("b", 10*time.Millisecond))
		clock.Sleep(time.Millisecond)
		clock.Go("c", use("c", 2*time.Millisecond))
		clock.Sleep(time.Millisecond)
		clock.Kill(b) // t=3ms: waiter b dies while parked
		clock.Sleep(time.Millisecond)
		clock.Kill(a) // t=4ms: holder a dies mid-transfer; c gets the slot
		clock.Sleep(10 * time.Millisecond)
		clock.Go("d", use("d", time.Millisecond)) // t=14ms: the slot is free
	})
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v (a leaked transfer slot deadlocks the clock)", err)
	}
	if want := []string{"a", "c", "d"}; !slices.Equal(log, want) {
		t.Fatalf("acquisition order = %v, want %v", log, want)
	}
	if err := c.Check(); err != nil || c.HandoffQueued != 2 {
		t.Fatalf("after the drain: %d queued, want 2: %v", c.HandoffQueued, err)
	}
}

// TestTransferSlotGrantedThenKilled: the head waiter is handed the slot by a
// releasing holder and killed at the same instant, before it wakes. Its
// unwind owns the slot and must free it.
func TestTransferSlotGrantedThenKilled(t *testing.T) {
	clock := sim.NewClock()
	var log []string
	c, use := slotCluster(clock, &log)
	clock.Go("a", use("a", 10*time.Millisecond))
	clock.Go("script", func() {
		clock.Sleep(time.Millisecond)
		b := clock.Go("b", use("b", 10*time.Millisecond))
		// At 10ms a wakes first (older event), releases and hands b the slot;
		// this kill lands before b's wake dispatches.
		clock.Sleep(9 * time.Millisecond)
		clock.Kill(b)
		clock.Sleep(time.Millisecond)
		clock.Go("d", use("d", time.Millisecond))
	})
	if err := clock.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []string{"a", "d"}; !slices.Equal(log, want) {
		t.Fatalf("acquisition order = %v, want %v", log, want)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// White-box unit tests for the handoff coordinator's guard branches and
// the role-aware corners of scaling and drain migration that engine-level
// tests cannot steer into: foreign controllers, non-prefill sources, the
// starved-role scale-up preference, and the decode-eligible migration
// target.
package cluster

import (
	"testing"

	"pie/internal/core"
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

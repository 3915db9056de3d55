package cluster

import (
	"slices"
	"testing"

	"pie/api"
	"pie/internal/core"
	"pie/internal/trace"
)

// TestDecisionSitesFreeWhenUnobserved: with no OnDecision hook a decision
// site allocates nothing, so a handoff denial and a cost-aware scale-down
// and scale-up on a clockless cluster allocate nothing, and still move the
// counters they fold into; with the hook set the same calls deliver their
// records with the fields filled, a denial naming the instance's session
// key (not its replica-local id), and still allocate nothing themselves.
func TestDecisionSitesFreeWhenUnobserved(t *testing.T) {
	c := &Cluster{replicas: []*Replica{
		{ID: 0, Variant: "l4e", CostRate: 0.6, active: true, health: HealthHealthy},
		{ID: 1, Variant: "l4", CostRate: 1.0, active: true, health: HealthHealthy},
	}}
	inst := &core.Instance{ID: 3, Session: 7, Name: "text_completion"}
	run := func() {
		c.denyHandoff(inst, c.replicas[0], api.ErrNoDecodeCapacity)
		c.scaleDownCostAware(0.1, [3]float64{}, [3]int{2})
		c.scaleUpCostAware(1, trace.Decision{Sat: 0.9}, RoleUnified) // un-drains replica 1
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("unobserved decision sites allocated %v times per run, want 0", n)
	}
	// AllocsPerRun runs once to warm up, then 100 times.
	if c.HandoffDenied != 101 || c.DrainStart != 101 || c.ScaleUps != 101 {
		t.Fatalf("unobserved: %d denials, %d drains, %d scale-ups; want 101 of each", c.HandoffDenied, c.DrainStart, c.ScaleUps)
	}
	var last trace.Decision
	c.OnDecision = func(d trace.Decision) { last = d }
	if n := testing.AllocsPerRun(100, run); n != 0 || last.Kind != trace.ScaleUp {
		t.Fatalf("observed decision sites allocated %v times per run, last record %+v; want 0 and a scale-up", n, last)
	}
	var got []trace.Decision
	c.OnDecision = func(d trace.Decision) { got = append(got, d) }
	run()
	want := []trace.Decision{
		{Kind: trace.HandoffDeny, Session: 7, Replica: 0, Err: api.ErrNoDecodeCapacity},
		{Kind: trace.Drain, Replica: 1},
		{Kind: trace.ScaleDown, Replica: 1, Variant: "l4", CostRate: 1, Sat: 0.1},
		{Kind: trace.Activate, Replica: 1},
		{Kind: trace.ScaleUp, Replica: 1, Variant: "l4", CostRate: 1, Sat: 0.9},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decisions = %+v, want %+v", got, want)
	}
}

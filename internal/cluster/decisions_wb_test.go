package cluster

import (
	"slices"
	"testing"

	"pie/api"
	"pie/internal/core"
	"pie/internal/trace"
)

// TestDecisionSitesFreeWhenUnobserved: with no OnDecision hook a decision
// site builds nothing, so a handoff denial and a cost-aware scale-down on a
// clockless cluster allocate nothing; with the hook set the same calls
// deliver their records with the fields filled.
func TestDecisionSitesFreeWhenUnobserved(t *testing.T) {
	c := &Cluster{replicas: []*Replica{
		{ID: 0, Variant: "l4e", CostRate: 0.6, active: true, health: HealthHealthy},
		{ID: 1, Variant: "l4", CostRate: 1.0, active: true, health: HealthHealthy},
	}}
	inst := &core.Instance{ID: 7, Name: "text_completion"}
	run := func() {
		c.denyHandoff(inst, c.replicas[0], api.ErrNoDecodeCapacity)
		c.replicas[1].draining = false
		c.scaleDownCostAware(0.1)
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("unobserved decision sites allocated %v times per run, want 0", n)
	}
	var got []trace.Decision
	c.OnDecision = func(d trace.Decision) { got = append(got, d) }
	run()
	want := []trace.Decision{
		{Kind: trace.HandoffDeny, Session: "text_completion#7", Replica: 0, Err: api.ErrNoDecodeCapacity},
		{Kind: trace.Drain, Replica: 1},
		{Kind: trace.ScaleDown, Replica: 1, Variant: "l4", CostRate: 1, Sat: 0.1},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decisions = %+v, want %+v", got, want)
	}
}

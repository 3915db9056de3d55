package cluster_test

import (
	"slices"
	"testing"
	"time"

	"pie"
	"pie/internal/cluster"
	"pie/internal/trace"
)

// TestFleetOps exercises the controller-facing replica lifecycle verbs:
// drain begin/cancel, idle deactivation, refusal rules, and the record
// each change makes.
func TestFleetOps(t *testing.T) {
	e := newEngine(t, pie.Config{Seed: 3, Replicas: 3})
	c := e.Cluster()
	ds := decisionLog(e)
	err := e.RunClient(func() {
		rs := c.Replicas()
		r2 := rs[2]
		// Drain an idle replica: two-phase — marked first, retired by the
		// next CompleteDrains pass.
		if !c.BeginDrain(r2) || !r2.Draining() {
			panic("BeginDrain on a serving replica must mark it draining")
		}
		if c.BeginDrain(r2) {
			panic("BeginDrain twice must refuse")
		}
		// Activate cancels an in-progress drain without a drop.
		if !c.Activate(r2) || r2.Draining() || !r2.Active() {
			panic("Activate must cancel the drain")
		}
		if c.Activate(r2) {
			panic("Activate on a serving replica must be a no-op")
		}
		// Deactivate only retires idle replicas.
		if !c.Deactivate(r2) || r2.Active() {
			panic("Deactivate on an idle replica must retire it")
		}
		if c.Deactivate(r2) {
			panic("Deactivate twice must refuse")
		}
		if !c.Activate(r2) {
			panic("Activate must wake an inactive replica")
		}
		// Full two-phase drain: begin, then complete once idle.
		before := c.DrainDone
		if !c.BeginDrain(r2) {
			panic("BeginDrain after reactivation")
		}
		c.CompleteDrains()
		if r2.Active() || c.DrainDone != before+1 {
			panic("CompleteDrains must retire the idle draining replica")
		}
		e.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Decision
	for _, k := range []trace.Kind{trace.Drain, trace.Activate, trace.Deactivate, trace.Activate, trace.Drain, trace.DrainDone} {
		want = append(want, trace.Decision{Kind: k, Replica: 2})
	}
	if !slices.Equal(*ds, want) {
		t.Fatalf("decisions = %+v, want %+v", *ds, want)
	}
	if c.DrainStart < 2 {
		t.Fatalf("DrainStart = %d, want >= 2", c.DrainStart)
	}
}

// TestFleetOpsPlacementSwap: the controller can retarget the placement
// policy live.
func TestFleetOpsPlacementSwap(t *testing.T) {
	e := newEngine(t, pie.Config{Seed: 3, Replicas: 2, Placement: pie.PlaceRoundRobin})
	c := e.Cluster()
	if c.Placement() != cluster.PlaceRoundRobin {
		t.Fatalf("boot placement = %v", c.Placement())
	}
	c.SetPlacement(cluster.PlaceLeastLoaded)
	if c.Placement() != cluster.PlaceLeastLoaded {
		t.Fatalf("placement after swap = %v", c.Placement())
	}
}

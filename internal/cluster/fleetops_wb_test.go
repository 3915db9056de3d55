// White-box table test of Resize, the one sizing step every policy moves
// the fleet through: which replicas count as serving, which a grow or a
// shrink may move, in which order, and the one record each move writes.
package cluster

import (
	"slices"
	"testing"

	"pie/internal/trace"
)

// lifecycle is a replica's place in the active set.
type lifecycle int

const (
	lifeServing lifecycle = iota
	lifeDraining
	lifeInactive
)

// spec builds one replica of a Resize pool; its ID is its pool index.
type spec struct {
	health  HealthState
	crashed bool
	life    lifecycle
	cost    float64
}

// matrix is every combination of health, crash and lifecycle, healthy
// first, in that nesting. Only IDs 0 and 3 (healthy, active, one of them
// crashed but not yet declared) serve; only 1 (a healthy drain) and 2 (a
// healthy spare) can be activated.
func matrix() []spec {
	var out []spec
	for _, h := range []HealthState{HealthHealthy, HealthSuspect, HealthDead} {
		for _, crashed := range []bool{false, true} {
			for _, l := range []lifecycle{lifeServing, lifeDraining, lifeInactive} {
				out = append(out, spec{health: h, crashed: crashed, life: l})
			}
		}
	}
	return out
}

func TestResize(t *testing.T) {
	byCost := func(a, b *Replica) bool { return a.costRate() < b.costRate() }
	act := func(id int) trace.Decision { return trace.Decision{Kind: trace.Activate, Replica: id} }
	drain := func(id int) trace.Decision { return trace.Decision{Kind: trace.Drain, Replica: id} }
	cases := []struct {
		name   string
		pool   []spec
		target int
		before func(a, b *Replica) bool
		want   []trace.Decision // the moves, in order; the last is Resize's result
	}{
		{"matrix: grow cancels the healthy drain, then wakes the healthy spare", matrix(), 9, nil,
			[]trace.Decision{act(1), act(2)}},
		{"matrix: grow by one only cancels the drain", matrix(), 3, nil,
			[]trace.Decision{act(1)}},
		{"matrix: shrink drains the serving replicas, highest ID first", matrix(), 0, nil,
			[]trace.Decision{drain(3), drain(0)}},
		{"matrix: at target nothing moves", matrix(), 2, nil, nil},
		{"matrix: a negative target drains every serving replica", matrix(), -1, nil,
			[]trace.Decision{drain(3), drain(0)}},
		{"drains are cancelled before any spare wakes",
			[]spec{{life: lifeInactive}, {life: lifeDraining}, {life: lifeInactive}, {life: lifeDraining}}, 3, nil,
			[]trace.Decision{act(1), act(3), act(0)}},
		{"a grow takes the first drain in before order, however cheap a spare",
			[]spec{{life: lifeInactive, cost: 0.1}, {life: lifeDraining, cost: 1}, {life: lifeDraining, cost: 0.5}}, 1, byCost,
			[]trace.Decision{act(2)}},
		{"a grow's ties go to the lowest ID",
			[]spec{{life: lifeServing}, {life: lifeInactive, cost: 2}, {life: lifeInactive, cost: 1}, {life: lifeInactive, cost: 1}}, 3, byCost,
			[]trace.Decision{act(2), act(3)}},
		{"a shrink takes the last in before order, ties to the highest ID",
			[]spec{{life: lifeServing, cost: 1}, {life: lifeServing, cost: 2}, {life: lifeServing, cost: 2}, {life: lifeServing, cost: 0.5}}, 2, byCost,
			[]trace.Decision{drain(2), drain(1)}},
		{"a shrink skips draining, suspect and dead replicas",
			[]spec{{life: lifeServing}, {life: lifeServing}, {life: lifeDraining}, {life: lifeServing, health: HealthSuspect}, {life: lifeServing, health: HealthDead}}, 1, nil,
			[]trace.Decision{drain(1)}},
		{"nothing can grow: no healthy drain or spare",
			[]spec{{life: lifeServing}, {life: lifeInactive, health: HealthSuspect}, {life: lifeDraining, health: HealthDead}, {life: lifeInactive, crashed: true}}, 3, nil, nil},
		{"nothing can shrink: an empty pool", nil, 0, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Cluster{}
			for i, s := range tc.pool {
				c.replicas = append(c.replicas, &Replica{ID: i, health: s.health, crashed: s.crashed,
					active: s.life != lifeInactive, draining: s.life == lifeDraining, CostRate: s.cost})
			}
			var got []trace.Decision
			c.OnDecision = func(d trace.Decision) { got = append(got, d) }
			moved := c.Resize(c.replicas, tc.target, tc.before)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("records = %v, want %v", got, tc.want)
			}
			if len(tc.want) == 0 {
				if moved != nil {
					t.Fatalf("Resize moved nothing but returned replica %d", moved.ID)
				}
				return
			}
			if last := tc.want[len(tc.want)-1]; moved == nil || moved.ID != last.Replica {
				t.Fatalf("Resize returned %v, want replica %d", moved, last.Replica)
			}
			for _, d := range got {
				r := c.replicas[d.Replica]
				if d.Kind == trace.Activate && !r.Serving() || d.Kind == trace.Drain && !r.draining {
					t.Fatalf("replica %d after %s: active %v, draining %v", r.ID, d.Kind, r.active, r.draining)
				}
			}
		})
	}
}

// White-box unit tests for the SLO scaler's pure pieces: config
// normalization, heterogeneous-variant expansion and parsing, cost-aware
// candidate ordering, cost accounting, and the latency tracker's window
// arithmetic. Engine-level scaling behavior (ticks, cold-start holds,
// scale-to-zero) is pinned by the eval experiment's acceptance and
// determinism tests.
package cluster

import (
	"slices"
	"testing"
	"time"

	"pie/api"
	"pie/internal/trace"
)

func TestScalerConfigDefaults(t *testing.T) {
	d := ScalerConfig{}.withDefaults(8)
	want := ScalerConfig{
		Min: 1, Max: 8, Interval: 10 * time.Millisecond,
		SatHigh: 0.75, SatLow: 0.20, AttainTarget: 0.95,
		IdleAfter: 250 * time.Millisecond,
	}
	if d != want {
		t.Fatalf("zero-value defaults = %+v, want %+v", d, want)
	}
	// Max clamps to the fleet; Min clamps to Max.
	if got := (ScalerConfig{Max: 20}).withDefaults(8).Max; got != 8 {
		t.Fatalf("oversized Max = %d, want 8", got)
	}
	if got := (ScalerConfig{Min: 5, Max: 2}).withDefaults(8); got.Min != 2 {
		t.Fatalf("Min > Max normalized to %+v", got)
	}
	// A SatLow at or above SatHigh falls back to the default, halving
	// under SatHigh when even the default would invert.
	if got := (ScalerConfig{SatHigh: 0.3, SatLow: 0.5}).withDefaults(8); got.SatLow != 0.20 {
		t.Fatalf("inverted watermarks normalized to %+v", got)
	}
	if got := (ScalerConfig{SatHigh: 0.1, SatLow: 0.5}).withDefaults(8); got.SatLow != 0.05 {
		t.Fatalf("inverted low watermarks normalized to %+v", got)
	}
	keep := ScalerConfig{
		Enabled: true, Min: 2, Max: 4, Interval: time.Millisecond,
		SatHigh: 0.9, SatLow: 0.1, AttainTarget: 0.99,
		ScaleToZero: true, IdleAfter: time.Second,
	}
	if keep.withDefaults(8) != keep {
		t.Fatalf("explicit config rewritten: %+v", keep.withDefaults(8))
	}
}

func TestScaleUpPicksCheapest(t *testing.T) {
	// No SLO tracker: every variant qualifies, so price decides and ties
	// break by lowest ID.
	c := &Cluster{replicas: []*Replica{
		{ID: 0, Variant: "l4", CostRate: 1.0, health: HealthHealthy},
		{ID: 1, Variant: "l4e", CostRate: 0.6, health: HealthHealthy},
		{ID: 2, Variant: "l4e", CostRate: 0.6, health: HealthHealthy},
	}}
	var got []trace.Decision
	c.OnDecision = func(d trace.Decision) { got = append(got, d) }
	c.scaleUpCostAware(trace.Decision{Sat: 0.9, Role: "unified"}, RoleUnified)
	if !c.replicas[1].active || c.ScaleUps != 1 {
		t.Fatalf("picked %+v, want replica 1 active", c.replicas)
	}
	want := []trace.Decision{
		{Kind: trace.Activate, Replica: 1},
		{Kind: trace.ScaleUp, Replica: 1, Variant: "l4e", CostRate: 0.6, Sat: 0.9, Role: "unified"},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decisions = %+v, want %+v", got, want)
	}
}

func TestScaleUpPrefersUnDrain(t *testing.T) {
	// A draining replica is warm capacity: un-draining beats activating a
	// cold spare, even a cheaper one. A crash-stopped draining replica is
	// not capacity, however cheap: Activate would refuse it.
	c := &Cluster{replicas: []*Replica{
		{ID: 0, CostRate: 1.0, active: true, draining: true, health: HealthHealthy},
		{ID: 1, CostRate: 0.5, health: HealthHealthy},
		{ID: 2, CostRate: 0.1, active: true, draining: true, health: HealthHealthy, crashed: true},
	}}
	c.scaleUpCostAware(trace.Decision{}, RoleUnified)
	if c.replicas[0].draining || !c.replicas[0].active || c.ScaleUps != 1 {
		t.Fatalf("draining replica not reclaimed: %+v", c.replicas[0])
	}
	if c.replicas[1].active {
		t.Fatal("cold spare activated despite warm drain available")
	}
	if !c.replicas[2].draining {
		t.Fatal("crash-stopped replica un-drained")
	}
}

func TestScaleUpPrefersQualifyingVariant(t *testing.T) {
	// The slow economy variant projects past the ITL target, so the
	// pricier reference variant wins despite costing more.
	slo := newSLOTracker([]api.ServiceClass{{Name: "int", ITLTarget: 20 * time.Millisecond}})
	slo.noteVariant("l4", 1)
	slo.noteVariant("l4e", 4)
	for i := 0; i < 4; i++ {
		slo.observe("l4", "int", false, 10*time.Millisecond)
	}
	c := &Cluster{slo: slo, replicas: []*Replica{
		{ID: 0, Variant: "l4e", CostRate: 0.5, SpeedFactor: 4, health: HealthHealthy},
		{ID: 1, Variant: "l4", CostRate: 1.0, health: HealthHealthy},
	}}
	c.scaleUpCostAware(trace.Decision{}, RoleUnified)
	if !c.replicas[1].active || c.replicas[0].active {
		t.Fatalf("qualifying variant lost to cheaper non-qualifying: %+v", c.replicas)
	}
	// With a target no variant can meet, the fastest hardware wins — an
	// SLO miss wants speed, whatever the price.
	slo2 := newSLOTracker([]api.ServiceClass{{Name: "int", ITLTarget: time.Millisecond}})
	slo2.noteVariant("l4", 1)
	slo2.noteVariant("l4e", 4)
	for i := 0; i < 4; i++ {
		slo2.observe("l4", "int", false, 10*time.Millisecond)
	}
	c2 := &Cluster{slo: slo2, replicas: []*Replica{
		{ID: 0, Variant: "l4e", CostRate: 0.5, SpeedFactor: 4, health: HealthHealthy},
		{ID: 1, Variant: "l4", CostRate: 1.0, health: HealthHealthy},
	}}
	c2.scaleUpCostAware(trace.Decision{}, RoleUnified)
	if !c2.replicas[1].active {
		t.Fatalf("fastest variant not chosen when nothing qualifies: %+v", c2.replicas)
	}
}

func TestStarvedRoleSat(t *testing.T) {
	// Normal fold: the hungriest role's mean governs and names the role.
	sat, starved := starvedRoleSat(true,
		[3]float64{0, 1.2, 0.4}, [3]int{0, 2, 2}, [3]int{0, 2, 2})
	if sat != 0.6 || starved != RolePrefill {
		t.Fatalf("fold = %v/%v, want 0.6/prefill", sat, starved)
	}
	// The all-dead-role path: prefill has replicas assigned but none
	// healthy-and-serving. Under load that reads as full saturation — the
	// empty denominator must not average the dead pool away to zero.
	sat, starved = starvedRoleSat(true,
		[3]float64{0, 0, 0.1}, [3]int{0, 0, 2}, [3]int{0, 2, 2})
	if sat != 1 || starved != RolePrefill {
		t.Fatalf("all-dead prefill = %v/%v, want 1/prefill", sat, starved)
	}
	// Same fleet, idle: a drained role is not starvation; nothing fires.
	sat, starved = starvedRoleSat(false,
		[3]float64{0, 0, 0}, [3]int{0, 0, 2}, [3]int{0, 2, 2})
	if sat != 0 || starved != RoleUnified {
		t.Fatalf("idle dead role = %v/%v, want 0/unified", sat, starved)
	}
	// A live role even hungrier than a dead one wins (queue refs make
	// means exceed 1), whichever order the roles appear in.
	sat, starved = starvedRoleSat(true,
		[3]float64{0, 0, 2.6}, [3]int{0, 0, 2}, [3]int{0, 2, 2})
	if sat != 1.3 || starved != RoleDecode {
		t.Fatalf("live role above 1 = %v/%v, want 1.3/decode", sat, starved)
	}
	sat, starved = starvedRoleSat(true,
		[3]float64{0, 2.6, 0}, [3]int{0, 2, 0}, [3]int{0, 2, 2})
	if sat != 1.3 || starved != RolePrefill {
		t.Fatalf("dead role after live = %v/%v, want 1.3/prefill", sat, starved)
	}
	// A role with no replicas assigned at all stays invisible either way.
	sat, starved = starvedRoleSat(true,
		[3]float64{0, 0, 0.4}, [3]int{0, 0, 2}, [3]int{0, 0, 2})
	if sat != 0.2 || starved != RoleDecode {
		t.Fatalf("unassigned role = %v/%v, want 0.2/decode", sat, starved)
	}
}

func TestScaleUpRecoversAllDeadFleet(t *testing.T) {
	// Every serving replica is gone but spares exist: the recovery path
	// must activate one (the scalerTick serving==0 branch feeds this with
	// RoleUnified — any capacity beats none).
	c := &Cluster{replicas: []*Replica{
		{ID: 0, active: false, health: HealthDead},
		{ID: 1, active: false, health: HealthDead},
		{ID: 2, health: HealthHealthy},
	}}
	c.scaleUpCostAware(trace.Decision{Sat: 1}, RoleUnified)
	if !c.replicas[2].active || c.ScaleUps != 1 {
		t.Fatalf("dead fleet did not recover onto the spare: %+v", c.replicas)
	}
	// With no healthy spare either, the attempt is a deterministic no-op.
	c2 := &Cluster{replicas: []*Replica{{ID: 0, health: HealthDead}}}
	c2.scaleUpCostAware(trace.Decision{Sat: 1}, RoleUnified)
	if c2.ScaleUps != 0 || c2.replicas[0].active {
		t.Fatalf("no-spare recovery mutated the fleet: %+v", c2.replicas[0])
	}
}

func TestScaleDownDrainsMostExpensive(t *testing.T) {
	c := &Cluster{replicas: []*Replica{
		{ID: 0, CostRate: 0.6, active: true, health: HealthHealthy},
		{ID: 1, CostRate: 1.0, active: true, health: HealthHealthy},
		{ID: 2, CostRate: 1.0, active: true, health: HealthHealthy},
	}}
	c.scaleDownCostAware(0.1)
	// Most expensive first; equal cost breaks toward the highest ID —
	// the mirror of activation order.
	if !c.replicas[2].draining || c.replicas[0].draining || c.replicas[1].draining {
		t.Fatalf("drain victim wrong: %+v", c.replicas)
	}
	if c.DrainStart != 1 {
		t.Fatalf("DrainStart = %d, want 1", c.DrainStart)
	}
}

func TestCostAccounting(t *testing.T) {
	r := &Replica{CostRate: 2, activeAccum: 2 * time.Second}
	if got := r.activeFor(10 * time.Second); got != 2*time.Second {
		t.Fatalf("inactive replica accrues: %v", got)
	}
	r.active, r.activeSince = true, 4*time.Second
	if got := r.activeFor(7 * time.Second); got != 5*time.Second {
		t.Fatalf("active span not added: %v", got)
	}
	c := &Cluster{replicas: []*Replica{r, {activeAccum: 3 * time.Second}}}
	// 2 units/s x 5s + default 1 unit/s x 3s.
	if got := c.CostUnits(7 * time.Second); got != 13 {
		t.Fatalf("CostUnits = %v, want 13", got)
	}
	// markInactive closes the open span (clockless clusters fold at t=0)
	// and freezes the accumulator.
	r.activeSince = 0
	c.markInactive(r)
	if r.active || r.activeFor(100*time.Second) != 2*time.Second {
		t.Fatalf("markInactive bookkeeping: active=%v accum=%v", r.active, r.activeAccum)
	}
}

func TestLatWindowArithmetic(t *testing.T) {
	var w latWindow
	if w.attainment(time.Second) != 1 {
		t.Fatal("empty window must vacuously attain")
	}
	for i := 0; i < 3; i++ {
		w.add(10 * time.Millisecond)
	}
	w.add(100 * time.Millisecond)
	if got := w.attainment(20 * time.Millisecond); got != 0.75 {
		t.Fatalf("attainment = %v, want 0.75", got)
	}
	if got := w.mean(); got != 32500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	// The ring holds only the most recent latWindowSize samples.
	for i := 0; i < latWindowSize; i++ {
		w.add(time.Millisecond)
	}
	if w.size() != latWindowSize || w.attainment(2*time.Millisecond) != 1 {
		t.Fatalf("ring wrap: size=%d attainment=%v", w.size(), w.attainment(2*time.Millisecond))
	}
}

func TestWorstRecentNeedsSamples(t *testing.T) {
	slo := newSLOTracker([]api.ServiceClass{
		{Name: "int", TTFTTarget: 10 * time.Millisecond},
		{Name: "free"}, // no targets: never flagged
	})
	// Below the minimum sample count even 100% misses stay quiet — one
	// early outlier must not trigger fleet-wide reactions.
	for i := 0; i < minAttainSamples-1; i++ {
		slo.observe("l4", "int", true, time.Second)
	}
	if name, _ := slo.worstRecent(0.95); name != "" {
		t.Fatalf("underpopulated window flagged %q", name)
	}
	slo.observe("l4", "int", true, time.Second)
	name, att := slo.worstRecent(0.95)
	if name != "int" || att != 0 {
		t.Fatalf("worstRecent = %q/%v, want int/0", name, att)
	}
	for i := 0; i < minAttainSamples; i++ {
		slo.observe("l4", "free", true, time.Hour)
	}
	if name, _ := slo.worstRecent(0.95); name != "int" {
		t.Fatalf("targetless class outranked a missing one: %q", name)
	}
}

func TestEstimateScalesAcrossVariants(t *testing.T) {
	slo := newSLOTracker(nil)
	slo.noteVariant("l4", 1)
	slo.noteVariant("l4e", 2)
	if ttft, itl := slo.estimate("l4e", 2); ttft != 0 || itl != 0 {
		t.Fatalf("unsampled tracker estimate = %v/%v, want optimistic zero", ttft, itl)
	}
	slo.observe("l4", "", true, 10*time.Millisecond)
	slo.observe("l4", "", false, 4*time.Millisecond)
	// A sampled variant answers from its own window.
	if ttft, itl := slo.estimate("l4", 1); ttft != 10*time.Millisecond || itl != 4*time.Millisecond {
		t.Fatalf("own-window estimate = %v/%v", ttft, itl)
	}
	// An unsampled one scales the fastest sampled window by the speed ratio.
	if ttft, itl := slo.estimate("l4e", 2); ttft != 20*time.Millisecond || itl != 8*time.Millisecond {
		t.Fatalf("scaled estimate = %v/%v", ttft, itl)
	}
}

func TestExpandVariants(t *testing.T) {
	// Empty spec: homogeneous default pool.
	out := ExpandVariants(nil, 3)
	if len(out) != 3 || out[0].Name != "l4" || out[0].CostRate != 1 || out[0].Slowdown != 1 {
		t.Fatalf("default pool = %+v", out)
	}
	// Counted prefix plus remainder, and the last variant pads short specs.
	out = ExpandVariants([]ReplicaVariant{
		{Name: "a", Count: 2, CostRate: 2},
		{Name: "b", CostRate: 0.5},
	}, 5)
	names := ""
	for _, v := range out {
		names += v.Name
	}
	if names != "aabbb" {
		t.Fatalf("assignment = %q, want aabbb", names)
	}
	// Counts beyond the pool truncate.
	if out = ExpandVariants([]ReplicaVariant{{Name: "a", Count: 9}}, 2); len(out) != 2 {
		t.Fatalf("oversized count = %+v", out)
	}
}

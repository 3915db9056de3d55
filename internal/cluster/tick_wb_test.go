package cluster

import (
	"slices"
	"testing"
	"time"

	"pie/internal/trace"
)

// TestTickOrder: health, the balancer and the scaler share one interval, so
// one tick runs all three, health first. A replica health declares dead in
// that tick is neither counted by the balancer nor picked by the scaler
// after it. Prefill replica 1 crashes; without the crash the same tick
// flips prefill replica 0 to decode (the balancer counts two prefill
// replicas) or drains replica 1 (the slackest role with a replica to spare
// is prefill).
func TestTickOrder(t *testing.T) {
	tick := func(crash, decodeLoad bool) []trace.Decision {
		c := pdCluster()
		c.EnableHealth(HealthConfig{Interval: roleWindow})
		c.EnableScaler(ScalerConfig{Interval: roleWindow})
		var got []trace.Decision
		c.OnDecision = func(d trace.Decision) {
			d.T, d.Balance = 0, trace.RoleBalance{}
			got = append(got, d)
		}
		if decodeLoad {
			// The load of TestRoleBalanceArithmetic, on the second window
			// in a row to want a decode replica more.
			for _, r := range c.replicas {
				s := r.Ctl.Scheduler()
				if r.Role == RoleDecode {
					s.Forwards, s.DecodeCalls = 100, 800
				} else {
					s.PrefillCalls = 10
				}
			}
			c.roleVote = RoleDecode
		} else {
			// The idle fleet's third quiet tick in a row.
			c.lowSatTicks = scaleDownPatience - 1
		}
		if crash {
			c.replicas[1].crashed = true
		}
		c.tick(roleWindow)
		return got
	}
	dead := trace.Decision{Kind: trace.Dead, Replica: 1, Wait: roleWindow, Dest: -1}
	for _, tc := range []struct {
		crash, decodeLoad bool
		want              []trace.Decision
	}{
		{false, true, []trace.Decision{{Kind: trace.RoleFlip, Replica: 0, Role: "decode"}}},
		{true, true, []trace.Decision{dead}},
		{false, false, []trace.Decision{{Kind: trace.Drain, Replica: 1}, {Kind: trace.ScaleDown, Replica: 1, Variant: defaultVariant, CostRate: 1}}},
		{true, false, []trace.Decision{dead, {Kind: trace.Drain, Replica: 5}, {Kind: trace.ScaleDown, Replica: 5, Variant: defaultVariant, CostRate: 1}}},
	} {
		if got := tick(tc.crash, tc.decodeLoad); !slices.Equal(got, tc.want) {
			t.Errorf("crash %v, decode load %v: decisions %+v, want %+v", tc.crash, tc.decodeLoad, got, tc.want)
		}
	}
}

// TestTickDrainsBeforeReconcile: idle drains complete once a tick, right
// before the first due policy from reconcile on. A tick with only health
// due leaves an idle draining replica alone; the next, with reconcile and
// the scaler due as well, retires it once, before the reconcile pass runs.
func TestTickDrainsBeforeReconcile(t *testing.T) {
	c := pdCluster()
	c.EnableHealth(HealthConfig{Interval: roleWindow / 2})
	var seen []bool // whether replica 5 was still active at each reconcile pass
	c.EnableReconcile(roleWindow, func(time.Duration) { seen = append(seen, c.replicas[5].active) })
	c.EnableScaler(ScalerConfig{Interval: roleWindow, Min: len(c.replicas)})
	c.Start()
	c.BeginDrain(c.replicas[5])
	c.tick(roleWindow / 2)
	if !c.replicas[5].active || c.DrainDone != 0 || len(seen) != 0 {
		t.Fatalf("health-only tick: active %v, %d drains done, %d passes", c.replicas[5].active, c.DrainDone, len(seen))
	}
	c.tick(roleWindow)
	if c.replicas[5].active || c.DrainDone != 1 || !slices.Equal(seen, []bool{false}) {
		t.Fatalf("full tick: active %v, %d drains done, passes saw %v", c.replicas[5].active, c.DrainDone, seen)
	}
}

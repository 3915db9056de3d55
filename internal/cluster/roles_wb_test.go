// White-box tests of the role balancer's arithmetic and of the allocation
// budget of the handoff and balancer paths, on a clock that never runs: the
// tests write the window's forward counters into the schedulers and call
// the balancer's tick themselves.
package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pie/internal/core"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
	"pie/internal/trace"
)

// pdCluster is a 2 prefill + 4 decode cluster of idle timing-mode replicas
// with handoff and the role balancer armed.
func pdCluster() *Cluster {
	clock := sim.NewClock()
	m := model.StandardCatalog(42).Models["llama-1b"]
	rs := make([]*Replica, 6)
	for i := range rs {
		b := infer.NewBackend(clock, fmt.Sprintf("gpu%d", i))
		rt := infer.NewModelRuntime(m, infer.ExecTiming)
		rs[i] = &Replica{ID: i, Backend: b, Role: RoleDecode,
			Ctl: core.NewController(clock, b, []*infer.ModelRuntime{rt}, core.DefaultSchedConfig(), core.OffloadConfig{}, core.ArtifactConfig{})}
	}
	rs[0].Role, rs[1].Role = RolePrefill, RolePrefill
	c := New(clock, PlaceLeastLoaded, rs, len(rs))
	c.EnableHandoff(HandoffConfig{})
	return c
}

// TestRoleBalanceArithmetic: decode replicas running 100 forwards of 8
// decode steps a window (N = 32 sessions, R = 1600 steps/s over 4 replicas)
// beside an idle prefill pool taking 20 prefills a window: moving a prefill
// replica saves d·N·(1/4 − 1/5)·R and costs nothing, so the second window in
// a row to say so flips the least busy prefill replica (the lower ID, on a
// tie), and hashStick's domain loses it.
func TestRoleBalanceArithmetic(t *testing.T) {
	c := pdCluster()
	var got []trace.Decision
	c.OnDecision = func(d trace.Decision) { got = append(got, d) }
	window := func() {
		for _, r := range c.replicas {
			s := r.Ctl.Scheduler()
			if r.Role == RoleDecode {
				s.Forwards += 100
				s.DecodeCalls += 800
			} else {
				s.PrefillCalls += 10
			}
		}
		c.balanceRoles()
	}
	window()
	if c.RoleFlips != 0 || c.roleVote != RoleDecode {
		t.Fatalf("first window: %d flips, vote %v; want none and a vote for decode", c.RoleFlips, c.roleVote)
	}
	window()
	d := c.replicas[2].Ctl.PerTokenDecode().Seconds()
	want := trace.RoleBalance{N: 32, R: 1600, Lambda: 10, Gain: d * 32 * (1.0/4 - 1.0/5) * 1600}
	if c.RoleFlips != 1 || len(got) != 1 {
		t.Fatalf("second window: %d flips, records %+v; want one", c.RoleFlips, got)
	}
	rec := got[0]
	if rec.Kind != trace.RoleFlip || rec.Replica != 0 || rec.Role != "decode" || c.replicas[0].Role != RoleDecode ||
		math.Abs(rec.Balance.Gain-want.Gain) > 1e-12 {
		t.Fatalf("record %+v, want a flip of replica 0 to decode with %+v", rec, want)
	}
	rec.Balance.Gain = want.Gain
	if rec.Balance != want {
		t.Fatalf("balance %+v, want %+v", rec.Balance, want)
	}
	if len(c.stick) != 1 || c.stick[0] != c.replicas[1] {
		t.Fatalf("hashStick domain %v, want replica 1 alone", c.stick)
	}
	// One prefill replica is left: the same load flips nothing more.
	window()
	window()
	if c.RoleFlips != 1 {
		t.Fatalf("%d flips with one prefill replica left, want 1", c.RoleFlips)
	}
}

// TestHandoffAndBalanceAllocateNothing: picking a handoff target (every
// decode replica ties, so the instance-count tie-break runs), placing a
// launch least-loaded and one balancer window allocate nothing.
func TestHandoffAndBalanceAllocateNothing(t *testing.T) {
	c := pdCluster()
	src := c.replicas[0]
	if pick, runnerUp := c.handoffTarget(src, time.Millisecond); pick.r != c.replicas[2] || runnerUp.r != c.replicas[3] {
		t.Fatalf("handoff target %+v, runner-up %+v; want replicas 2 and 3", pick.candidate(), runnerUp.candidate())
	}
	if n := testing.AllocsPerRun(100, func() { c.handoffTarget(src, time.Millisecond) }); n != 0 {
		t.Fatalf("handoffTarget allocated %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Place("p", "p@1", nil) }); n != 0 {
		t.Fatalf("Place allocated %v times per launch, want 0", n)
	}
	if n := testing.AllocsPerRun(100, c.balanceRoles); n != 0 {
		t.Fatalf("a balancer window allocated %v times, want 0", n)
	}
}

// BenchmarkRoleBalance is one balancer window on a 6-replica P/D cluster.
func BenchmarkRoleBalance(b *testing.B) {
	c := pdCluster()
	b.ReportAllocs()
	for b.Loop() {
		c.balanceRoles()
	}
}

// BenchmarkPlace is one least-loaded launch placement on the same cluster.
func BenchmarkPlace(b *testing.B) {
	c := pdCluster()
	b.ReportAllocs()
	for b.Loop() {
		c.Place("p", "p@1", nil)
	}
}

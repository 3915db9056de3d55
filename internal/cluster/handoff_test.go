// Engine-level tests of prefill/decode disaggregation: role-aware
// placement, KV handoff after first token, the bounded transfer budget,
// denial when decode capacity is gone, and page conservation across the
// migration.
package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pie"
	"pie/internal/cluster"
)

// leakedPages sums live KV pages across every replica pool; after all
// sessions finish it must be zero — a handoff that forgets a refcount on
// either side shows up here.
func leakedPages(e *pie.Engine) int {
	total := 0
	for _, r := range e.Cluster().Replicas() {
		inUse, _ := r.Ctl.KVLoad()
		total += inUse
	}
	return total
}

func TestRoleAwarePlacementPrefersPrefill(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 3, Placement: pie.PlaceRoundRobin,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	err := e.RunClient(func() {
		for i := 0; i < 4; i++ {
			if _, err := e.LaunchAndWait(pie.Spec("text_completion", completionParams(2, ""))); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every launch lands on the prefill replica; the decode replicas'
	// Placements count only handoffs received.
	rs := e.Cluster().Replicas()
	if rs[0].Placements < 4 {
		t.Fatalf("prefill replica placements = %d, want >= 4", rs[0].Placements)
	}
	for _, r := range rs[1:] {
		if r.Placements != r.HandoffsIn {
			t.Fatalf("decode replica %d placements = %d beyond its %d handoffs", r.ID, r.Placements, r.HandoffsIn)
		}
	}
}

func TestHandoffMigratesSessionsToDecode(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 3, Placement: pie.PlaceLeastLoaded,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 4; i++ {
			h, err := e.Launch(pie.Spec("text_completion", completionParams(24, "")))
			if err != nil {
				panic(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Handoffs != 4 {
		t.Fatalf("Handoffs = %d, want 4 (one per session)", st.Handoffs)
	}
	if st.HandoffPages == 0 || st.HandoffTime == 0 {
		t.Fatalf("handoff moved %d pages in %v, want nonzero work and cost", st.HandoffPages, st.HandoffTime)
	}
	rs := e.Cluster().Replicas()
	if rs[0].HandoffsOut != 4 {
		t.Fatalf("prefill HandoffsOut = %d, want 4", rs[0].HandoffsOut)
	}
	if rs[1].HandoffsIn+rs[2].HandoffsIn != 4 {
		t.Fatalf("decode HandoffsIn = %d+%d, want 4 total", rs[1].HandoffsIn, rs[2].HandoffsIn)
	}
	// Decode work actually ran on decode replicas: their devices saw
	// kernels after receiving the sessions.
	if rs[1].Backend.Device.Kernels()+rs[2].Backend.Device.Kernels() == 0 {
		t.Fatal("decode replicas ran no kernels after handoff")
	}
	if n := leakedPages(e); n != 0 {
		t.Fatalf("leaked %d KV pages after all sessions finished", n)
	}
}

func TestHandoffTransferBudgetQueues(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 3, Placement: pie.PlaceLeastLoaded, HandoffBudget: 1,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 8; i++ {
			h, err := e.Launch(pie.Spec("text_completion", completionParams(16, "")))
			if err != nil {
				panic(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Handoffs != 8 {
		t.Fatalf("Handoffs = %d, want 8", st.Handoffs)
	}
	if st.HandoffQueued == 0 {
		t.Fatal("budget=1 under 8 concurrent sessions queued no transfers")
	}
	if n := leakedPages(e); n != 0 {
		t.Fatalf("leaked %d KV pages", n)
	}
}

func TestHandoffMinPagesKeepsSmallSessions(t *testing.T) {
	// A floor far above any session's KV footprint: every handoff is
	// skipped, every session decodes on its prefill replica, and nothing
	// leaks. A floor of one page changes nothing (every prefilled session
	// holds at least one), so the skip path stays off the common case.
	for _, tc := range []struct {
		name     string
		minPages int
		migrates bool
	}{
		{"floor-above-all", 1 << 20, false},
		{"floor-of-one", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, pie.Config{
				Seed: 11, Replicas: 3, Placement: pie.PlaceLeastLoaded,
				Roles:           []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
				HandoffMinPages: tc.minPages,
			})
			err := e.RunClient(func() {
				for i := 0; i < 3; i++ {
					if _, err := e.LaunchAndWait(pie.Spec("text_completion", completionParams(16, ""))); err != nil {
						panic(err)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if tc.migrates {
				if st.Handoffs != 3 || st.HandoffSkipped != 0 {
					t.Fatalf("Handoffs = %d skipped = %d, want 3/0", st.Handoffs, st.HandoffSkipped)
				}
			} else {
				if st.Handoffs != 0 || st.HandoffSkipped != 3 {
					t.Fatalf("Handoffs = %d skipped = %d, want 0/3", st.Handoffs, st.HandoffSkipped)
				}
				// Skipped sessions still finish: decode ran on the prefill
				// replica itself.
				if e.Cluster().Replicas()[0].Backend.Device.Kernels() == 0 {
					t.Fatal("prefill replica ran no kernels despite retaining its sessions")
				}
			}
			if n := leakedPages(e); n != 0 {
				t.Fatalf("leaked %d KV pages", n)
			}
		})
	}
}

func TestHandoffDeniedWithoutDecodeCapacity(t *testing.T) {
	// All-prefill pool: every first token seeks a decode replica, finds
	// none, and the session finishes where it started instead of stalling.
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 2, Placement: pie.PlaceRoundRobin,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill}},
	})
	err := e.RunClient(func() {
		if _, err := e.LaunchAndWait(pie.Spec("text_completion", completionParams(8, ""))); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Handoffs != 0 || st.HandoffDenied == 0 {
		t.Fatalf("Handoffs = %d, HandoffDenied = %d; want denial, no migration", st.Handoffs, st.HandoffDenied)
	}
	if n := leakedPages(e); n != 0 {
		t.Fatalf("leaked %d KV pages", n)
	}
}

// TestHandoffBudgetSurvivesReplicaCrash is the regression test for the
// transfer-slot leak: a crash-stopped prefill replica kills sessions that
// hold or queue on the saturated (Budget=1) transfer budget. Every launch
// must still resolve — success or a typed error — and the budget must
// drain back to zero; before the deferred-release fix the killed holder
// leaked its slot and every later handoff parked forever (the run
// deadlocked).
func TestHandoffBudgetSurvivesReplicaCrash(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 4, Placement: pie.PlaceLeastLoaded, HandoffBudget: 1,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 2}, {Role: pie.RoleDecode}},
		Health: pie.HealthConfig{
			Enabled: true, Interval: 2 * time.Millisecond,
			SuspectAfter: 4 * time.Millisecond, DeadAfter: 8 * time.Millisecond,
		},
		Faults: pie.FaultPlan{Events: []pie.FaultEvent{
			{At: 30 * time.Millisecond, Replica: 0, Kind: pie.FaultCrash},
		}},
		DefaultRetry: pie.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	resolved, failed := 0, 0
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 12; i++ {
			h, err := e.Launch(pie.Spec("text_completion", completionParams(24, "")))
			if err != nil {
				failed++
				continue
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				failed++
			}
			resolved++
		}
	})
	if err != nil {
		t.Fatalf("Run: %v (a leaked transfer slot deadlocks the run)", err)
	}
	st := e.Stats()
	if st.ReplicasLost != 1 {
		t.Fatalf("ReplicasLost = %d, want 1 (the crash must land)", st.ReplicasLost)
	}
	if st.HandoffQueued == 0 {
		t.Fatal("budget=1 under 12 concurrent sessions queued no transfers; the test no longer exercises the saturated budget")
	}
	if resolved+failed < 12 {
		t.Fatalf("only %d launches resolved (+%d failed early), want all 12 accounted for", resolved, failed)
	}
	if active, waiting := e.Cluster().TransferBudgetState(); active != 0 || waiting != 0 {
		t.Fatalf("transfer budget leaked: %d active, %d live waiters after drain", active, waiting)
	}
}

func TestScalerGrowsStarvedRoleTier(t *testing.T) {
	// A disaggregated pool under the SLO scaler: the fleet mean would
	// average the saturated prefill replica away against idle decode
	// capacity, so the scaler must reason per role — and say which role
	// drove the decision.
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 2, Placement: pie.PlaceLeastLoaded,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
		Scaler: pie.ScalerConfig{
			Enabled: true, Min: 2, Max: 4,
			Interval: 2 * time.Millisecond, SatHigh: 0.05,
			ColdStartWindow: time.Millisecond,
		},
	})
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 6; i++ {
			h, err := e.Launch(pie.Spec("text_completion", completionParams(24, "")))
			if err != nil {
				panic(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Cluster().ScaleUps == 0 {
		t.Fatal("saturated disaggregated pool never scaled up")
	}
	log := strings.Join(e.Cluster().Decisions, "\n")
	if !strings.Contains(log, "role=") {
		t.Fatalf("scale-up decisions name no role:\n%s", log)
	}
}

func TestExpandRoles(t *testing.T) {
	got := cluster.ExpandRoles([]cluster.RoleSpec{
		{Role: cluster.RolePrefill, Count: 2}, {Role: cluster.RoleDecode},
	}, 5)
	want := []cluster.Role{
		cluster.RolePrefill, cluster.RolePrefill,
		cluster.RoleDecode, cluster.RoleDecode, cluster.RoleDecode,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpandRoles = %v, want %v", got, want)
		}
	}
	// Empty spec: everyone unified.
	for _, r := range cluster.ExpandRoles(nil, 3) {
		if r != cluster.RoleUnified {
			t.Fatal("empty spec must yield unified replicas")
		}
	}
	// Oversized count clamps; short spec pads with the last role.
	got = cluster.ExpandRoles([]cluster.RoleSpec{{Role: cluster.RoleDecode, Count: 9}}, 2)
	if len(got) != 2 || got[0] != cluster.RoleDecode || got[1] != cluster.RoleDecode {
		t.Fatalf("clamped ExpandRoles = %v", got)
	}
}

// TestColdKeysSpreadOverPrefillReplicas: a cold kv-affinity key hash-sticks
// within the prefill-eligible set, so two prefill replicas each take about
// half the keys (hashing over all six and walking past the decode pool
// sent 5/6 of them to replica 0), and draining a decode replica, which the
// hash never covered, moves no key.
func TestColdKeysSpreadOverPrefillReplicas(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 6, Placement: pie.PlaceKVAffinity,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 2}, {Role: pie.RoleDecode}},
	})
	c := e.Cluster()
	rs := c.Replicas()
	const keys = 600
	place := func() []int {
		home := make([]int, keys)
		for k := range home {
			ctl, err := c.Place("text_completion", "", []string{fmt.Sprintf(`{"cache_key":"cold-%d"}`, k)})
			if err != nil {
				t.Fatal(err)
			}
			home[k] = -1
			for _, r := range rs {
				if r.Ctl == ctl {
					home[k] = r.ID
				}
			}
		}
		return home
	}
	before := place()
	for _, r := range rs[:2] {
		if r.Placements < keys*4/10 || r.Placements > keys*6/10 {
			t.Fatalf("prefill replica %d took %d of %d cold keys, want 40-60%%", r.ID, r.Placements, keys)
		}
	}
	for _, r := range rs[2:] {
		if r.Placements != 0 {
			t.Fatalf("decode replica %d took %d launches", r.ID, r.Placements)
		}
	}
	if !c.BeginDrain(rs[3]) {
		t.Fatal("decode replica did not start draining")
	}
	for k, id := range place() {
		if id != before[k] {
			t.Fatalf("key %d moved from replica %d to %d when a decode replica drained", k, before[k], id)
		}
	}
}

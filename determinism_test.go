package pie_test

// Determinism regression tests. The batch scheduler used to pick between
// equally-old op classes by iterating a Go map, so equal-`oldest` ties
// depended on map order and two identical-seed runs could batch (and
// therefore time) differently. Ready buckets now break ties on bucket
// creation sequence; these tests pin that contract at the engine level
// (internal/eval's TestExperimentsDeterministic does so for every
// experiment, under the parallel harness too).

import (
	"fmt"
	"testing"

	"pie"
	"pie/apps"
	"pie/internal/trace"
)

// schedulerFingerprint runs a tie-heavy mixed workload and returns every
// observable scheduler statistic formatted as one string, so two runs can
// be compared byte for byte.
func schedulerFingerprint(t *testing.T, seed uint64) string {
	t.Helper()
	e := pie.New(pie.Config{Seed: seed, Mode: pie.ModeTiming})
	e.MustRegister(apps.All()...)
	// Launch a burst of same-op work (equal enqueue times across queues
	// and op classes) plus heterogeneous apps so light ops and forwards
	// contend for dispatch order.
	e.Go("driver", func() {
		var hs []*pie.Handle
		for i := 0; i < 24; i++ {
			params := fmt.Sprintf(`{"prompt":"determinism probe %d","max_tokens":12}`, i%3)
			h, err := e.Launch(pie.Spec("text_completion", params))
			if err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
			hs = append(hs, h)
		}
		for i := 0; i < 4; i++ {
			h, err := e.Launch(pie.Spec("beam", `{"width":3,"steps":6}`))
			if err != nil {
				t.Errorf("beam launch: %v", err)
				return
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			h.Wait()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := e.Stats()
	_, _, _, events := e.Clock().Stats()
	return fmt.Sprintf("now=%v stats=%+v events=%d", e.Now(), st, events)
}

// handoffFingerprint runs a disaggregated-pool workload whose sessions
// all migrate prefill -> decode mid-run and returns every observable
// statistic — engine stats (handoff counters included), per-replica
// stats, and every cluster decision record — as one comparable string. The
// cluster's Check must pass when the test ends.
func handoffFingerprint(t *testing.T, seed uint64) string {
	t.Helper()
	e := checked(t, pie.New(pie.Config{
		Seed: seed, Mode: pie.ModeTiming, Replicas: 4,
		Placement: pie.PlaceLeastLoaded, HandoffBudget: 1,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	}))
	e.MustRegister(apps.All()...)
	var decisions []trace.Decision
	e.Cluster().OnDecision = func(d trace.Decision) { decisions = append(decisions, d) }
	e.Go("driver", func() {
		var hs []*pie.Handle
		for i := 0; i < 12; i++ {
			params := fmt.Sprintf(`{"prompt":"handoff probe %d","max_tokens":%d}`, i%3, 8+4*(i%4))
			h, err := e.Launch(pie.Spec("text_completion", params))
			if err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			h.Wait()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := e.Stats()
	if st.Handoffs == 0 {
		t.Fatal("disaggregated workload produced no handoffs")
	}
	_, _, _, events := e.Clock().Stats()
	return fmt.Sprintf("now=%v stats=%+v replicas=%+v decisions=%v events=%d",
		e.Now(), st, e.ReplicaStats(), decisions, events)
}

// TestHandoffDeterministic pins the prefill/decode handoff path to the
// determinism contract: a mid-workload KV migration — budget waits, page
// copies, session rebinding — must replay byte-identically same-seed.
func TestHandoffDeterministic(t *testing.T) {
	a := handoffFingerprint(t, 42)
	b := handoffFingerprint(t, 42)
	if a != b {
		t.Fatalf("identical-seed handoff runs diverged:\n run1: %s\n run2: %s", a, b)
	}
}

func TestSchedulerStatsDeterministic(t *testing.T) {
	a := schedulerFingerprint(t, 42)
	b := schedulerFingerprint(t, 42)
	if a != b {
		t.Fatalf("identical-seed runs diverged:\n run1: %s\n run2: %s", a, b)
	}
	if st := schedulerFingerprint(t, 42); st != a {
		t.Fatalf("third identical-seed run diverged:\n run1: %s\n run3: %s", a, st)
	}
}

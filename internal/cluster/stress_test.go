package cluster_test

// Deterministic stress test for the cluster layer: 500+ launches across 8
// replicas while the SLO scaler churns (bursty load with idle valleys
// forces repeated grow/drain cycles). Runs under -race in CI. Asserts the
// two contracts the cluster must never lose under load:
//
//   1. Placement safety: no inferlet is ever placed onto a draining (or
//      inactive) replica — observed at every placement record of the
//      OnDecision hook, not inferred from aggregate stats. The records also
//      mirror the scaling counters (checkDecisionsMirrorCounters).
//   2. Determinism: same-seed runs produce byte-identical stats documents
//      (per-replica counters, scaling trajectory, engine totals).

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"pie"
	"pie/internal/metrics"
	"pie/internal/sim"
	"pie/internal/trace"
)

const (
	stressBursts   = 4
	stressPerBurst = 130 // 4 * 130 = 520 launches
	stressConc     = 64
	stressValley   = 400 * time.Millisecond // idle gap that lets drains complete
)

// stressDoc is the full result document the determinism check compares.
type stressDoc struct {
	Replicas   []metrics.ReplicaStats `json:"replicas"`
	ScaleUps   int                    `json:"scale_ups"`
	DrainStart int                    `json:"drain_start"`
	DrainDone  int                    `json:"drain_done"`
	Stats      pie.Stats              `json:"stats"`
}

func runClusterStress(t *testing.T, seed uint64) stressDoc {
	t.Helper()
	e := newEngine(t, pie.Config{
		Seed:      seed,
		Replicas:  1,
		Placement: pie.PlaceLeastLoaded,
		Scaler: pie.ScalerConfig{
			Enabled: true, Min: 1, Max: 8,
			Interval: 5 * time.Millisecond,
		},
	})
	// Placement safety, checked at decision time. The hook runs in sim
	// processes only, so the counters need no lock even under -race.
	badPlacements := 0
	var ds []trace.Decision
	e.Cluster().OnDecision = func(d trace.Decision) {
		ds = append(ds, d)
		if d.Kind != trace.Place {
			return
		}
		if r := e.Cluster().Replicas()[d.Replica]; !r.Active() || r.Draining() {
			badPlacements++
		}
	}
	err := e.RunClient(func() {
		for burst := 0; burst < stressBursts; burst++ {
			g := sim.NewGroup(e.Clock())
			queue := sim.NewMailbox[int](e.Clock())
			for i := 0; i < stressPerBurst; i++ {
				queue.Send(i)
			}
			for w := 0; w < stressConc; w++ {
				g.Go("client", func() {
					for {
						task, ok := queue.TryRecv()
						if !ok {
							return
						}
						// The token count varies with (seed, task): timing
						// mode ignores model weights, so the seed must
						// shape the workload itself for seed sensitivity.
						params := completionParams(2+int((seed+uint64(task))%3), "")
						h, err := e.Launch(pie.Spec("text_completion", params))
						if err != nil {
							t.Errorf("launch: %v", err)
							return
						}
						if err := h.Wait(); err != nil {
							t.Errorf("wait: %v", err)
							return
						}
					}
				})
			}
			g.Wait()
			// Idle valley: the scaler drains back before the next
			// burst regrows the active set.
			e.Sleep(stressValley)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if badPlacements != 0 {
		t.Fatalf("seed %d: %d placements landed on a draining or inactive replica", seed, badPlacements)
	}
	cl := e.Cluster()
	checkDecisionsMirrorCounters(t, cl, ds)
	doc := stressDoc{
		Replicas:   e.ReplicaStats(),
		ScaleUps:   cl.ScaleUps,
		DrainStart: cl.DrainStart,
		DrainDone:  cl.DrainDone,
		Stats:      e.Stats(),
	}
	if doc.Stats.Launches != stressBursts*stressPerBurst {
		t.Fatalf("seed %d: %d launches, want %d", seed, doc.Stats.Launches, stressBursts*stressPerBurst)
	}
	// The bursty profile must actually churn the scaler: repeated
	// growth and completed drains, not one monotone ramp.
	if cl.ScaleUps < 2 || cl.DrainDone < 2 {
		t.Fatalf("seed %d: scaler did not churn: %d scale-ups, %d drains done", seed, cl.ScaleUps, cl.DrainDone)
	}
	if got := cl.ActiveReplicas(); got != 1 {
		t.Fatalf("seed %d: %d active replicas after final valley, want 1", seed, got)
	}
	return doc
}

func TestClusterStressChurnAndPlacementSafety(t *testing.T) {
	runClusterStress(t, 23)
}

// TestClusterStressDeterministic pins the byte-identical contract under
// full churn: two same-seed runs must agree on every counter.
func TestClusterStressDeterministic(t *testing.T) {
	marshal := func() string {
		blob, err := json.Marshal(runClusterStress(t, 23))
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	a, b := marshal(), marshal()
	if a != b {
		t.Fatalf("same-seed stress runs differ:\n%s\n%s", a, b)
	}
}

// TestClusterStressSeedSensitivity guards against the determinism check
// passing vacuously (e.g. stats that never vary): a different seed shapes
// a different workload and must produce a different document.
func TestClusterStressSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	a, err := json.Marshal(runClusterStress(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(runClusterStress(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(b) {
		t.Fatal(fmt.Sprintf("different seeds produced identical documents: %s", a))
	}
}

// Engine-level tests of the SLO scaler: the live scaling daemon against a
// real heterogeneous serving stack. The unit tests in scaler_test.go pin
// individual decisions on synthetic clusters; these drive the whole loop
// on the virtual clock — saturation-triggered scale-up, graceful
// degradation and best-effort shedding at the admission gate, per-class
// attainment sampling, scale-to-zero on idle, and the fleet-op record of
// every transition.
package cluster_test

import (
	"errors"
	"testing"
	"time"

	"pie"
	"pie/internal/trace"
)

func TestScalerGrowsDegradesShedsAndScalesToZero(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed:      7,
		Replicas:  1,
		Placement: pie.PlaceLeastLoaded,
		Classes: []pie.ServiceClass{
			{Name: "interactive", TTFTTarget: 150 * time.Millisecond, ITLTarget: 60 * time.Millisecond, Priority: 10},
			{Name: "batch", MinTokensPerSec: 40, Degradable: true},
		},
		Variants: []pie.ReplicaVariant{
			{Name: "ref", CostRate: 1, Count: 2},
			{Name: "eco", CostRate: 0.6, Slowdown: 1.3},
		},
		Shed: pie.ShedConfig{Enabled: true, KVWatermark: 0.9, QueueDepth: 8},
		Scaler: pie.ScalerConfig{
			Enabled: true, Min: 1, Max: 4,
			ScaleToZero: true, IdleAfter: 100 * time.Millisecond,
		},
	})
	if !e.Cluster().ScalerEnabled() {
		t.Fatal("scaler not enabled")
	}
	ds := decisionLog(e)
	degraded, shed := 0, 0
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 24; i++ {
			sp := pie.Spec("text_completion", completionParams(16, ""))
			sp.Class = "interactive"
			h, err := e.Launch(sp)
			if err != nil {
				t.Errorf("interactive launch %d: %v", i, err)
				return
			}
			hs = append(hs, h)
		}
		// Let the interactive wave instantiate and queue, so the batch and
		// best-effort launches below arrive at a visibly loaded gate.
		e.Sleep(30 * time.Millisecond)
		for i := 0; i < 12; i++ {
			sp := pie.Spec("text_completion", completionParams(24, ""))
			sp.Class = "batch"
			h, err := e.Launch(sp)
			if err != nil {
				t.Errorf("batch launch %d: %v", i, err)
				return
			}
			if h.Degraded() {
				degraded++
				if h.Class() != "batch" {
					t.Errorf("degraded handle class = %q, want batch", h.Class())
				}
			}
			hs = append(hs, h)
		}
		for i := 0; i < 8; i++ {
			sp := pie.Spec("text_completion", completionParams(8, ""))
			sp.Priority = -1
			h, err := e.Launch(sp)
			switch {
			case err == nil:
				hs = append(hs, h)
			case errors.Is(err, pie.ErrOverloaded):
				shed++
			default:
				t.Errorf("best-effort launch %d: %v", i, err)
				return
			}
		}
		if _, _, serving := e.Cluster().SaturationSnapshot(); serving == 0 {
			t.Error("no serving replicas under load")
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
		}
		// Idle past IdleAfter so the scaler drains the fleet to zero.
		e.Sleep(600 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}

	cl := e.Cluster()
	if cl.ScaleUps == 0 {
		t.Fatal("scaler never scaled up under saturation")
	}
	checkDecisionsMirrorCounters(t, cl, *ds)
	for _, d := range *ds {
		if d.Kind == trace.ScaleUp && ((d.Sat < 0.75 && d.Class == "") || d.Variant == "") {
			t.Fatalf("scale-up record names no cause or variant: %+v", d)
		}
	}
	st := e.Stats()
	if degraded == 0 || st.Degradations != degraded {
		t.Fatalf("degradations: handles saw %d, stats %d; want equal and > 0", degraded, st.Degradations)
	}
	if shed == 0 || st.Sheds != shed {
		t.Fatalf("sheds: client saw %d, stats %d; want equal and > 0", shed, st.Sheds)
	}
	if st.ScaleToZeroEvents == 0 || st.ActiveReplicas != 0 {
		t.Fatalf("idle fleet not drained to zero: events %d, active %d", st.ScaleToZeroEvents, st.ActiveReplicas)
	}
	if st.CostUnits <= 0 {
		t.Fatalf("cost units %.3f, want > 0", st.CostUnits)
	}

	classes := cl.Classes()
	if len(classes) != 2 || classes[0].Name != "batch" || classes[1].Name != "interactive" {
		t.Fatalf("Classes() = %+v, want [batch interactive]", classes)
	}
	for _, cs := range cl.ClassStats() {
		switch cs.Class {
		case "interactive":
			if cs.TTFTSamples == 0 || cs.ITLSamples == 0 {
				t.Fatalf("interactive class unsampled: %+v", cs)
			}
		case "batch":
			if cs.Degradations != degraded {
				t.Fatalf("batch class degradations = %d, want %d", cs.Degradations, degraded)
			}
		}
	}
}

// TestFleetOpsSeeEveryScalerTransition: the SLO scaler and the health
// monitor change the active set only through the fleet ops, so the decision
// stream holds a fleet-op record for every scale-up, replacement,
// scale-down, scale-to-zero drain and completed drain, and a dead record for
// the death.
func TestFleetOpsSeeEveryScalerTransition(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 7, Replicas: 2, Placement: pie.PlaceLeastLoaded,
		Scaler: pie.ScalerConfig{
			Enabled: true, Min: 1, Max: 4,
			ScaleToZero: true, IdleAfter: 100 * time.Millisecond,
		},
		Health:       tightHealth(),
		Faults:       crashAt(1, 15*time.Millisecond),
		DefaultRetry: pie.RetryPolicy{MaxAttempts: 4},
	})
	cl := e.Cluster()
	ds := decisionLog(e)
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 24; i++ {
			h, err := e.Launch(pie.Spec("text_completion", completionParams(16, "")))
			if err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				t.Errorf("wait: %v", err)
			}
		}
		// Idle past IdleAfter: scale down, then drain the rest to zero.
		e.Sleep(600 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	n := kinds(*ds)
	if cl.ScaleUps == 0 || cl.Replacements != 1 || cl.ScaleToZeroEvents == 0 ||
		n[trace.ScaleDown] == 0 || cl.ActiveReplicas() != 0 {
		t.Fatalf("scenario incomplete: ups %d replacements %d to-zero %d scale-downs %d active %d",
			cl.ScaleUps, cl.Replacements, cl.ScaleToZeroEvents, n[trace.ScaleDown], cl.ActiveReplicas())
	}
	if n[trace.Activate] != cl.ScaleUps+cl.Replacements || n[trace.Deactivate] != 0 || n[trace.Dead] != cl.ReplicasLost {
		t.Fatalf("records %v; want activate %d (scale-ups %d + replacements %d), dead %d",
			n, cl.ScaleUps+cl.Replacements, cl.ScaleUps, cl.Replacements, cl.ReplicasLost)
	}
	checkDecisionsMirrorCounters(t, cl, *ds)
}

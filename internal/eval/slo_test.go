package eval

import (
	"testing"

	"pie/internal/trace"
)

// TestSLOAcceptance pins the SLO-serving experiment's headline claims at
// CI scale: at high load the saturation-guarded, cost-aware scaler holds
// interactive steady-state TTFT attainment at or above the 95% target
// where the queue-depth baseline misses it, at a total replica cost below
// the naive always-on fleet; batch launches absorb the pressure through
// graceful degradation (output caps + cheaper-model substitution) instead
// of best-effort sheds; and at low load it is no more expensive than the
// baseline (scale-to-zero pays for the machinery).
func TestSLOAcceptance(t *testing.T) {
	r := SLOSweep(Options{Quick: true})
	if len(r.Levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(r.Levels))
	}
	for _, lvl := range r.Levels {
		for name, leg := range map[string]SLOLeg{"baseline": lvl.Baseline, "slo": lvl.SLO} {
			// Conservation: every task slot is accounted for on both legs.
			if leg.IntDone != lvl.IntTotal || leg.IntFailed != 0 {
				t.Fatalf("%s/%s interactive: done %d failed %d, want %d/0",
					lvl.Spec.Name, name, leg.IntDone, leg.IntFailed, lvl.IntTotal)
			}
			if leg.BatchDone != lvl.BatchTotal {
				t.Fatalf("%s/%s batch: done %d, want %d", lvl.Spec.Name, name, leg.BatchDone, lvl.BatchTotal)
			}
			if leg.BEDone+leg.BEShed != lvl.BETotal {
				t.Fatalf("%s/%s best-effort unaccounted: done %d shed %d, want %d total",
					lvl.Spec.Name, name, leg.BEDone, leg.BEShed, lvl.BETotal)
			}
			if leg.SteadyN == 0 {
				t.Fatalf("%s/%s has no steady-state samples", lvl.Spec.Name, name)
			}
		}
	}

	high := r.Levels[len(r.Levels)-1]
	// The headline: the SLO scaler attains in steady state, the
	// queue-depth baseline does not.
	if high.SLO.SteadyTTFTAttain < 0.95 {
		t.Fatalf("slo steady-state TTFT attainment %.3f, want >= 0.95", high.SLO.SteadyTTFTAttain)
	}
	if high.Baseline.SteadyTTFTAttain >= 0.95 {
		t.Fatalf("baseline steady-state TTFT attainment %.3f: baseline attains, no contrast", high.Baseline.SteadyTTFTAttain)
	}
	// Cost: below the naive always-on fleet over the same window.
	if high.SLO.CostUnits >= high.SLO.NaiveCost {
		t.Fatalf("slo cost %.2f >= naive %.2f", high.SLO.CostUnits, high.SLO.NaiveCost)
	}
	// Pressure routed to graceful degradation, not to hard sheds: batch
	// launches were capped and downgraded while best-effort all served.
	if high.SLO.BatchDegraded == 0 || high.SLO.ModelDowngrades == 0 {
		t.Fatalf("slo leg never degraded: degraded %d downgrades %d", high.SLO.BatchDegraded, high.SLO.ModelDowngrades)
	}
	if high.SLO.BEShed != 0 {
		t.Fatalf("slo leg hard-shed %d best-effort launches", high.SLO.BEShed)
	}
	if high.Baseline.BEShed == 0 {
		t.Fatal("baseline never shed best-effort traffic: load level too low to contrast")
	}
	// Degradations were SLO-driven, not just watermark-driven: the
	// decision log attributes at least one to a higher-priority class at
	// risk, and records the scale-ups.
	degrades, atRisk, ups := 0, 0, 0
	for _, d := range high.SLO.DecisionLog {
		switch {
		case d.Kind == trace.Degrade && d.Class == "batch":
			degrades++
			if d.AtRisk == "interactive" {
				atRisk++
			}
		case d.Kind == trace.ScaleUp:
			ups++
		}
	}
	if degrades != high.SLO.BatchDegraded || atRisk == 0 || ups != high.SLO.ScaleUps {
		t.Fatalf("decision log holds %d batch degradations (%d for interactive at risk) and %d scale-ups; want %d, > 0 and %d",
			degrades, atRisk, ups, high.SLO.BatchDegraded, high.SLO.ScaleUps)
	}
	// The scaler actually scaled, and drained back after the run.
	if high.SLO.ScaleUps == 0 || high.SLO.ScaleToZeroEvents == 0 {
		t.Fatalf("slo leg scaling inert: ups %d to-zero %d", high.SLO.ScaleUps, high.SLO.ScaleToZeroEvents)
	}
	if high.Baseline.ScaleUps >= high.SLO.ScaleUps {
		t.Fatalf("baseline scaled as much as slo (%d vs %d): queue-depth foil broken",
			high.Baseline.ScaleUps, high.SLO.ScaleUps)
	}

	// At low load the SLO leg must not cost more than the baseline: idle
	// fleets scale to zero instead of idling at Min.
	low := r.Levels[0]
	if low.SLO.CostUnits > low.Baseline.CostUnits {
		t.Fatalf("low-load slo cost %.2f > baseline %.2f", low.SLO.CostUnits, low.Baseline.CostUnits)
	}
	if low.SLO.ScaleToZeroEvents == 0 {
		t.Fatal("low-load slo leg never scaled to zero")
	}
}

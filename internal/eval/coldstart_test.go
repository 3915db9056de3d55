package eval

import (
	"testing"
)

// TestColdstartAcceptance pins the experiment's headline claims at CI
// scale: a warm launch is >= 3x cheaper than a cold launch of the same
// program, and program-affinity beats round-robin on the repeated-program
// workload (fewer cold launches AND cheaper mean launch).
func TestColdstartAcceptance(t *testing.T) {
	r := ColdstartSweep(Options{Quick: true})
	if r.Cold == 0 || r.Warm == 0 {
		t.Fatalf("degenerate gap leg: cold %v warm %v", r.Cold, r.Warm)
	}
	if r.Ratio < 3 {
		t.Fatalf("cold/warm launch ratio %.2f, want >= 3 (cold %v, warm %v)",
			r.Ratio, r.Cold, r.Warm)
	}
	if r.RR.Done != r.PA.Done || r.RR.Done == 0 {
		t.Fatalf("legs completed %d vs %d launches", r.RR.Done, r.PA.Done)
	}
	if r.PA.ColdLaunches >= r.RR.ColdLaunches {
		t.Fatalf("program-affinity cold launches %d, round-robin %d: affinity should pay fewer",
			r.PA.ColdLaunches, r.RR.ColdLaunches)
	}
	// One cold launch per program plus at most the initial thundering
	// herd: concurrent launches racing a still-compiling artifact each pay
	// the JIT (exactly the seed's global-cache behavior, now per replica).
	if r.PA.ColdLaunches > coldstartPrograms+coldstartConc {
		t.Fatalf("program-affinity paid %d cold launches, want <= %d (programs + launch herd)",
			r.PA.ColdLaunches, coldstartPrograms+coldstartConc)
	}
	if r.PA.MeanLaunch >= r.RR.MeanLaunch {
		t.Fatalf("program-affinity mean launch %v, round-robin %v: affinity should be cheaper",
			r.PA.MeanLaunch, r.RR.MeanLaunch)
	}
}

package eval

import (
	"testing"
)

// TestFaultsAcceptance pins the chaos experiment's headline claims at CI
// scale: both scheduled crashes are detected and recovered (in-flight
// launches requeued or failed typed; runEngine's Check holds the pages),
// and high-priority goodput holds at >= 80% of the no-fault baseline
// while best-effort launches absorb the capacity loss.
func TestFaultsAcceptance(t *testing.T) {
	r := FaultsSweep(Options{Quick: true})

	// Baseline leg: undisturbed, everything completes.
	if r.Baseline.HPDone == 0 || r.Baseline.HPFailed != 0 || r.Baseline.BEFailed != 0 {
		t.Fatalf("degenerate baseline leg: %+v", r.Baseline)
	}
	if r.Baseline.ReplicasLost != 0 || r.Baseline.Requeues != 0 || r.Baseline.Sheds != 0 {
		t.Fatalf("baseline leg saw fault activity: %+v", r.Baseline)
	}

	// Detection: both crash-stops declared dead, with bounded latency.
	f := r.Faulted
	if f.ReplicasLost != faultKills {
		t.Fatalf("replicas lost = %d, want %d", f.ReplicasLost, faultKills)
	}
	if f.DetectTime <= 0 {
		t.Fatal("dead replicas detected with zero cumulative latency")
	}

	// Recovery: the dead replicas were serving when they crashed, their
	// stranded launches were requeued, and every high-priority launch
	// still completed (the retry policy absorbed the deaths). All task
	// slots are accounted for: done + shed + typed failure, nothing hangs
	// (a hung waiter would deadlock the virtual clock, not reach here).
	if f.Requeues == 0 {
		t.Fatal("crashes stranded no launches: kills missed the loaded window")
	}
	if f.HPDone+f.HPFailed != r.Baseline.HPDone+r.Baseline.HPFailed {
		t.Fatalf("high-priority tasks unaccounted: done %d failed %d", f.HPDone, f.HPFailed)
	}
	if f.BEDone+f.BEShed+f.BEFailed != r.Baseline.BEDone {
		t.Fatalf("best-effort tasks unaccounted: done %d shed %d failed %d, want %d total",
			f.BEDone, f.BEShed, f.BEFailed, r.Baseline.BEDone)
	}

	// Degradation: shedding engaged and high-priority goodput held.
	if f.Sheds == 0 {
		t.Fatal("saturation guard never shed a best-effort launch")
	}
	if f.Sheds != f.BEShed {
		t.Fatalf("cluster counted %d sheds, clients saw %d", f.Sheds, f.BEShed)
	}
	if r.GoodputRetained < 0.8 {
		t.Fatalf("high-priority goodput retained %.2f, want >= 0.8 (baseline %.1f/s, faulted %.1f/s)",
			r.GoodputRetained, r.Baseline.HPGoodput, f.HPGoodput)
	}
}

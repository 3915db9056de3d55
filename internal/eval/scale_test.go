package eval

import (
	"runtime"
	"strings"
	"testing"
)

func TestScaleSweepQuick(t *testing.T) {
	r := ScaleSweep(Options{Quick: true})
	if r.MaxReplicas < 128 {
		t.Fatalf("largest leg is %d replicas, want >= 128", r.MaxReplicas)
	}
	for _, p := range r.Sweep {
		if p.Sessions != p.Replicas*2 {
			t.Fatalf("%d replicas: %d sessions, want %d", p.Replicas, p.Sessions, p.Replicas*2)
		}
		if p.Completions != p.Sessions || p.Failures != 0 {
			t.Fatalf("%d replicas: %d/%d sessions completed, %d failed",
				p.Replicas, p.Completions, p.Sessions, p.Failures)
		}
		if p.Events == 0 || p.AvgLatency <= 0 {
			t.Fatalf("%d replicas: no work recorded: %+v", p.Replicas, p)
		}
	}
	for i := 1; i < len(r.Sweep); i++ {
		if a, b := r.Sweep[i-1], r.Sweep[i]; b.Events <= a.Events {
			t.Fatalf("events did not grow with fleet size: %d @ %d replicas vs %d @ %d",
				a.Events, a.Replicas, b.Events, b.Replicas)
		}
	}
	if !r.Deterministic {
		t.Fatal("GOMAXPROCS=1 rerun of the largest leg diverged from the first run")
	}
	if !strings.Contains(r.Table(), "BYTE-IDENTICAL") {
		t.Fatalf("table does not report the determinism probe:\n%s", r.Table())
	}
}

// TestBenchRowDeterminismAcrossGOMAXPROCS pins the -pd and -faults
// bench rows: their tables are virtual-time only, so parallelFor
// spreading legs across cores must not change a byte.
func TestBenchRowDeterminismAcrossGOMAXPROCS(t *testing.T) {
	o := Options{Quick: true, Seed: 5}
	pdPar := PDSweep(o).Table()
	faultsPar := FaultsSweep(o).Table()
	prev := runtime.GOMAXPROCS(1)
	pdSer := PDSweep(o).Table()
	faultsSer := FaultsSweep(o).Table()
	runtime.GOMAXPROCS(prev)
	if pdPar != pdSer {
		t.Fatalf("-pd bench rows differ across GOMAXPROCS:\n--- parallel ---\n%s\n--- serial ---\n%s", pdPar, pdSer)
	}
	if faultsPar != faultsSer {
		t.Fatalf("-faults bench rows differ across GOMAXPROCS:\n--- parallel ---\n%s\n--- serial ---\n%s", faultsPar, faultsSer)
	}
}

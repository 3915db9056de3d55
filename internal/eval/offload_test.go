package eval

import (
	"encoding/json"
	"testing"
)

// TestOffloadSweepRecoversCapacity pins the headline acceptance claims:
// at 2x oversubscription the host tier recovers at least 1.5x effective
// KV capacity with no FCFS terminations, while the device-only engine
// collapses into termination churn; the TTFT cost of offloading stays
// bounded relative to the uncontended baseline.
func TestOffloadSweepRecoversCapacity(t *testing.T) {
	r := OffloadSweep(quick)
	if len(r.Points) != 2*len(offloadOversubs) {
		t.Fatalf("%d points, want %d", len(r.Points), 2*len(offloadOversubs))
	}
	base, ok := r.Get(1, 0)
	if !ok || base.Done == 0 || base.TTFT == 0 {
		t.Fatalf("1x device-only leg incomplete: %+v", base)
	}
	if base.Failures != 0 || base.Terminations != 0 {
		t.Fatalf("1x device-only leg contended: %+v", base)
	}

	off2, ok := r.Get(2, offloadHostRatio)
	if !ok {
		t.Fatal("missing 2x offload leg")
	}
	if off2.EffCapacity < 1.5 {
		t.Fatalf("2x offload effective capacity = %.2fx, want >= 1.5x", off2.EffCapacity)
	}
	if off2.Terminations != 0 {
		t.Fatalf("2x offload leg still terminated %d inferlets", off2.Terminations)
	}
	if off2.Done != off2.Agents*2 {
		t.Fatalf("2x offload completed %d of %d tasks", off2.Done, off2.Agents*2)
	}
	if off2.SwapOutPages == 0 || off2.SwapInPages == 0 {
		t.Fatalf("2x offload leg recorded no swap traffic: %+v", off2)
	}
	// Bounded TTFT degradation: prefetch transfer plus fault-in queueing
	// must stay within 2.5x of the uncontended single-tier baseline
	// (measured ~2.05x at quick scale; the device-only engine at the same
	// load does not serve most requests at all).
	if float64(off2.TTFT) > 2.5*float64(base.TTFT) {
		t.Fatalf("2x offload TTFT %v exceeds 2.5x the 1x baseline %v", off2.TTFT, base.TTFT)
	}

	// The device-only engine at the same load resolves contention by
	// killing inferlets.
	none2, ok := r.Get(2, 0)
	if !ok || none2.Terminations == 0 {
		t.Fatalf("2x device-only leg shows no contention: %+v", none2)
	}
	if none2.Done >= off2.Done {
		t.Fatalf("offload did not improve completions: %d (offload) vs %d (none)", off2.Done, none2.Done)
	}
}

// TestOffloadSweepDeterministic pins the byte-identical contract for the
// whole experiment document.
func TestOffloadSweepDeterministic(t *testing.T) {
	a, err := json.Marshal(OffloadSweep(quick))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(OffloadSweep(quick))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("same-seed offload sweeps produced different documents")
	}
}

// TestOffloadFullScaleCompletes runs the sweep at full scale. Its
// 3x-oversubscribed host-tier leg used to deadlock: an agent FCFS-killed
// with a forward in flight had its pages recycled, the dead kernel wrote
// into the next owner's pages, and that owner's forward failed at
// execution with a completion nobody resolved. Every leg must now finish
// and leave no page allocated.
func TestOffloadFullScaleCompletes(t *testing.T) {
	r := OffloadSweep(Options{})
	if len(r.Points) != 2*len(offloadOversubs) {
		t.Fatalf("%d points, want %d", len(r.Points), 2*len(offloadOversubs))
	}
	for _, p := range r.Points {
		if p.Done == 0 || p.LeakedPages != 0 {
			t.Fatalf("%.1fx oversubscribed, host ratio %.1f: %d done, %d pages leaked", p.Oversub, p.HostRatio, p.Done, p.LeakedPages)
		}
	}
}

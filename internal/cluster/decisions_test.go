package cluster_test

// The decision stream's conservation law: every counter the cluster keeps
// for a decision has exactly one OnDecision record per increment, and the
// records arrive in virtual-time order. The stress, scaler and fault tests
// check it on their runs; TestHandoffDecisionsMirrorCounters covers the
// two handoff outcomes.

import (
	"errors"
	"strings"
	"testing"

	"pie"
	"pie/internal/cluster"
	"pie/internal/trace"
)

// decisionLog installs an OnDecision hook that keeps every record.
func decisionLog(e *pie.Engine) *[]trace.Decision {
	var ds []trace.Decision
	e.Cluster().OnDecision = func(d trace.Decision) { ds = append(ds, d) }
	return &ds
}

// kinds counts records per kind.
func kinds(ds []trace.Decision) map[trace.Kind]int {
	n := map[trace.Kind]int{}
	for _, d := range ds {
		n[d.Kind]++
	}
	return n
}

// checkDecisionsMirrorCounters asserts that each counter equals the number
// of records of the kind it mirrors, and that record T never decreases.
func checkDecisionsMirrorCounters(t *testing.T, cl *cluster.Cluster, ds []trace.Decision) {
	t.Helper()
	for i := 1; i < len(ds); i++ {
		if ds[i].T < ds[i-1].T {
			t.Fatalf("record %d at %v follows record %d at %v: %+v", i, ds[i].T, i-1, ds[i-1].T, ds[i])
		}
	}
	n := kinds(ds)
	placements, replaced := 0, 0
	for _, r := range cl.Replicas() {
		placements += r.Placements
	}
	for _, d := range ds {
		if d.Kind == trace.Dead && d.Dest >= 0 {
			replaced++
		}
	}
	for _, m := range []struct {
		counter          string
		records, counted int
	}{
		{"Handoffs", n[trace.Handoff], cl.Handoffs},
		{"HandoffDenied", n[trace.HandoffDeny], cl.HandoffDenied},
		{"ScaleUps", n[trace.ScaleUp], cl.ScaleUps},
		{"DrainStart", n[trace.Drain], cl.DrainStart},
		{"DrainDone", n[trace.DrainDone], cl.DrainDone},
		{"Sheds", n[trace.Shed], cl.Sheds},
		{"Degradations", n[trace.Degrade], cl.Degradations},
		{"ScaleToZeroEvents", n[trace.ScaleToZero], cl.ScaleToZeroEvents},
		{"Suspects", n[trace.Suspect], cl.Suspects},
		{"ReplicasLost", n[trace.Dead], cl.ReplicasLost},
		{"Replacements", replaced, cl.Replacements},
		// A handoff places its session on the destination.
		{"Placements", n[trace.Place] + n[trace.Handoff], placements},
	} {
		if m.records != m.counted {
			t.Errorf("%s = %d, but %d records mirror it", m.counter, m.counted, m.records)
		}
	}
}

// TestHandoffDecisionsMirrorCounters: on a prefill/decode pair a long
// session and an 8-token one both hand off, however little KV the short one
// holds, and a long one launched while the only decode replica drains is
// denied. Each outcome is one record carrying its session, replicas and
// numbers.
func TestHandoffDecisionsMirrorCounters(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 2, Placement: pie.PlaceLeastLoaded,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	ds := decisionLog(e)
	cl := e.Cluster()
	decode := cl.Replicas()[1]
	err := e.RunClient(func() {
		for _, params := range []string{wordyParams(200), completionParams(8, "")} {
			if _, err := e.LaunchAndWait(pie.Spec("text_completion", params)); err != nil {
				panic(err)
			}
		}
		cl.BeginDrain(decode)
		if _, err := e.LaunchAndWait(pie.Spec("text_completion", wordyParams(200))); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Handoffs != 2 || cl.HandoffDenied != 1 {
		t.Fatalf("handoffs %d denied %d, want 2/1", cl.Handoffs, cl.HandoffDenied)
	}
	checkDecisionsMirrorCounters(t, cl, *ds)
	for _, d := range *ds {
		switch d.Kind {
		case trace.Handoff:
			if !strings.HasPrefix(d.Session, "text_completion#") || d.Replica != 0 || d.Dest != 1 || d.Pages < 1 || d.Cost <= 0 ||
				d.Chosen.Replica != 1 || d.RunnerUp.Replica != -1 {
				t.Errorf("handoff record %+v", d)
			}
		case trace.HandoffDeny:
			if !strings.HasPrefix(d.Session, "text_completion#") || d.Replica != 0 || !errors.Is(d.Err, pie.ErrNoDecodeCapacity) {
				t.Errorf("deny record %+v", d)
			}
		}
	}
	if n := leakedPages(e); n != 0 {
		t.Fatalf("leaked %d KV pages", n)
	}
}

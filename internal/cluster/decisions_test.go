package cluster_test

// The decision stream: every counter the cluster keeps for a decision is a
// fold of its records (cluster.Cluster.Decide), so the two agree by
// construction. What construction does not give is order: decisionLog
// checks, as it keeps them, that records arrive in virtual-time order.

import (
	"errors"
	"slices"
	"testing"

	"pie"
	"pie/internal/trace"
)

// decisionLog installs an OnDecision hook that keeps every record and
// fails t when a record's T is earlier than the one before it.
func decisionLog(t *testing.T, e *pie.Engine) *[]trace.Decision {
	var ds []trace.Decision
	e.Cluster().OnDecision = func(d trace.Decision) {
		if n := len(ds); n > 0 && d.T < ds[n-1].T {
			t.Errorf("record %d at %v follows one at %v: %+v", n, d.T, ds[n-1].T, d)
		}
		ds = append(ds, d)
	}
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

// TestHandoffDecisionsMirrorCounters: on a prefill/decode pair a long
// session and an 8-token one both hand off, however little KV the short one
// holds, and a long one launched while the only decode replica drains is
// denied. Each outcome is one record carrying its session, replicas and
// numbers, and the counters are their folds: two handoffs, one denial, and
// each handoff a placement on the decode replica.
func TestHandoffDecisionsMirrorCounters(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 2, Placement: pie.PlaceLeastLoaded,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	ds := decisionLog(t, e)
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
	n := kinds(*ds)
	if cl.Handoffs != 2 || cl.HandoffDenied != 1 || n[trace.Handoff] != 2 || n[trace.HandoffDeny] != 1 {
		t.Fatalf("handoffs %d denied %d, records %v; want 2/1", cl.Handoffs, cl.HandoffDenied, n)
	}
	if p, in, out := decode.Placements, decode.HandoffsIn, cl.Replicas()[0].HandoffsOut; p != 2 || in != 2 || out != 2 {
		t.Fatalf("decode replica placements %d handoffs in %d, prefill handoffs out %d; want 2/2/2", p, in, out)
	}
	// The three launches are sessions 1, 2 and 3, each placed on the
	// prefill replica under its key before it moves or is denied.
	var placed, moved []uint64
	for _, d := range *ds {
		switch d.Kind {
		case trace.Place:
			placed = append(placed, d.Session)
		case trace.Handoff:
			moved = append(moved, d.Session)
			if d.Replica != 0 || d.Dest != 1 || d.Pages < 1 || d.Cost <= 0 ||
				d.Chosen.Replica != 1 || d.RunnerUp.Replica != -1 {
				t.Errorf("handoff record %+v", d)
			}
		case trace.HandoffDeny:
			if d.Session != 3 || d.Replica != 0 || !errors.Is(d.Err, pie.ErrNoDecodeCapacity) {
				t.Errorf("deny record %+v", d)
			}
		}
	}
	if !slices.Equal(placed, []uint64{1, 2, 3}) || !slices.Equal(moved, []uint64{1, 2}) {
		t.Errorf("placed sessions %v, moved %v; want [1 2 3] and [1 2]", placed, moved)
	}
}

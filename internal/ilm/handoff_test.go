// Unit tests for the session-side half of prefill/decode handoff: the
// Placer is consulted at forward boundaries, and a successful migration
// repoints every binding — session and handle — at the new controller and
// instance.
package ilm

import (
	"testing"

	"pie/internal/core"
	"pie/internal/sim"
)

// fakeCoordinator is a Placer that coordinates handoffs, like the cluster
// layer does.
type fakeCoordinator struct {
	fakePlacer
	ctl   *core.Controller
	inst  *core.Instance
	calls int
	grant bool
}

func (f *fakeCoordinator) MaybeHandoff(ctl *core.Controller, inst *core.Instance) (*core.Controller, *core.Instance, bool) {
	f.calls++
	if !f.grant {
		return nil, nil, false
	}
	return f.ctl, f.inst, true
}

func TestCheckHandoffRebindsSession(t *testing.T) {
	co := &fakeCoordinator{ctl: &core.Controller{}, inst: &core.Instance{}}
	m := New(sim.NewClock(), co, nil, testCatalog())
	// No instance bound yet: the boundary check is a no-op.
	s := &session{ilm: m, handle: &Handle{}}
	s.checkHandoff()
	// Bound but not marked: the coordinator is never bothered.
	s.inst = &core.Instance{}
	s.checkHandoff()
	if co.calls != 0 {
		t.Fatalf("coordinator consulted %d times before the pending mark", co.calls)
	}
	// Marked but the coordinator declines (not quiescent, no capacity):
	// bindings stay put.
	old := s.inst
	old.HandoffPending = true
	s.checkHandoff()
	if co.calls != 1 || s.inst != old {
		t.Fatalf("declined handoff rebound the session (calls=%d)", co.calls)
	}
	// Granted: session and handle repoint at the new controller/instance.
	co.grant = true
	s.checkHandoff()
	if s.ctl != co.ctl || s.inst != co.inst {
		t.Fatal("granted handoff left session bindings on the source")
	}
	if s.handle.ctl != co.ctl || s.handle.inst != co.inst {
		t.Fatal("granted handoff left handle bindings on the source")
	}
}

func TestCheckHandoffWithoutCoordinator(t *testing.T) {
	// A placer that never coordinates handoffs declines every request.
	s := &session{ilm: newTestILM(), inst: &core.Instance{HandoffPending: true}}
	s.checkHandoff() // must not panic or clear anything
	if !s.inst.HandoffPending {
		t.Fatal("pending mark cleared by a declining placer")
	}
}

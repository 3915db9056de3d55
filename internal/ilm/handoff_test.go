// Unit tests for the session-side half of prefill/decode handoff: the
// Placer is consulted at forward boundaries, and a successful move repoints
// the session and its handle at the new controller, keeping the instance.
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
	calls int
	grant bool
}

func (f *fakeCoordinator) MaybeHandoff(ctl *core.Controller, inst *core.Instance) (*core.Controller, bool) {
	f.calls++
	if !f.grant {
		return nil, false
	}
	return f.ctl, true
}

func TestCheckHandoffRebindsSession(t *testing.T) {
	co := &fakeCoordinator{ctl: &core.Controller{}}
	m := New(sim.NewClock(), co, nil, testCatalog())
	// No instance bound yet: the boundary check is a no-op.
	s := &session{ilm: m, handle: &Handle{}}
	s.checkHandoff()
	// Bound but not marked: the coordinator is never bothered.
	s.inst = &core.Instance{}
	s.handle.inst = s.inst
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
	// Granted: session and handle repoint at the new controller and keep
	// the instance, which moved.
	co.grant = true
	s.checkHandoff()
	if s.ctl != co.ctl || s.inst != old {
		t.Fatal("granted handoff left the session on the source or swapped its instance")
	}
	if s.handle.ctl != co.ctl || s.handle.inst != old {
		t.Fatal("granted handoff left the handle on the source or swapped its instance")
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

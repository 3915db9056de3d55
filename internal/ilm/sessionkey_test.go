package ilm

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pie/api"
	"pie/inferlet"
	"pie/internal/core"
	"pie/internal/sim"
)

// keyPlacer places every attempt on one controller and records the session
// key each Place receives. While failPlace or failFault is positive, that
// many placements fail (api.ErrReplicaLost) or that many attempts fail at
// the transient-fault hook, ahead of placement (api.ErrTransientFault).
type keyPlacer struct {
	fakePlacer
	ctl                  *core.Controller
	keys                 []uint64
	failPlace, failFault int
}

func (p *keyPlacer) Place(_, _ string, _ []string, session uint64) (*core.Controller, error) {
	p.keys = append(p.keys, session)
	if p.failPlace > 0 {
		p.failPlace--
		return nil, api.ErrReplicaLost
	}
	return p.ctl, nil
}

func (p *keyPlacer) LaunchFault() error {
	if p.failFault > 0 {
		p.failFault--
		return api.ErrTransientFault
	}
	return nil
}

// TestSessionKeyIsTheFirstPlacementsHandleID: a launch's session key is its
// handle id, taken at its first successful placement. Place receives the
// key the handle ends up with; a launch whose only attempt fails placement
// or hits a transient fault consumes none, so the next launch gets the id
// it would have got without it; and a retried attempt, after a failed
// placement, a transient fault or its replica's death, keeps its key. Every
// attempt's instance carries the key, and the inferlet names itself by it.
func TestSessionKeyIsTheFirstPlacementsHandleID(t *testing.T) {
	clock := sim.NewClock()
	ctl, info := timingController(clock, "gpu0")
	p := &keyPlacer{ctl: ctl}
	m := New(clock, p, nil, []api.ModelInfo{info})
	var names []string
	var stamped []uint64 // each attempt's instance key, as it ran
	var running *Handle
	hold := inferlet.Program{Name: "hold", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		names = append(names, s.InstanceID())
		stamped = append(stamped, running.inst.Session)
		_, err := s.Receive().Get()
		return err
	}}
	if err := m.Register(hold); err != nil {
		t.Fatal(err)
	}
	retry := RetryPolicy{MaxAttempts: 4, Jitter: -1}
	var ids []uint64
	clock.Go("client", func() {
		launch := func(policy RetryPolicy, kill bool) error {
			h := new(Handle)
			running = h
			if err := m.Launch(h, LaunchSpec{Program: "hold", Retry: policy}); err != nil {
				return err
			}
			if kill {
				ctl.AbortAllInstances(api.ErrReplicaLost) // before the attempt first runs; the requeue re-places it
				for h.Attempts() < 4 || h.requeuing {
					clock.Sleep(time.Millisecond)
				}
			}
			h.Send("done")
			ids = append(ids, h.ID)
			return h.Wait()
		}
		steps := []struct {
			failPlace, failFault int
			policy               RetryPolicy
			kill, fails          bool
		}{
			{},                          // session 1
			{failPlace: 1, fails: true}, // refused at placement: no key
			{failFault: 1, fails: true}, // a transient fault before placement: no key
			{},                          // session 2, as if the two above never ran
			{failPlace: 1, failFault: 1, policy: retry, kill: true}, // session 3 across four attempts
		}
		for i, st := range steps {
			p.failPlace, p.failFault = st.failPlace, st.failFault
			if err := launch(st.policy, st.kill); (err != nil) != st.fails {
				t.Errorf("launch %d: %v, want failure %v", i, err, st.fails)
			}
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	// Launch 4's attempts: a fault (no Place), a refused placement, the
	// placement that commits key 3, and the requeue after the death.
	if want := []uint64{1, 2, 2, 3, 3, 3}; !slices.Equal(p.keys, want) {
		t.Errorf("Place received keys %v, want %v", p.keys, want)
	}
	if want := []uint64{1, 2, 3}; !slices.Equal(ids, want) {
		t.Errorf("handle ids %v, want %v", ids, want)
	}
	if want := []uint64{1, 2, 3, 3}; !slices.Equal(stamped, want) {
		t.Errorf("instances ran under keys %v, want %v", stamped, want)
	}
	var want []string
	for _, k := range []uint64{1, 2, 3, 3} {
		want = append(want, fmt.Sprintf("hold#%d", k))
	}
	if !slices.Equal(names, want) {
		t.Errorf("InstanceID read %q, want %q", names, want)
	}
	if m.Retries != 2 || m.Requeues != 1 || ctl.Check() != nil {
		t.Errorf("retries %d, requeues %d, Check %v; want 2, 1 and nil", m.Retries, m.Requeues, ctl.Check())
	}
}

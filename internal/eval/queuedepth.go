package eval

import (
	"time"

	"pie"
	"pie/internal/cluster"
)

// queueDepthScaler is the comparator the cluster and slo experiments scale
// with: a class-blind, cost-blind timer that reads only the mean
// outstanding calls per healthy serving replica. It changes the fleet
// through the cluster's public fleet ops (Activate, BeginDrain,
// CompleteDrains), as any controller outside the library would. Dead and
// suspect replicas never count toward capacity: their stuck queues would
// read as load the fleet has no hardware to serve.
type queueDepthScaler struct {
	cl       *cluster.Cluster
	up, down float64 // mean depth that adds a replica / drains one
	ups      int     // replicas activated or un-drained
}

// queueDepthInterval is the comparator's tick on the virtual clock.
const queueDepthInterval = 25 * time.Millisecond

// startQueueDepthScaler turns every replica past the first active into a
// cold spare and arms the comparator's timer, which keeps between one and
// every built replica serving. Call it straight after newPieEngine,
// before any launch.
func startQueueDepthScaler(e *pie.Engine, active int, up, down float64) *queueDepthScaler {
	s := &queueDepthScaler{cl: e.Cluster(), up: up, down: down}
	for _, r := range s.cl.Replicas()[active:] {
		s.cl.Deactivate(r)
	}
	e.Clock().Every(queueDepthInterval, s.tick)
	return s
}

// tick finishes completed drains, then compares the mean depth against
// the thresholds. Iteration is in replica-ID order, so same-seed runs
// scale identically.
func (s *queueDepthScaler) tick() {
	s.cl.CompleteDrains()
	rs := s.cl.Replicas()
	serving, depth := 0, 0
	for _, r := range rs {
		if r.Active() && !r.Draining() && r.Health() == cluster.HealthHealthy {
			serving++
			depth += r.Ctl.OutstandingCalls()
		}
	}
	if serving == 0 {
		return
	}
	switch mean := float64(depth) / float64(serving); {
	case mean >= s.up && serving < len(rs):
		// Un-drain warm capacity first, then wake a spare; lowest ID first.
		for _, undrain := range []bool{true, false} {
			for _, r := range rs {
				if r.Draining() == undrain && s.cl.Activate(r) {
					s.ups++
					return
				}
			}
		}
	case mean <= s.down && serving > 1:
		// Drain the highest-ID healthy serving replica; draining a suspect
		// one would never complete.
		for i := len(rs) - 1; i >= 0; i-- {
			if rs[i].Health() == cluster.HealthHealthy && s.cl.BeginDrain(rs[i]) {
				return
			}
		}
	}
}

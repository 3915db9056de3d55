package eval

import (
	"time"

	"pie"
	"pie/internal/cluster"
)

// queueDepthScaler is the comparator the cluster and slo experiments scale
// with: a class-blind, cost-blind timer that reads only the mean
// outstanding calls per serving replica (cluster.Replica.Serving). It
// names a target one above or below the serving count and lets the
// cluster's public fleet ops move the fleet (Resize, CompleteDrains), as
// any controller outside the library would. Dead and suspect replicas
// never count toward capacity: their stuck queues would read as load the
// fleet has no hardware to serve.
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
// the thresholds and resizes the fleet by one replica: Resize cancels a
// drain before it wakes a spare, lowest ID first, and drains the highest
// ID. Same-seed runs scale identically.
func (s *queueDepthScaler) tick() {
	s.cl.CompleteDrains()
	rs := s.cl.Replicas()
	serving, depth := 0, 0
	for _, r := range rs {
		if r.Serving() {
			serving++
			depth += r.Ctl.OutstandingCalls()
		}
	}
	if serving == 0 {
		return
	}
	switch mean := float64(depth) / float64(serving); {
	case mean >= s.up && serving < len(rs):
		if s.cl.Resize(rs, serving+1, nil) != nil {
			s.ups++
		}
	case mean <= s.down && serving > 1:
		s.cl.Resize(rs, serving-1, nil)
	}
}
